// Package cas is a minimal on-disk content-addressed store: fixed-size
// hex digests name immutable blobs, writes are atomic and durable (write
// and fsync a temp file, rename it into place, fsync the directory), and
// reads verify a checksummed, versioned envelope so a corrupt or
// truncated entry is never returned — it is quarantined and reported as
// a miss instead. The store is the persistent tier behind the sweep
// engine's memo cache: a digest is the canonical content address of one
// sweep cell, and the blob is that cell's serialized record, so repeated
// paper-scale grids across processes and runs replay from disk instead
// of re-simulating.
//
// The envelope is deliberately strict. Every entry starts with a magic
// line naming the codec version, a SHA-256 checksum of the payload, and
// the payload length; Get re-verifies all three. Anything that fails —
// bad magic, unknown version, short payload, checksum mismatch — is
// moved into the store's quarantine/ directory (preserving the evidence
// for inspection) and treated as a cache miss, so a crashed writer or a
// flipped bit costs one re-simulation, never a wrong result.
package cas

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlperf/internal/atomicfile"
)

// EnvelopeVersion is the on-disk entry format version. Get rejects (and
// quarantines) any other version: a format change must not be silently
// misread as data.
const EnvelopeVersion = 1

// magic is the first envelope line, including the version.
const magic = "mlperf-cas"

// quarantineDir is the subdirectory corrupt entries are moved into.
const quarantineDir = "quarantine"

// tempPrefix starts the name of every in-flight Put's temp file: Put
// writes through atomicfile.Write.
const tempPrefix = atomicfile.TempPrefix

// staleTempAge is how old a temp file must be before the eviction scan
// treats it as the leftover of a writer killed mid-Put and removes it. A
// live Put holds its temp file for well under a millisecond.
const staleTempAge = time.Minute

// DefaultQuarantineLimit bounds how many quarantined entries a store
// keeps. Quarantine preserves evidence, but evidence must not become a
// disk leak: an attacker (or a flaky disk) feeding the store corrupt
// entries forever would otherwise grow quarantine/ without limit. Beyond
// the cap the oldest entries are dropped. A constant, not a knob.
const DefaultQuarantineLimit = 64

// ErrCorrupt marks an entry that failed envelope verification. Get
// never returns it: it quarantines such an entry and reports a miss.
var ErrCorrupt = errors.New("cas: corrupt entry")

// Stats counts a store's writes, quarantines and evictions since Open.
// All counters are monotone. Lookups are not counted here: whether a
// Get answers a cell is the caller's to judge (the sweep engine counts
// its disk hits and misses after decoding the record).
type Stats struct {
	// Puts counts blobs written (idempotent re-puts of an existing
	// digest are not counted; see PutsSkipped).
	Puts int64
	// PutsSkipped counts Puts that found the digest already stored and
	// wrote nothing — the content-addressed fast path.
	PutsSkipped int64
	// Quarantined counts entries evicted into quarantine/ after failing
	// envelope verification.
	Quarantined int64
	// QuarantineDropped counts quarantined entries discarded because the
	// quarantine directory exceeded its cap (oldest dropped first).
	QuarantineDropped int64
	// Evictions counts intact entries removed to keep the store under its
	// byte capacity (SetMaxBytes), oldest first. Distinct from Quarantined:
	// an eviction is a deliberate capacity decision about a good entry, a
	// quarantine is a verification failure — conflating them makes a
	// corruption storm read as a capacity problem and vice versa.
	Evictions int64
}

// Store is an on-disk content-addressed blob store rooted at one
// directory. It is safe for concurrent use by multiple goroutines and —
// thanks to atomic rename and content addressing — by multiple
// processes sharing the directory.
type Store struct {
	dir string

	puts, putsSkipped, quarantined, quarantineDropped, evictions atomic.Int64

	// qmu serializes quarantine moves and the prune that follows, so two
	// goroutines quarantining at once cannot both skip pruning.
	qmu sync.Mutex

	// maxBytes caps the summed size of intact entries (<= 0 = unbounded).
	maxBytes atomic.Int64
	// approxBytes tracks the store's size as this process sees it: seeded
	// by the scan in SetMaxBytes, advanced by each Put, and re-anchored to
	// the authoritative on-disk total at every eviction scan. With several
	// processes sharing the directory each one's estimate drifts between
	// scans, so the cap is enforced eventually, not instantaneously —
	// which is the right trade for a cache.
	approxBytes atomic.Int64
	// emu serializes eviction scans so concurrent over-cap Puts do not
	// race each other deleting files.
	emu sync.Mutex
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cas: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	return &Store{dir: dir}, nil
}

// SetMaxBytes caps the summed size of intact entries (envelope bytes on
// disk; quarantined entries do not count — they have their own cap).
// When a Put pushes the store past the cap, the oldest entries (by
// modification time) are evicted until it fits again, each counted in
// Stats.Evictions. n <= 0 removes the cap. Setting a cap evicts
// immediately if the store already exceeds it.
func (s *Store) SetMaxBytes(n int64) {
	s.maxBytes.Store(n)
	if n > 0 {
		s.evictToCap()
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validDigest vets the hex digest used as a content address.
func validDigest(digest string) error {
	if len(digest) != sha256.Size*2 {
		return fmt.Errorf("cas: digest %q is not a sha256 hex digest", digest)
	}
	if _, err := hex.DecodeString(digest); err != nil {
		return fmt.Errorf("cas: digest %q is not hex: %v", digest, err)
	}
	return nil
}

// path maps a digest to its entry file, fanned out over 256 prefix
// directories so huge grids do not pile every entry into one dir.
func (s *Store) path(digest string) string {
	return filepath.Join(s.dir, digest[:2], digest)
}

// Get returns the payload stored under digest. ok is false on a miss;
// a corrupt or truncated entry is quarantined and reported as a miss.
// The returned error is reserved for environmental failures (bad
// digest, unreadable directory), never for bad content.
func (s *Store) Get(digest string) (payload []byte, ok bool, err error) {
	if err := validDigest(digest); err != nil {
		return nil, false, err
	}
	data, rerr := os.ReadFile(s.path(digest))
	if rerr != nil {
		if errors.Is(rerr, fs.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("cas: %w", rerr)
	}
	payload, verr := decodeEnvelope(data)
	if verr != nil {
		s.Quarantine(digest)
		return nil, false, nil
	}
	return payload, true, nil
}

// Put stores payload under digest, atomically and durably: the envelope
// goes through atomicfile.Write (a temp file in the store, fsynced,
// renamed into place, the directory fsynced), so readers (and
// concurrent writers in other processes) only ever observe absent or
// complete entries, and a returned nil survives a crash. Re-putting an
// existing digest is a cheap no-op — content addressing guarantees the
// bytes are the same.
func (s *Store) Put(digest string, payload []byte) error {
	if err := validDigest(digest); err != nil {
		return err
	}
	dst := s.path(digest)
	if _, err := os.Stat(dst); err == nil {
		s.putsSkipped.Add(1)
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	env := encodeEnvelope(payload)
	if err := atomicfile.Write(dst, func(w io.Writer) error {
		_, err := w.Write(env)
		return err
	}); err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	s.puts.Add(1)
	// Write-through capacity check: only a successful write can push the
	// store over its cap, so this is the one place eviction triggers.
	if limit := s.maxBytes.Load(); limit > 0 && s.approxBytes.Add(int64(len(env))) > limit {
		s.evictToCap()
	}
	return nil
}

// evictToCap walks the store, re-anchors the size estimate to the
// authoritative on-disk total, and — if it exceeds the cap — removes the
// oldest entries (modification time, name as tiebreak) until it fits.
// The entry just written is by construction the newest, so it survives
// any eviction the cap allows. Temp files count against the cap; one
// older than staleTempAge is a killed writer's leftover and is removed,
// while a younger one belongs to a live Put and stays. Quarantine is
// invisible to the scan.
func (s *Store) evictToCap() {
	s.emu.Lock()
	defer s.emu.Unlock()
	limit := s.maxBytes.Load()
	if limit <= 0 {
		return
	}
	type aged struct {
		path string
		size int64
		when time.Time
	}
	var files []aged
	var total int64
	dirs, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, d := range dirs {
		if !d.IsDir() || d.Name() == quarantineDir {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(s.dir, d.Name()))
		if err != nil {
			continue
		}
		for _, e := range entries {
			temp := strings.HasPrefix(e.Name(), tempPrefix)
			if e.IsDir() || !temp && validDigest(e.Name()) != nil {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			path := filepath.Join(s.dir, d.Name(), e.Name())
			if temp {
				if time.Since(info.ModTime()) < staleTempAge || os.Remove(path) != nil {
					total += info.Size()
				}
				continue
			}
			files = append(files, aged{
				path: path,
				size: info.Size(),
				when: info.ModTime(),
			})
			total += info.Size()
		}
	}
	if total > limit {
		sort.Slice(files, func(i, j int) bool {
			if !files[i].when.Equal(files[j].when) {
				return files[i].when.Before(files[j].when)
			}
			return files[i].path < files[j].path
		})
		for _, f := range files {
			if total <= limit {
				break
			}
			if os.Remove(f.path) == nil {
				total -= f.size
				s.evictions.Add(1)
			}
		}
	}
	s.approxBytes.Store(total)
}

// Quarantine evicts the entry under digest into quarantine/, preserving
// the bytes for inspection. Callers use it when the payload verified at
// the envelope layer but failed a stricter application-level decode
// (Get quarantines envelope failures itself). Missing entries are a
// no-op.
func (s *Store) Quarantine(digest string) {
	if validDigest(digest) != nil {
		return
	}
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	dst := filepath.Join(qdir, digest+"."+strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := os.Rename(s.path(digest), dst); err == nil {
		s.quarantined.Add(1)
	}
	s.pruneQuarantineLocked(qdir)
}

// pruneQuarantineLocked drops the oldest quarantined entries beyond the
// cap. Quarantine names end in the nanosecond timestamp of the move
// (rename preserves the file's own mtime, so ModTime would reflect when
// the corrupt entry was written, not when it was caught); entries
// without a parseable suffix sort first and go before dated ones.
// Callers hold qmu.
func (s *Store) pruneQuarantineLocked(qdir string) {
	const limit = DefaultQuarantineLimit
	entries, err := os.ReadDir(qdir)
	if err != nil || len(entries) <= limit {
		return
	}
	type aged struct {
		name string
		when int64
	}
	files := make([]aged, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var when int64
		if i := strings.LastIndexByte(e.Name(), '.'); i >= 0 {
			when, _ = strconv.ParseInt(e.Name()[i+1:], 10, 64)
		}
		files = append(files, aged{name: e.Name(), when: when})
	}
	if len(files) <= limit {
		return
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].when != files[j].when {
			return files[i].when < files[j].when
		}
		return files[i].name < files[j].name
	})
	for _, f := range files[:len(files)-limit] {
		if os.Remove(filepath.Join(qdir, f.name)) == nil {
			s.quarantineDropped.Add(1)
		}
	}
}

// Len walks the store and counts intact-looking entries (quarantined
// ones excluded). It is an inspection helper, not a hot path.
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == quarantineDir && filepath.Dir(path) == s.dir {
				return filepath.SkipDir
			}
			return nil
		}
		if validDigest(d.Name()) == nil {
			n++
		}
		return nil
	})
	return n, err
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Puts:              s.puts.Load(),
		PutsSkipped:       s.putsSkipped.Load(),
		Quarantined:       s.quarantined.Load(),
		QuarantineDropped: s.quarantineDropped.Load(),
		Evictions:         s.evictions.Load(),
	}
}

// encodeEnvelope wraps a payload in the versioned, checksummed entry
// format:
//
//	mlperf-cas <version>\n
//	sha256 <hex of payload>\n
//	len <decimal payload length>\n
//	\n
//	<payload bytes>
func encodeEnvelope(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %d\n", magic, EnvelopeVersion)
	fmt.Fprintf(&buf, "sha256 %s\n", hex.EncodeToString(sum[:]))
	fmt.Fprintf(&buf, "len %d\n\n", len(payload))
	buf.Write(payload)
	return buf.Bytes()
}

// decodeEnvelope verifies magic, version, length and checksum, returning
// the payload or ErrCorrupt (wrapped with the reason).
func decodeEnvelope(data []byte) ([]byte, error) {
	r := bufio.NewReader(bytes.NewReader(data))
	line := func() (string, error) {
		l, err := r.ReadString('\n')
		if err != nil {
			return "", fmt.Errorf("%w: truncated header", ErrCorrupt)
		}
		return l[:len(l)-1], nil
	}
	head, err := line()
	if err != nil {
		return nil, err
	}
	var version int
	if _, err := fmt.Sscanf(head, magic+" %d", &version); err != nil {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, head)
	}
	if version != EnvelopeVersion {
		return nil, fmt.Errorf("%w: envelope version %d, want %d", ErrCorrupt, version, EnvelopeVersion)
	}
	sumLine, err := line()
	if err != nil {
		return nil, err
	}
	wantSum, ok := strings.CutPrefix(sumLine, "sha256 ")
	if !ok || len(wantSum) != sha256.Size*2 {
		return nil, fmt.Errorf("%w: bad checksum line %q", ErrCorrupt, sumLine)
	}
	lenLine, err := line()
	if err != nil {
		return nil, err
	}
	lenStr, ok := strings.CutPrefix(lenLine, "len ")
	if !ok {
		return nil, fmt.Errorf("%w: bad length line %q", ErrCorrupt, lenLine)
	}
	want, err := strconv.Atoi(lenStr)
	if err != nil || want < 0 {
		return nil, fmt.Errorf("%w: bad length %q", ErrCorrupt, lenStr)
	}
	if blank, err := line(); err != nil {
		return nil, err
	} else if blank != "" {
		return nil, fmt.Errorf("%w: missing header separator", ErrCorrupt)
	}
	payload, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: unreadable payload", ErrCorrupt)
	}
	if len(payload) != want {
		return nil, fmt.Errorf("%w: payload %d bytes, header says %d", ErrCorrupt, len(payload), want)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != wantSum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}
