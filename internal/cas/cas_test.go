package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func digestOf(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"record":"hello"}`)
	d := digestOf(payload)

	if _, ok, err := s.Get(d); err != nil || ok {
		t.Fatalf("get before put: ok=%v err=%v", ok, err)
	}
	if err := s.Put(d, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(d)
	if err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload round trip: got %q", got)
	}
	// Idempotent re-put takes the content-addressed fast path.
	if err := s.Put(d, payload); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Puts != 1 || st.PutsSkipped != 1 || st.Quarantined != 0 {
		t.Errorf("stats %+v, want 1 put / 1 skipped / 0 quarantined", st)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v; want 1", n, err)
	}
}

func TestBadDigestRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"", "abc", "zz" + digestOf(nil)[2:]} {
		if _, _, err := s.Get(d); err == nil {
			t.Errorf("Get(%q): no error", d)
		}
		if err := s.Put(d, nil); err == nil {
			t.Errorf("Put(%q): no error", d)
		}
	}
}

// TestCorruptionQuarantined proves the hard promise of the store: no
// damaged entry is ever returned. Every corruption mode reads as a miss,
// the bytes land in quarantine/, and a fresh Put repairs the slot.
func TestCorruptionQuarantined(t *testing.T) {
	corruptions := []struct {
		name string
		mod  func(path string) error
	}{
		{"truncated", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, data[:len(data)/2], 0o644)
		}},
		{"bit flip", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[len(data)-1] ^= 0x40
			return os.WriteFile(p, data, 0o644)
		}},
		{"bad magic", func(p string) error {
			return os.WriteFile(p, []byte("not-a-cas-file\n"), 0o644)
		}},
		{"future version", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, bytes.Replace(data, []byte("mlperf-cas 1"), []byte("mlperf-cas 99"), 1), 0o644)
		}},
		{"empty file", func(p string) error {
			return os.WriteFile(p, nil, 0o644)
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			payload := []byte("payload for " + tc.name)
			d := digestOf(payload)
			if err := s.Put(d, payload); err != nil {
				t.Fatal(err)
			}
			if err := tc.mod(s.path(d)); err != nil {
				t.Fatal(err)
			}
			got, ok, err := s.Get(d)
			if err != nil {
				t.Fatalf("corrupt entry surfaced an error: %v", err)
			}
			if ok {
				t.Fatalf("corrupt entry returned as a hit: %q", got)
			}
			if st := s.Stats(); st.Quarantined != 1 {
				t.Errorf("stats %+v, want 1 quarantined", st)
			}
			q, err := filepath.Glob(filepath.Join(dir, quarantineDir, d+".*"))
			if err != nil || len(q) != 1 {
				t.Errorf("quarantine evidence: %v, %v", q, err)
			}
			// The slot is reusable: a fresh Put and Get succeed.
			if err := s.Put(d, payload); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := s.Get(d); !ok {
				t.Error("slot unusable after quarantine + re-put")
			}
		})
	}
}

func TestEnvelopeRejectsLengthMismatch(t *testing.T) {
	env := encodeEnvelope([]byte("abc"))
	env = bytes.Replace(env, []byte("len 3"), []byte("len 2"), 1)
	if _, err := decodeEnvelope(env); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				payload := []byte(fmt.Sprintf("blob %d", i))
				d := digestOf(payload)
				if err := s.Put(d, payload); err != nil {
					t.Error(err)
					return
				}
				got, ok, err := s.Get(d)
				if err != nil || !ok || !bytes.Equal(got, payload) {
					t.Errorf("blob %d: ok=%v err=%v", i, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n2, err := s.Len(); err != nil || n2 != n {
		t.Errorf("Len = %d, %v; want %d", n2, err, n)
	}
}

// TestCrossStoreSharing is the cross-process story in miniature: two
// Store handles over one directory see each other's writes.
func TestCrossStoreSharing(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("shared")
	d := digestOf(payload)
	if err := a.Put(d, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := b.Get(d)
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("second handle misses the first's write: ok=%v err=%v", ok, err)
	}
}

// TestQuarantineBounded proves repeated corruption cannot grow disk
// without limit: quarantine/ holds at most DefaultQuarantineLimit, the
// oldest entries are dropped first, and the drops are counted.
func TestQuarantineBounded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const limit = DefaultQuarantineLimit

	const rounds = 3 * limit
	var digests []string
	for i := 0; i < rounds; i++ {
		payload := []byte(fmt.Sprintf("payload %d", i))
		d := digestOf(payload)
		digests = append(digests, d)
		if err := s.Put(d, payload); err != nil {
			t.Fatal(err)
		}
		// Corrupt it in place, then read it back: the damaged entry is
		// quarantined, and quarantine/ is pruned past the cap.
		if err := os.WriteFile(s.path(d), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Get(d); err != nil || ok {
			t.Fatalf("round %d: corrupt entry ok=%v err=%v", i, ok, err)
		}
	}

	q, err := filepath.Glob(filepath.Join(dir, quarantineDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(q) > limit {
		t.Errorf("quarantine holds %d entries, cap is %d", len(q), limit)
	}
	st := s.Stats()
	if st.Quarantined != rounds {
		t.Errorf("quarantined %d, want %d", st.Quarantined, rounds)
	}
	if want := int64(rounds - limit); st.QuarantineDropped != want {
		t.Errorf("dropped %d, want %d", st.QuarantineDropped, want)
	}
	// The survivors are the newest entries.
	for _, d := range digests[:rounds-limit] {
		if m, _ := filepath.Glob(filepath.Join(dir, quarantineDir, d+".*")); len(m) != 0 {
			t.Errorf("old quarantined entry %s survived pruning", d)
		}
	}
	for _, d := range digests[rounds-limit:] {
		if m, _ := filepath.Glob(filepath.Join(dir, quarantineDir, d+".*")); len(m) != 1 {
			t.Errorf("new quarantined entry %s was dropped", d)
		}
	}
}

// fileSize reports the on-disk envelope size of one stored digest.
func fileSize(t *testing.T, s *Store, d string) int64 {
	t.Helper()
	info, err := os.Stat(s.path(d))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// age backdates a stored entry's mtime so eviction order is
// deterministic regardless of filesystem timestamp granularity.
func age(t *testing.T, s *Store, d string, secondsAgo int) {
	t.Helper()
	when := time.Now().Add(-time.Duration(secondsAgo) * time.Second)
	if err := os.Chtimes(s.path(d), when, when); err != nil {
		t.Fatal(err)
	}
}

// SetMaxBytes on an over-capacity store evicts oldest-first until it
// fits, counting each removal — and only counts removals of intact
// entries, under Evictions.
func TestSetMaxBytesEvictsOldestFirst(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for i := 0; i < 5; i++ {
		p := []byte(fmt.Sprintf(`{"cell":%d,"pad":"0123456789abcdef"}`, i))
		d := digestOf(p)
		if err := s.Put(d, p); err != nil {
			t.Fatal(err)
		}
		age(t, s, d, 100-i) // entry 0 oldest, entry 4 newest
		digests = append(digests, d)
	}
	size := fileSize(t, s, digests[0])

	// Room for two entries plus slack smaller than a third.
	s.SetMaxBytes(2*size + size/2)

	st := s.Stats()
	if st.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", st.Evictions)
	}
	for i, d := range digests {
		_, ok, err := s.Get(d)
		if err != nil {
			t.Fatal(err)
		}
		if want := i >= 3; ok != want {
			t.Fatalf("entry %d present=%v, want %v (oldest three must go first)", i, ok, want)
		}
	}
	if st.Quarantined != 0 {
		t.Fatalf("capacity eviction bled into quarantined: %+v", st)
	}
}

// A Put that overflows the cap triggers eviction on the spot; the entry
// just written survives (it is the newest).
func TestPutOverflowEvictsOnWriteThrough(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	put := func(i, ageS int) string {
		p := []byte(fmt.Sprintf(`{"cell":%d,"pad":"0123456789abcdef"}`, i))
		d := digestOf(p)
		if err := s.Put(d, p); err != nil {
			t.Fatal(err)
		}
		age(t, s, d, ageS)
		return d
	}
	d0 := put(0, 100)
	size := fileSize(t, s, d0)
	s.SetMaxBytes(2*size + size/2)
	d1 := put(1, 50)
	if st := s.Stats(); st.Evictions != 0 {
		t.Fatalf("under-cap puts evicted: %+v", st)
	}
	d2 := put(2, 0)

	st := s.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (the overflow put)", st.Evictions)
	}
	if _, ok, _ := s.Get(d0); ok {
		t.Fatal("oldest entry survived the overflow")
	}
	for _, d := range []string{d1, d2} {
		if _, ok, _ := s.Get(d); !ok {
			t.Fatalf("entry %s evicted though it fit", d[:8])
		}
	}
}

// Quarantines are not evictions: a corrupt entry moved aside must count
// under Quarantined only, and quarantined bytes do not occupy capacity.
func TestQuarantineDoesNotCountAsEviction(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	good := []byte(`{"cell":"good"}`)
	bad := []byte(`{"cell":"bad"}`)
	gd, bd := digestOf(good), digestOf(bad)
	for d, p := range map[string][]byte{gd: good, bd: bad} {
		if err := s.Put(d, p); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt one entry on disk, then read it: quarantine path.
	if err := os.WriteFile(s.path(bd), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(bd); ok || err != nil {
		t.Fatalf("corrupt get: ok=%v err=%v", ok, err)
	}

	// A cap large enough for the surviving entry: the quarantined bytes
	// must neither count toward capacity nor be deleted by the scan.
	s.SetMaxBytes(2 * fileSize(t, s, gd))
	st := s.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
	if st.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0 — quarantines must not count as evictions", st.Evictions)
	}
	if _, ok, _ := s.Get(gd); !ok {
		t.Fatal("intact entry lost")
	}
	qdir := filepath.Join(s.Dir(), quarantineDir)
	entries, err := os.ReadDir(qdir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("quarantine dir entries = %d (%v), want 1 — eviction must not touch quarantine", len(entries), err)
	}
}

// The eviction scan counts in-flight temp files against the cap and
// removes only those old enough to be a killed writer's leftovers.
func TestEvictionScanReapsStaleTempFiles(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	put := func(i, ageS int) string {
		p := []byte(fmt.Sprintf(`{"cell":%d,"pad":"0123456789abcdef"}`, i))
		d := digestOf(p)
		if err := s.Put(d, p); err != nil {
			t.Fatal(err)
		}
		age(t, s, d, ageS)
		return d
	}
	d0 := put(0, 100)
	size := fileSize(t, s, d0)
	s.SetMaxBytes(2*size + size/2)
	d1 := put(1, 50)

	shard := filepath.Dir(s.path(d0))
	stale := filepath.Join(shard, tempPrefix+"stale")
	fresh := filepath.Join(shard, tempPrefix+"fresh")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, bytes.Repeat([]byte{'x'}, int(size)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	d2 := put(2, 0) // over the cap: runs the eviction scan

	if _, err := os.Stat(stale); err == nil {
		t.Error("stale temp file survived the eviction scan")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("live temp file removed: %v", err)
	}
	// Three entries plus the fresh temp file's bytes fit only once d0 and
	// d1 are gone; without counting the temp file, d1 would stay.
	if st := s.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2 (the fresh temp file counts against the cap)", st.Evictions)
	}
	for d, want := range map[string]bool{d0: false, d1: false, d2: true} {
		if _, ok, _ := s.Get(d); ok != want {
			t.Errorf("entry %s present=%v, want %v", d[:8], ok, want)
		}
	}
}
