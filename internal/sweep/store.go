package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"

	"mlperf/internal/cas"
)

// RecordCodec is the serialization schema version of on-disk cell
// records. Decoding is strict — unknown fields, a version mismatch or a
// key that does not round-trip to the requested digest all reject the
// entry — so a Record struct change bumps this constant and old entries
// become clean misses instead of half-decoded garbage.
const RecordCodec = 1

// Store is the pluggable persistent tier behind the engine's in-memory
// singleflight map: consulted on a memory miss before simulating, and
// written through after every successful simulation. Implementations
// must be safe for concurrent use, must only return records they can
// verify, and must never store failures — errors are process-local,
// results are forever.
//
// Get and Put report environmental errors (unreadable directory, full
// disk) so the engine can tell "not cached" from "cache down" and count
// the latter (CacheStats.DiskErrors). A doubtful entry is a miss with a
// nil error, never an error. The engine reads any error as a miss or a
// dropped write: the tier is an accelerator, so its failures must not
// fail the sweep.
type Store interface {
	// Get returns the stored record for a normalized key, if present;
	// ok is false whenever err is not nil.
	Get(k CellKey) (rec Record, ok bool, err error)
	// Put stores the record for a normalized key.
	Put(k CellKey, rec Record) error
	// Stats reports the tier's Evictions and Quarantined; the engine
	// counts the tier's hits and misses itself and reads nothing else.
	Stats() TierStats
}

// TierStats counts one cache tier's traffic. All counters are monotone.
type TierStats struct {
	// Hits counts lookups answered by this tier.
	Hits int64
	// Misses counts lookups this tier could not answer.
	Misses int64
	// Evictions counts intact entries this tier deliberately dropped —
	// generation rotations for the memory tier, capacity evictions for
	// a bounded disk tier. Corrupt entries are NOT evictions; they
	// are counted under Quarantined.
	Evictions int64
	// Quarantined counts entries this tier removed because they failed
	// verification (envelope corruption, foreign codec, key mismatch) —
	// the disk tier's quarantine/ traffic. Always 0 for the memory tier.
	Quarantined int64
}

// storedRecord is the on-disk envelope payload: codec version, the
// normalized key (for verification — a misfiled or stale entry must not
// be attributed to the wrong cell) and the record itself.
type storedRecord struct {
	Codec  int     `json:"codec"`
	Key    CellKey `json:"key"`
	Record Record  `json:"record"`
}

// DiskStore adapts the content-addressed blob store into the engine's
// persistent tier: keys address entries by their canonical digest and
// records travel in the strict versioned codec above. A DiskStore can
// be shared by concurrent sweeps in one process and — via the underlying
// store's atomic writes — by multiple processes over one directory,
// which is what turns repeated paper-scale grids into near-free replays.
type DiskStore struct {
	cas *cas.Store
}

// OpenDiskStore opens (creating if needed) the persistent cell-record
// tier rooted at dir.
func OpenDiskStore(dir string) (*DiskStore, error) {
	s, err := cas.Open(dir)
	if err != nil {
		return nil, err
	}
	return &DiskStore{cas: s}, nil
}

// Dir returns the store's root directory.
func (d *DiskStore) Dir() string { return d.cas.Dir() }

// SetMaxBytes caps the tier's on-disk size; past it the oldest entries
// are evicted on write-through (counted in TierStats.Evictions).
// n <= 0 removes the cap.
func (d *DiskStore) SetMaxBytes(n int64) { d.cas.SetMaxBytes(n) }

// Get implements Store. A defective entry — corrupt envelope, codec
// mismatch, key mismatch — is a clean miss (err == nil); entries that
// passed the envelope checksum but fail the record codec are
// quarantined like corrupt ones. An unreadable directory or failing
// disk reports its error.
func (d *DiskStore) Get(k CellKey) (Record, bool, error) {
	digest := digestOf(k)
	payload, ok, err := d.cas.Get(digest)
	if err != nil || !ok {
		return Record{}, false, err
	}
	rec, derr := decodeRecord(payload, k)
	if derr != nil {
		// The envelope was intact but the payload is from another codec
		// era (or another key): evict it so the slot heals on re-put.
		d.cas.Quarantine(digest)
		return Record{}, false, nil
	}
	return rec, true, nil
}

// Put implements Store, reporting write errors (full disk,
// permissions).
func (d *DiskStore) Put(k CellKey, rec Record) error {
	payload, err := json.Marshal(storedRecord{Codec: RecordCodec, Key: k, Record: rec})
	if err != nil {
		return err
	}
	return d.cas.Put(digestOf(k), payload)
}

// Stats implements Store with the blob store's Evictions and
// Quarantined; Hits and Misses stay 0, because the engine counts the
// tier's lookups itself. Quarantines (corrupt, foreign-codec or
// misfiled entries moved aside) are distinct from Evictions (capacity
// decisions about intact entries) — the two used to be conflated,
// which made a corruption storm read as a capacity problem.
func (d *DiskStore) Stats() TierStats {
	st := d.cas.Stats()
	return TierStats{Evictions: st.Evictions, Quarantined: st.Quarantined}
}

// Len reports how many intact entries the store holds (inspection
// helper for CLIs and tests).
func (d *DiskStore) Len() (int, error) { return d.cas.Len() }

// decodeRecord strictly decodes a stored record destined for key k.
func decodeRecord(payload []byte, k CellKey) (Record, error) {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	var sr storedRecord
	if err := dec.Decode(&sr); err != nil {
		return Record{}, fmt.Errorf("sweep: bad stored record: %w", err)
	}
	if dec.More() {
		return Record{}, fmt.Errorf("sweep: trailing data after stored record")
	}
	if sr.Codec != RecordCodec {
		return Record{}, fmt.Errorf("sweep: stored record codec %d, want %d", sr.Codec, RecordCodec)
	}
	if sr.Key != k {
		return Record{}, fmt.Errorf("sweep: stored record key %+v does not match requested %+v", sr.Key, k)
	}
	return sr.Record, nil
}
