package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mlperf/internal/telemetry"
)

// storeGrid is a small grid the disk-tier tests run repeatedly.
func storeGrid() Grid {
	return Grid{
		Benchmarks: []string{"res50_tf", "ncf_py"},
		Systems:    []string{"c4140k"},
		GPUCounts:  []int{1, 4},
	}
}

// TestDiskStoreRoundTrip is the cross-process replay story: one engine
// fills the store, a second engine (a stand-in for a fresh process over
// the same -cache-dir) replays the whole grid with zero simulations and
// byte-identical CSV.
func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := storeGrid()

	ds1, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewEngine(4)
	cold.SetStore(ds1)
	want, err := cold.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	st := cold.Stats()
	if st.Simulations != int64(len(want)) || st.Disk.Hits != 0 {
		t.Fatalf("cold run stats %+v, want %d simulations / 0 disk hits", st, len(want))
	}
	if n, err := ds1.Len(); err != nil || n != len(want) {
		t.Fatalf("store holds %d entries (%v), want %d", n, err, len(want))
	}

	// "New process": fresh engine, fresh store handle, same directory.
	ds2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewEngine(4)
	warm.SetStore(ds2)
	got, err := warm.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("disk replay differs from the original run")
	}
	st = warm.Stats()
	if st.Simulations != 0 {
		t.Errorf("warm run simulated %d cells, want 0 (stats %+v)", st.Simulations, st)
	}
	if st.Disk.Hits != int64(len(want)) || st.Misses != int64(len(want)) {
		t.Errorf("warm run stats %+v, want %d disk hits and %d memory misses", st, len(want), len(want))
	}

	// Byte-level contract: warm-disk CSV is identical to the sequential
	// reference path's.
	seq, err := RunSequential(g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvBytes(t, got), csvBytes(t, seq)) {
		t.Error("disk-replayed CSV differs from RunSequential")
	}
}

// The hardened pool replays a warm store too: a fresh engine's
// RunWithOptions over a filled directory simulates nothing and still
// produces the sequential reference bytes.
func TestWarmDiskReplayZeroSimulations(t *testing.T) {
	dir := t.TempDir()
	g := mixedGrid()
	seq, err := RunSequential(g)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*Engine, []Record) {
		t.Helper()
		ds, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(4)
		e.SetStore(ds)
		recs, _, err := e.RunWithOptions(context.Background(), g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return e, recs
	}
	if cold, _ := run(); cold.Stats().Simulations != int64(len(seq)) {
		t.Fatalf("cold run simulated %d cells, want %d", cold.Stats().Simulations, len(seq))
	}
	warm, recs := run()
	if !bytes.Equal(csvBytes(t, recs), csvBytes(t, seq)) {
		t.Error("disk-warm CSV differs from RunSequential")
	}
	if st := warm.Stats(); st.Simulations != 0 || st.Disk.Hits != int64(len(seq)) {
		t.Errorf("warm run stats %+v, want 0 simulations and %d disk hits", st, len(seq))
	}
}

// TestMissesMonotoneAcrossPromotions is the satellite regression test:
// Misses counts memory-tier misses monotonically whether the miss is
// answered by a simulation or promoted from the disk tier, and the
// accounting identity Simulations == Misses - Disk.Hits holds at every
// observation point.
func TestMissesMonotoneAcrossPromotions(t *testing.T) {
	dir := t.TempDir()
	g := storeGrid()

	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	seed := NewEngine(2)
	seed.SetStore(ds)
	recs, err := seed.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(recs))

	e := NewEngine(2)
	e.SetStore(ds)
	var last CacheStats
	check := func(stage string) CacheStats {
		t.Helper()
		st := e.Stats()
		if st.Misses < last.Misses || st.Hits < last.Hits || st.Simulations < last.Simulations {
			t.Errorf("%s: counters went backwards: %+v after %+v", stage, st, last)
		}
		if st.Simulations != st.Misses-st.Disk.Hits {
			t.Errorf("%s: identity violated: Simulations=%d, Misses=%d, Disk.Hits=%d",
				stage, st.Simulations, st.Misses, st.Disk.Hits)
		}
		last = st
		return st
	}

	if _, err := e.Run(g); err != nil { // every cell promotes from disk
		t.Fatal(err)
	}
	st := check("after disk-warm run")
	if st.Misses != n || st.Disk.Hits != n || st.Simulations != 0 {
		t.Errorf("disk-warm run stats %+v, want %d misses / %d disk hits / 0 simulations", st, n, n)
	}
	if _, err := e.Run(g); err != nil { // every cell hits memory now
		t.Fatal(err)
	}
	st = check("after memory-warm run")
	if st.Hits != n || st.Misses != n {
		t.Errorf("memory-warm run stats %+v, want %d hits / unchanged %d misses", st, n, n)
	}
	if st.Schema != KeySchema {
		t.Errorf("stats schema %d, want %d", st.Schema, KeySchema)
	}
}

// TestDiskStoreCorruptEntryIsMiss proves a damaged entry costs one
// re-simulation, never a wrong record: truncate one stored cell, rerun,
// results identical, corruption counted as a disk eviction.
func TestDiskStoreCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	g := storeGrid()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(2)
	e.SetStore(ds)
	want, err := e.Run(g)
	if err != nil {
		t.Fatal(err)
	}

	// Truncate the first cell's entry in place.
	d, err := (CellKey{Benchmark: "res50_tf", System: "c4140k", GPUs: 1}).Digest()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, d[:2], d)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	ds2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewEngine(2)
	fresh.SetStore(ds2)
	got, err := fresh.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("corrupted store changed results")
	}
	st := fresh.Stats()
	if st.Simulations != 1 {
		t.Errorf("simulated %d cells after one corruption, want exactly 1 (stats %+v)", st.Simulations, st)
	}
	if st.Disk.Quarantined != 1 {
		t.Errorf("disk quarantines %d, want 1 (stats %+v)", st.Disk.Quarantined, st)
	}
	if st.Disk.Evictions != 0 {
		t.Errorf("disk evictions %d, want 0 — quarantines are not evictions (stats %+v)", st.Disk.Evictions, st)
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*")); len(q) != 1 {
		t.Errorf("quarantine holds %d entries, want 1", len(q))
	}
	// The slot healed: the write-through re-stored the record.
	if _, ok, _ := ds2.Get(CellKey{Benchmark: "MLPf_Res50_TF", System: "C4140 (K)", GPUs: 1, Precision: "mixed"}); !ok {
		t.Error("re-simulated record was not written back to disk")
	}
}

// TestDiskStoreRejectsForeignCodec proves the strict record codec: an
// entry whose envelope is intact but whose payload speaks another codec
// version (or belongs to another key) is quarantined and re-simulated.
func TestDiskStoreRejectsForeignCodec(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, err := CellKey{Benchmark: "res50_tf", System: "c4140k", GPUs: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}

	// A payload from "the future": valid JSON, wrong codec version.
	future, err := json.Marshal(storedRecord{Codec: RecordCodec + 1, Key: k, Record: Record{Benchmark: "bogus"}})
	if err != nil {
		t.Fatal(err)
	}
	putRaw(t, ds, k, future)
	if _, ok, err := ds.Get(k); ok || err != nil {
		t.Errorf("foreign-codec entry: ok=%v err=%v, want a clean miss", ok, err)
	}

	// A record filed under the wrong digest (misattribution).
	other := k
	other.GPUs = 4
	misfiled, err := json.Marshal(storedRecord{Codec: RecordCodec, Key: other, Record: Record{Benchmark: "bogus"}})
	if err != nil {
		t.Fatal(err)
	}
	putRaw(t, ds, k, misfiled)
	if _, ok, err := ds.Get(k); ok || err != nil {
		t.Errorf("misfiled entry: ok=%v err=%v, want a clean miss", ok, err)
	}

	if st := ds.Stats(); st.Quarantined != 2 {
		t.Errorf("disk quarantines %d, want 2 (stats %+v)", st.Quarantined, st)
	}
}

// putRaw writes an arbitrary payload under k's digest, bypassing the
// record codec (simulating an entry written by different code).
func putRaw(t *testing.T, ds *DiskStore, k CellKey, payload []byte) {
	t.Helper()
	if err := ds.cas.Put(digestOf(k), payload); err != nil {
		t.Fatal(err)
	}
}

// TestEngineWithoutStoreUnchanged pins the nil-store contract: the
// disk-tier counters stay zero and behaviour is exactly the legacy
// single-tier engine's.
func TestEngineWithoutStoreUnchanged(t *testing.T) {
	e := NewEngine(2)
	if e.Store() != nil {
		t.Fatal("fresh engine has a store attached")
	}
	recs, err := e.Run(storeGrid())
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Disk != (TierStats{}) {
		t.Errorf("disk tier stats %+v without a store", st.Disk)
	}
	if st.Simulations != int64(len(recs)) || st.Misses != int64(len(recs)) {
		t.Errorf("stats %+v, want %d simulations == misses", st, len(recs))
	}
}

// failingStore is a persistent tier that never holds anything and
// fails the operations given an error.
type failingStore struct{ getErr, putErr error }

func (f failingStore) Get(CellKey) (Record, bool, error) { return Record{}, false, f.getErr }
func (f failingStore) Put(CellKey, Record) error         { return f.putErr }
func (f failingStore) Stats() TierStats                  { return TierStats{} }

// A failing store costs the engine nothing but speed: every answer is
// the sequential one, each failed Get and Put is counted once (in
// CacheStats.DiskErrors and under its op label), a failed Get is a disk
// miss, and the accounting identity holds.
func TestEngineCountsStoreErrors(t *testing.T) {
	g := storeGrid()
	want, err := RunSequential(g)
	if err != nil {
		t.Fatal(err)
	}
	cells := int64(len(want))
	disk := errors.New("disk gone")
	for _, tc := range []struct {
		name             string
		store            failingStore
		wantGet, wantPut int64
	}{
		{"get fails", failingStore{getErr: disk}, cells, 0},
		{"put fails", failingStore{putErr: disk}, 0, cells},
		{"both fail", failingStore{getErr: disk, putErr: disk}, cells, cells},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.New()
			e := NewEngine(4)
			e.SetTelemetry(reg)
			e.SetStore(tc.store)
			for run := 0; run < 2; run++ { // the second run is all memory hits
				got, err := e.Run(g)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d over a failing store differs from RunSequential", run)
				}
			}
			st := e.Stats()
			gets := reg.Counter(MetricDiskErrors, telemetry.L("op", "get")).Value()
			puts := reg.Counter(MetricDiskErrors, telemetry.L("op", "put")).Value()
			if gets != tc.wantGet || puts != tc.wantPut || st.DiskErrors != tc.wantGet+tc.wantPut {
				t.Errorf("disk errors get=%d put=%d total=%d, want %d, %d, %d",
					gets, puts, st.DiskErrors, tc.wantGet, tc.wantPut, tc.wantGet+tc.wantPut)
			}
			if st.Disk.Misses != cells || st.Simulations != st.Misses-st.Disk.Hits {
				t.Errorf("stats %+v: want %d disk misses and Simulations == Misses - Disk.Hits", st, cells)
			}
		})
	}
}

// A capacity-bounded disk tier evicts oldest entries on write-through,
// surfaces the count as TierStats.Evictions (distinct from
// Quarantined), and the engine transparently re-simulates evicted
// cells on the next run.
func TestDiskStoreCapacityEviction(t *testing.T) {
	dir := t.TempDir()
	g := storeGrid()

	probe, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1 := NewEngine(1)
	e1.SetStore(probe)
	want, err := e1.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	// Measure the store's full size, then cap it to roughly half: the
	// re-cap evicts the oldest entries immediately.
	var total int64
	if err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	probe.SetMaxBytes(total / 2)
	st := probe.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions after capping a full store at half size: %+v", st)
	}
	if st.Quarantined != 0 {
		t.Fatalf("capacity eviction counted as quarantine: %+v", st)
	}
	left, err := probe.Len()
	if err != nil {
		t.Fatal(err)
	}
	if left+int(st.Evictions) != len(want) {
		t.Fatalf("%d entries + %d evictions != %d cells", left, st.Evictions, len(want))
	}

	// A fresh engine over the shrunken store re-simulates exactly the
	// evicted cells and reproduces the run.
	ds2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(1)
	e2.SetStore(ds2)
	got, err := e2.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-eviction run differs from the original")
	}
	if sims := e2.Stats().Simulations; sims != st.Evictions {
		t.Fatalf("re-simulated %d cells, want the %d evicted ones", sims, st.Evictions)
	}
	// The engine's aggregated cache view carries the tier's evictions.
	if e1.Stats().Disk.Evictions != st.Evictions {
		t.Fatalf("engine cache stats lost the eviction count: %+v", e1.Stats().Disk)
	}
}

// AttachCache refuses a negative size cap and a cap without a
// directory, attaching nothing; a directory with a cap attaches a
// store.
func TestAttachCacheRefusesBadSettings(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name     string
		dir      string
		maxBytes int64
		want     string
	}{
		{"negative cap", dir, -1, "-cache-max-bytes must be >= 0"},
		{"cap without dir", "", 2048, "-cache-max-bytes requires -cache-dir"},
	} {
		e := NewEngine(1)
		err := e.AttachCache(tc.dir, tc.maxBytes)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
		if e.Store() != nil {
			t.Errorf("%s: a refused setting attached a store", tc.name)
		}
	}
	e := NewEngine(1)
	if err := e.AttachCache(dir, 2048); err != nil || e.Store() == nil {
		t.Fatalf("dir with a cap: err %v, store %v", err, e.Store())
	}
	if err := NewEngine(1).AttachCache("", 0); err != nil {
		t.Fatalf("memory-only: %v", err)
	}
}
