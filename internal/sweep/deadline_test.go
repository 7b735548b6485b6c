package sweep

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// A client deadline expiring mid-run must come back as a valid Partial
// report — the serve daemon's deadline-propagation contract:
// every completed cell's record is present, every other cell is a
// typed FailCanceled, and the arithmetic closes.
func TestClientDeadlineMidRunReturnsPartial(t *testing.T) {
	const n = 12
	keys := normKeys(t, n)

	// Deterministic interruption: the first three simulations complete
	// instantly, every later one parks on the gate. Cancellation fires
	// the moment the first simulation parks, so the run is guaranteed to
	// have real completions AND real cancellations — no timing sleeps.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	defer close(release)
	var calls atomic.Int32
	e := fakeEngine(2, func(k CellKey) (Record, error) {
		if calls.Add(1) <= 3 {
			return Record{Benchmark: k.Benchmark, System: k.System, GPUs: k.GPUs, TimeToTrainMin: 1}, nil
		}
		cancel()
		<-release
		return Record{Benchmark: k.Benchmark, System: k.System, GPUs: k.GPUs, TimeToTrainMin: 1}, nil
	})

	recs, report, err := e.RunCellsWithOptions(ctx, keys, Options{Partial: true})
	if err != nil {
		t.Fatalf("partial run must not fail wholesale: %v", err)
	}
	if !report.Canceled {
		t.Fatal("report.Canceled = false after mid-run cancellation")
	}
	if report.Cells != n {
		t.Fatalf("report.Cells = %d, want %d", report.Cells, n)
	}
	if report.Completed == 0 || report.Completed == n {
		t.Fatalf("completed %d of %d cells, want a genuine partial result", report.Completed, n)
	}
	if report.Completed+len(report.Failures) != n {
		t.Fatalf("accounting broken: %d completed + %d failed != %d cells",
			report.Completed, len(report.Failures), n)
	}
	failed := map[int]bool{}
	for _, ce := range report.Failures {
		if ce.Kind != FailCanceled {
			t.Errorf("cell %d failed as %s, want %s (deadline must read as cancellation, not error)",
				ce.Index, ce.Kind, FailCanceled)
		}
		if !errors.Is(ce.Err, context.Canceled) {
			t.Errorf("cell %d error %v does not wrap context.Canceled", ce.Index, ce.Err)
		}
		failed[ce.Index] = true
	}
	for i, rec := range recs {
		if failed[i] && rec.TimeToTrainMin != 0 {
			t.Errorf("canceled cell %d has a record: %+v", i, rec)
		}
		if !failed[i] && rec.TimeToTrainMin != 1 {
			t.Errorf("completed cell %d record missing: %+v", i, rec)
		}
	}
}

// gatedStore delays the disk tier's writes until the test releases the
// gate — a controllable stand-in for a slow disk, to catch a cell
// timeout striking mid-write.
type gatedStore struct {
	*DiskStore
	gate chan struct{}
	puts atomic.Int32
}

func (g *gatedStore) Put(k CellKey, rec Record) error {
	g.puts.Add(1)
	<-g.gate
	return g.DiskStore.Put(k, rec)
}

// A cell that times out while its result is being persisted must never
// leave a partial CAS entry behind: before the write finishes the
// store reads as a clean miss, and once it finishes the entry is the
// complete, verifiable record — nothing in between.
func TestCellTimeoutMidDiskWriteNeverPersistsPartialEntry(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	gs := &gatedStore{DiskStore: ds, gate: gate}

	k := normKeys(t, 1)[0]
	want := Record{Benchmark: k.Benchmark, System: k.System, GPUs: k.GPUs, TimeToTrainMin: 7}
	e := fakeEngine(1, func(CellKey) (Record, error) { return want, nil })
	e.SetStore(gs)

	_, report, err := e.RunCellsWithOptions(context.Background(), []CellKey{k},
		Options{CellTimeout: 20 * time.Millisecond, Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Failures) != 1 || report.Failures[0].Kind != FailTimeout {
		t.Fatalf("want one FailTimeout failure, got %+v", report.Failures)
	}
	// The simulation goroutine is now parked inside the store write. The
	// on-disk tier must not show a partial entry.
	if n := gs.puts.Load(); n != 1 {
		t.Fatalf("store saw %d writes, want exactly 1 in flight", n)
	}
	fresh, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := fresh.Get(k); ok {
		t.Fatal("timed-out cell's entry visible before its write completed")
	}
	if n, err := fresh.Len(); err != nil || n != 0 {
		t.Fatalf("store holds %d entries (err %v) mid-write, want 0", n, err)
	}

	// Release the write; the backgrounded simulation finishes the
	// persist. The entry must then be the full record — the CAS store's
	// atomic temp+rename means there is no observable partial state.
	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n, err := fresh.Len(); err == nil && n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("released write never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, ok, gerr := fresh.Get(k)
	if gerr != nil || !ok {
		t.Fatalf("Get after release: ok=%v err=%v", ok, gerr)
	}
	if got != want {
		t.Fatalf("persisted record %+v, want %+v", got, want)
	}
}
