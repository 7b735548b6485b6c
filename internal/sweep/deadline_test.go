package sweep

import (
	"context"
	"errors"
	"runtime"
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
// gate — a controllable stand-in for a slow disk, to catch a run's
// deadline striking mid-write.
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

// A run whose deadline passes while a cell's result is being persisted
// must never leave a partial CAS entry behind: before the write
// finishes the store reads as a clean miss, and once it finishes the
// entry is the complete, verifiable record — nothing in between.
func TestDeadlineMidDiskWriteNeverPersistsPartialEntry(t *testing.T) {
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

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, report, err := e.RunCellsWithOptions(ctx, []CellKey{k}, Options{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Failures) != 1 || report.Failures[0].Kind != FailCanceled ||
		!errors.Is(report.Failures[0].Err, context.DeadlineExceeded) {
		t.Fatalf("want one FailCanceled failure on the deadline, got %+v", report.Failures)
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
		t.Fatal("canceled cell's entry visible before its write completed")
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

// A warm grid costs the same under a cancellable context as under
// context.Background(): a settled cell returns its record without a
// goroutine or a channel, so serve's requests (whose contexts always
// carry a deadline) pay nothing extra per cell.
func TestSettledCellsAllocateNothingForCancellation(t *testing.T) {
	keys := normKeys(t, 24)
	e := fakeEngine(1, func(k CellKey) (Record, error) {
		return Record{GPUs: k.GPUs, TimeToTrainMin: 1}, nil
	})
	if _, _, err := e.RunCellsWithOptions(context.Background(), keys, Options{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	allocs := func(ctx context.Context) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, _, err := e.RunCellsWithOptions(ctx, keys, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	bg, cc := allocs(context.Background()), allocs(ctx)
	if cc > bg {
		t.Fatalf("warm grid allocates %.0f per run under a cancellable context, %.0f under Background", cc, bg)
	}
	st := e.Stats()
	if st.Simulations != st.Misses-st.Disk.Hits || st.Misses != int64(len(keys)) {
		t.Fatalf("settled lookups miscounted: %+v", st)
	}
}

// A cell that settled before the run's context fired keeps its record:
// cancelling once every cell has settled, while each worker is still
// waiting on its cell, returns every record, run after run.
func TestCancelAfterSettleReturnsEveryRecord(t *testing.T) {
	const n = 4
	keys := normKeys(t, n)
	for run := 0; run < 500; run++ {
		started := make(chan struct{}, n)
		gate := make(chan struct{})
		e := fakeEngine(n, func(k CellKey) (Record, error) {
			started <- struct{}{}
			<-gate
			return Record{GPUs: k.GPUs, TimeToTrainMin: 1}, nil
		})
		ctx, cancel := context.WithCancel(context.Background())
		type result struct {
			recs   []Record
			report *Report
		}
		out := make(chan result, 1)
		go func() {
			recs, report, _ := e.RunCellsWithOptions(ctx, keys, Options{Partial: true})
			out <- result{recs, report}
		}()
		for range n {
			<-started
		}
		close(gate)
		for _, k := range keys {
			for !e.settledForTest(k) {
				runtime.Gosched()
			}
		}
		cancel()
		r := <-out
		if r.report.Completed != n || r.report.Failed() {
			t.Fatalf("run %d: %d of %d cells completed after they all settled: %+v",
				run, r.report.Completed, n, r.report.Failures)
		}
		for i, rec := range r.recs {
			if rec.GPUs != keys[i].GPUs || rec.TimeToTrainMin != 1 {
				t.Fatalf("run %d: cell %d record %+v", run, i, rec)
			}
		}
	}
}

// settledForTest reports whether k's memo entry exists and has settled.
func (e *Engine) settledForTest(k CellKey) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	en, ok := e.cache.Get(k)
	return ok && en.settled.Load()
}
