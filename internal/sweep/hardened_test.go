package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mlperf/internal/fault"
	"mlperf/internal/sim"
	"mlperf/internal/telemetry"
)

// fakeEngine builds an engine whose cell evaluator is replaced, so the
// hardened machinery can be exercised without the simulator.
func fakeEngine(workers int, fn func(CellKey) (Record, error)) *Engine {
	e := NewEngine(workers)
	e.simulate = fn
	return e
}

// key builds a valid, normalizable cell key with a distinguishing GPU
// count (1..8, the DSS 8440's GPUs).
func key(gpus int) CellKey {
	return CellKey{Benchmark: "res50_tf", System: "dss8440", GPUs: gpus}
}

// normKeys fabricates n distinct normalized keys: GPU counts 1..8, then
// again with an explicit batch.
func normKeys(t *testing.T, n int) []CellKey {
	t.Helper()
	keys := make([]CellKey, n)
	for i := range keys {
		k := key(i%8 + 1)
		k.Batch = i / 8
		nk, err := k.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = nk
	}
	return keys
}

func TestValidateWorkers(t *testing.T) {
	cases := []struct {
		in      int
		want    int
		wantErr bool
	}{
		{in: -1, wantErr: true},
		{in: -100, wantErr: true},
		{in: 0, want: runtime.GOMAXPROCS(0)},
		{in: 1, want: 1},
		{in: 4, want: 4},
		{in: 1024, want: 1024},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("workers=%d", tc.in), func(t *testing.T) {
			got, err := ValidateWorkers(tc.in)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ValidateWorkers(%d) = %d, want error", tc.in, got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("ValidateWorkers(%d) = %d, want %d", tc.in, got, tc.want)
			}
		})
	}
}

// The acceptance scenario: a grid with one panicking cell and one cell
// still running at the run's deadline completes, returns every other
// cell's record, and reports both failures as typed CellErrors.
func TestPartialGridWithPanicAndTimeout(t *testing.T) {
	keys := normKeys(t, 6)
	panicKey, slowKey := keys[1], keys[4]
	release := make(chan struct{})
	defer close(release)
	e := fakeEngine(4, func(k CellKey) (Record, error) {
		switch k {
		case panicKey:
			panic("injected cell panic")
		case slowKey:
			<-release
		}
		return Record{Benchmark: k.Benchmark, System: k.System, GPUs: k.GPUs, TimeToTrainMin: 1}, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	recs, report, err := e.RunCellsWithOptions(ctx, keys, Options{Partial: true})
	if err != nil {
		t.Fatalf("partial run must not fail wholesale: %v", err)
	}
	if len(recs) != 6 || report.Cells != 6 {
		t.Fatalf("got %d records over %d cells, want 6/6", len(recs), report.Cells)
	}
	if report.Completed != 4 || len(report.Failures) != 2 {
		t.Fatalf("completed %d failures %d, want 4 and 2\nreport: %+v", report.Completed, len(report.Failures), report)
	}
	for i, rec := range recs {
		failed := i == 1 || i == 4
		if !failed && rec.TimeToTrainMin != 1 {
			t.Errorf("cell %d record missing: %+v", i, rec)
		}
		if failed && rec.TimeToTrainMin != 0 {
			t.Errorf("failed cell %d has a record: %+v", i, rec)
		}
	}
	byIndex := map[int]*CellError{}
	for _, ce := range report.Failures {
		byIndex[ce.Index] = ce
	}
	if ce := byIndex[1]; ce == nil || ce.Kind != FailPanic {
		t.Errorf("cell 1 = %+v, want a FailPanic CellError", ce)
	} else {
		var p *PanicError
		if !errors.As(ce.Err, &p) || len(p.Stack) == 0 {
			t.Errorf("panic error lost its stack: %v", ce.Err)
		}
	}
	if ce := byIndex[4]; ce == nil || ce.Kind != FailCanceled {
		t.Errorf("cell 4 = %+v, want a FailCanceled CellError", ce)
	} else if !errors.Is(ce.Err, context.DeadlineExceeded) {
		t.Errorf("deadline error not errors.Is(context.DeadlineExceeded): %v", ce.Err)
	}
	if report.Err() == nil {
		t.Error("Report.Err() must summarize the failures")
	}
}

// Without Partial, the run fails with the lowest-index cell error —
// the same deterministic error a sequential loop would stop at. Engine.Run
// takes the same pool: over the same grid it returns the same
// *CellError, wrapping the cell's own error, and counts both failures.
func TestNonPartialReturnsFirstFailure(t *testing.T) {
	g := Grid{Benchmarks: []string{"res50_tf"}, Systems: []string{"dss8440"}, GPUCounts: []int{1, 2, 3, 4, 5}}
	keys, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	boom1 := errors.New("boom-1")
	simulate := func(k CellKey) (Record, error) {
		if k == keys[3] {
			return Record{}, fmt.Errorf("boom-3")
		}
		if k == keys[1] {
			return Record{}, boom1
		}
		return Record{TimeToTrainMin: 1}, nil
	}
	_, _, err = fakeEngine(4, simulate).RunCellsWithOptions(context.Background(), keys, Options{})
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CellError", err)
	}
	if ce.Index != 1 || ce.Kind != FailError {
		t.Errorf("got cell %d kind %s, want the lowest-index failure (1, error)", ce.Index, ce.Kind)
	}

	reg := telemetry.New()
	e := fakeEngine(4, simulate)
	e.SetTelemetry(reg)
	recs, err := e.Run(g)
	ce = nil
	if recs != nil || !errors.As(err, &ce) || !errors.Is(err, boom1) {
		t.Fatalf("Run = %v, %v; want no records and a *CellError wrapping boom-1", recs, err)
	}
	if ce.Index != 1 || ce.Kind != FailError {
		t.Errorf("Run: got cell %d kind %s, want the lowest-index failure (1, error)", ce.Index, ce.Kind)
	}
	if got := reg.Counter(MetricFailures, telemetry.L("kind", "error")).Value(); got != 2 {
		t.Errorf("Run counted %d failures, want 2", got)
	}
}

// Every cell gets exactly one attempt, however it fails: a failing
// cell, a panicking cell and a cell still running at the deadline each
// reach the simulate seam once. The simulator is deterministic, so a
// second attempt could only redo the same work.
func TestPermanentErrorsNotRetried(t *testing.T) {
	keys := normKeys(t, 3)
	failKey, panicKey := keys[0], keys[1]
	release := make(chan struct{})
	var calls [3]atomic.Int64
	e := fakeEngine(3, func(k CellKey) (Record, error) {
		switch k {
		case failKey:
			calls[0].Add(1)
			return Record{}, fmt.Errorf("deterministic failure")
		case panicKey:
			calls[1].Add(1)
			panic("deterministic panic")
		default:
			calls[2].Add(1)
			<-release
			return Record{TimeToTrainMin: 1}, nil
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, report, err := e.RunCellsWithOptions(ctx, keys, Options{Partial: true})
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	want := []FailKind{FailError, FailPanic, FailCanceled}
	if len(report.Failures) != len(want) {
		t.Fatalf("report: %+v", report)
	}
	for i, ce := range report.Failures {
		if ce.Index != i || ce.Kind != want[i] {
			t.Errorf("failure %d = cell %d kind %s, want cell %d kind %s", i, ce.Index, ce.Kind, i, want[i])
		}
		if got := calls[i].Load(); got != 1 {
			t.Errorf("%s cell reached simulate %d times, want 1", want[i], got)
		}
	}
	if sims := e.Stats().Simulations; sims != 3 {
		t.Errorf("Simulations = %d, want 3 (one per cell)", sims)
	}
}

// Cancellation mid-grid stops scheduling: unattempted cells come back
// as FailCanceled carrying the context's cause.
func TestCancellationMarksRemainingCells(t *testing.T) {
	keys := normKeys(t, 8)
	cause := fmt.Errorf("operator abort")
	ctx, cancel := context.WithCancelCause(context.Background())
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	e := fakeEngine(1, func(k CellKey) (Record, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return Record{TimeToTrainMin: 1}, nil
	})
	done := make(chan struct{})
	var report *Report
	go func() {
		defer close(done)
		_, report, _ = e.RunCellsWithOptions(ctx, keys, Options{Partial: true})
	}()
	<-started
	cancel(cause)
	close(release)
	<-done

	if !report.Canceled {
		t.Fatal("report must mark the run canceled")
	}
	canceled := 0
	for _, ce := range report.Failures {
		if ce.Kind == FailCanceled {
			canceled++
			if !errors.Is(ce.Err, cause) {
				t.Errorf("canceled cell lost the cancellation cause: %v", ce.Err)
			}
		}
	}
	if canceled == 0 {
		t.Error("no cells marked canceled after mid-grid cancellation")
	}
	if report.Completed+len(report.Failures) != len(keys) {
		t.Errorf("cells unaccounted for: %d + %d != %d", report.Completed, len(report.Failures), len(keys))
	}
}

// A cell still running at the run's deadline keeps simulating in the
// background; its result settles into the memo cache and a later
// request gets it instantly, through the engine and through a second
// hardened run alike, without simulating the cell again.
func TestTimeoutLeavesResultInCache(t *testing.T) {
	keys := normKeys(t, 1)
	release := make(chan struct{})
	e := fakeEngine(1, func(k CellKey) (Record, error) {
		<-release
		return Record{TimeToTrainMin: 7}, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, report, _ := e.RunCellsWithOptions(ctx, keys, Options{Partial: true})
	if len(report.Failures) != 1 || report.Failures[0].Kind != FailCanceled ||
		!errors.Is(report.Failures[0].Err, context.DeadlineExceeded) {
		t.Fatalf("report: %+v", report)
	}
	type result struct {
		recs   []Record
		report *Report
		err    error
	}
	again := make(chan result, 1)
	go func() { // re-requested while the timed-out simulation still runs
		recs, report, err := e.RunCellsWithOptions(context.Background(), keys, Options{Partial: true})
		again <- result{recs, report, err}
	}()
	close(release)
	r := <-again
	if r.err != nil || r.report.Failed() || r.recs[0].TimeToTrainMin != 7 {
		t.Errorf("re-request: %+v, %+v, %v; want the background result", r.recs, r.report, r.err)
	}
	rec, err := e.cell(keys[0], 0)
	if err != nil || rec.TimeToTrainMin != 7 {
		t.Errorf("background result lost: %+v, %v", rec, err)
	}
	if sims := e.Stats().Simulations; sims != 1 {
		t.Errorf("Simulations = %d, want 1: the re-request must join the background result", sims)
	}
}

// Satellite 2 (sweep half): the same fault plan must produce identical
// records regardless of worker count — 1, 4 and 16 workers, hardened
// or plain, all byte-identical to the sequential reference.
func TestFaultedSweepDeterministicAcrossWorkers(t *testing.T) {
	plan := &fault.Plan{
		Seed:       11,
		Stragglers: []fault.Straggler{{Lane: "gpu", Factor: 1.5}},
		Transients: []fault.Transient{{Lane: "compute", Prob: 0.2, RetryCost: 0.005}},
	}
	canon, err := plan.Canon()
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{
		Benchmarks: []string{"res50_tf", "ncf_py"},
		Systems:    []string{"dss8440"},
		GPUCounts:  []int{1, 2, 4},
		Faults:     canon,
	}
	want, err := RunSequential(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 16} {
		e := NewEngine(workers)
		got, err := e.Run(g)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d workers: %d records, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%d workers, cell %d differs:\n%+v\n%+v", workers, i, got[i], want[i])
			}
		}
		// The hardened path must agree too.
		hard, report, err := e.RunWithOptions(context.Background(), g, Options{})
		if err != nil || report.Failed() {
			t.Fatalf("%d workers hardened: %v %+v", workers, err, report)
		}
		for i := range want {
			if hard[i] != want[i] {
				t.Errorf("%d workers hardened, cell %d differs", workers, i)
			}
		}
	}
}

// Grid.Faults with an invalid plan fails expansion up front.
func TestGridFaultsValidated(t *testing.T) {
	_, err := RunSequential(Grid{
		Benchmarks: []string{"res50_tf"},
		Faults:     `{"Stragglers":[{"Lane":"gpu","Factor":-2}]}`,
	})
	if err == nil {
		t.Fatal("invalid grid fault plan accepted")
	}
}

// mixedGrid is an 18-cell grid, large enough that 16 workers all see
// real work.
func mixedGrid() Grid {
	return Grid{
		Benchmarks: []string{"res50_tf", "ncf_py", "xfmr_py"},
		Systems:    []string{"dss8440", "c4140k"},
		GPUCounts:  []int{1, 2, 4},
	}
}

// The hardened pool is the serving tier's grid executor, so it carries
// its own byte-identity proof: at 1, 4 and 16 workers its CSV equals
// RunSequential's.
func TestRunWithOptionsMatchesSequential(t *testing.T) {
	g := mixedGrid()
	seq, err := RunSequential(g)
	if err != nil {
		t.Fatal(err)
	}
	want := csvBytes(t, seq)
	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			recs, report, err := NewEngine(workers).RunWithOptions(context.Background(), g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(csvBytes(t, recs), want) {
				t.Error("RunWithOptions CSV differs from RunSequential")
			}
			if report.Completed != len(seq) || report.Failed() {
				t.Errorf("report %+v, want %d completed and no failures", report, len(seq))
			}
		})
	}
}

// On the real grid with more workers than failing cells, a non-Partial
// run still reports the lowest-index failure, and a Partial run returns
// every survivor.
func TestFirstFailureDeterministicOnRealGrid(t *testing.T) {
	keys, err := mixedGrid().Cells()
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	fail := map[CellKey]bool{keys[3]: true, keys[7]: true}
	simulate := func(k CellKey) (Record, error) {
		if fail[k] {
			return Record{}, boom
		}
		return runCell(k, sim.FastPathAuto)
	}
	_, report, err := fakeEngine(8, simulate).RunCellsWithOptions(context.Background(), keys, Options{})
	var ce *CellError
	if !errors.As(err, &ce) || ce.Index != 3 {
		t.Errorf("error %v, want the lowest-index CellError (index 3)", err)
	}
	if len(report.Failures) != 2 {
		t.Errorf("report holds %d failures, want 2", len(report.Failures))
	}
	ce = nil
	if _, err := fakeEngine(8, simulate).Run(mixedGrid()); !errors.As(err, &ce) || ce.Index != 3 || !errors.Is(err, boom) {
		t.Errorf("Run error %v, want the lowest-index CellError (index 3) wrapping boom", err)
	}

	recs, report, err := fakeEngine(8, simulate).RunCellsWithOptions(context.Background(), keys, Options{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != len(keys)-2 || len(recs) != len(keys) {
		t.Errorf("partial run completed %d of %d", report.Completed, len(keys))
	}
}

// A run whose context is canceled before it starts returns at once with
// a canceled report and every cell marked canceled.
func TestPreCanceledContextMarksEveryCell(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, report, err := NewEngine(2).RunWithOptions(ctx, mixedGrid(), Options{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Canceled || report.Completed != 0 || len(report.Failures) != report.Cells {
		t.Fatalf("report %+v, want every cell canceled", report)
	}
	for _, f := range report.Failures {
		if f.Kind != FailCanceled {
			t.Errorf("failure %v kind %s, want canceled", f, f.Kind)
		}
	}
}
