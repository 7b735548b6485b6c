package sweep

// Race-detector stress for the hardened execution paths: many
// goroutines driving cancellation mid-grid, deadlines racing cell
// completion, and panicking workers, all against the shared memo
// cache. Run with `go test -race ./internal/sweep/`.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stressKeys fabricates n distinct normalized keys.
func stressKeys(t testing.TB, n int) []CellKey {
	t.Helper()
	var keys []CellKey
	for _, bench := range []string{"res50_tf", "ncf_py", "gnmt_py", "xfmr_py"} {
		for g := 1; g <= (n+3)/4; g++ {
			nk, err := (CellKey{Benchmark: bench, System: "dss8440", GPUs: g}).Normalize()
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, nk)
			if len(keys) == n {
				return keys
			}
		}
	}
	return keys
}

// Cancel mid-grid from a racing goroutine, repeatedly, with workers
// actively pulling cells.
func TestStressCancelMidGrid(t *testing.T) {
	keys := stressKeys(t, 32)
	for round := 0; round < 20; round++ {
		var calls atomic.Int64
		e := fakeEngine(8, func(k CellKey) (Record, error) {
			calls.Add(1)
			time.Sleep(time.Duration(k.GPUs) * 100 * time.Microsecond)
			return Record{TimeToTrainMin: float64(k.GPUs)}, nil
		})
		ctx, cancel := context.WithCancelCause(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(round) * 200 * time.Microsecond)
			cancel(fmt.Errorf("round %d abort", round))
		}()
		recs, report, err := e.RunCellsWithOptions(ctx, keys, Options{Partial: true})
		wg.Wait()
		if err != nil {
			t.Fatalf("round %d: partial run errored: %v", round, err)
		}
		if len(recs) != len(keys) || report.Cells != len(keys) {
			t.Fatalf("round %d: %d records / %d cells", round, len(recs), report.Cells)
		}
		if report.Completed+len(report.Failures) != len(keys) {
			t.Fatalf("round %d: %d completed + %d failed != %d",
				round, report.Completed, len(report.Failures), len(keys))
		}
		// Every completed record must be fully written (no torn writes).
		failed := map[int]bool{}
		for _, ce := range report.Failures {
			failed[ce.Index] = true
		}
		for i, rec := range recs {
			if !failed[i] && rec.TimeToTrainMin != float64(keys[i].GPUs) {
				t.Fatalf("round %d: cell %d torn or missing: %+v", round, i, rec)
			}
		}
		cancel(nil)
	}
}

// A run's deadline racing completion: cell durations straddle the
// deadline so the select between result and context is contended both
// ways; late results settle into the cache concurrently with other
// cells' lookups.
func TestStressTimeoutRacesCompletion(t *testing.T) {
	keys := stressKeys(t, 16)
	const deadline = 3 * time.Millisecond
	for round := 0; round < 10; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		durs := make(map[CellKey]time.Duration, len(keys))
		for _, k := range keys {
			durs[k] = time.Duration(rng.Int63n(int64(2 * deadline)))
		}
		e := fakeEngine(8, func(k CellKey) (Record, error) {
			time.Sleep(durs[k])
			return Record{TimeToTrainMin: 1}, nil
		})
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		recs, report, err := e.RunCellsWithOptions(ctx, keys, Options{Partial: true})
		cancel()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if report.Completed+len(report.Failures) != len(keys) {
			t.Fatalf("round %d: %d completed + %d failed != %d",
				round, report.Completed, len(report.Failures), len(keys))
		}
		for _, ce := range report.Failures {
			if ce.Kind != FailCanceled || !errors.Is(ce.Err, context.DeadlineExceeded) {
				t.Fatalf("round %d: unexpected failure kind %s: %v", round, ce.Kind, ce)
			}
		}
		failed := map[int]bool{}
		for _, ce := range report.Failures {
			failed[ce.Index] = true
		}
		for i, rec := range recs {
			if !failed[i] && rec.TimeToTrainMin != 1 {
				t.Fatalf("round %d: completed cell %d empty", round, i)
			}
		}
	}
}

// Panicking workers under full concurrency: a subset of cells panic,
// each panic is contained to its cell, and the pool keeps all other
// cells flowing.
func TestStressPanicInWorkers(t *testing.T) {
	keys := stressKeys(t, 24)
	var tries sync.Map // CellKey -> *atomic.Int64
	e := fakeEngine(8, func(k CellKey) (Record, error) {
		v, _ := tries.LoadOrStore(k, new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
		if k.GPUs%3 == 0 {
			panic(fmt.Sprintf("panic on %s@%d", k.Benchmark, k.GPUs))
		}
		return Record{TimeToTrainMin: 1}, nil
	})
	recs, report, err := e.RunCellsWithOptions(context.Background(), keys, Options{Partial: true})
	if err != nil {
		t.Fatalf("panics must be contained: %v", err)
	}
	failed := map[int]bool{}
	for _, ce := range report.Failures {
		if ce.Kind != FailPanic || keys[ce.Index].GPUs%3 != 0 {
			t.Fatalf("unexpected failure: %v", ce)
		}
		failed[ce.Index] = true
	}
	for i, rec := range recs {
		if want := keys[i].GPUs%3 == 0; failed[i] != want || (!want && rec.TimeToTrainMin != 1) {
			t.Fatalf("cell %d: failed=%v record %+v", i, failed[i], rec)
		}
	}
	tries.Range(func(k, v any) bool {
		if n := v.(*atomic.Int64).Load(); n != 1 {
			t.Errorf("cell %v simulated %d times, want 1", k, n)
		}
		return true
	})
}

// Hardened runs sharing one engine from many goroutines: the memo
// cache and the once-guarded entries must stay coherent.
func TestStressConcurrentHardenedRuns(t *testing.T) {
	keys := stressKeys(t, 12)
	var calls atomic.Int64
	e := fakeEngine(4, func(k CellKey) (Record, error) {
		calls.Add(1)
		time.Sleep(50 * time.Microsecond)
		return Record{TimeToTrainMin: float64(k.GPUs)}, nil
	})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			recs, report, err := e.RunCellsWithOptions(ctx, keys, Options{})
			if err != nil {
				errs[i] = err
				return
			}
			if report.Completed != len(keys) {
				errs[i] = fmt.Errorf("completed %d of %d", report.Completed, len(keys))
				return
			}
			for j, rec := range recs {
				if rec.TimeToTrainMin != float64(keys[j].GPUs) {
					errs[i] = fmt.Errorf("cell %d wrong: %+v", j, rec)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("run %d: %v", i, err)
		}
	}
}
