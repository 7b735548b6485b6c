package sweep

import (
	"bytes"
	"testing"

	"mlperf/internal/fault"
	"mlperf/internal/sim"
)

// fastPathGrids returns the grids the cross-path battery runs: a clean
// multi-benchmark scaling grid, a faulted grid that qualifies for the
// hybrid fast path (fault effects confined to the warm-up prefix), and a
// faulted grid that forces per-cell fallback (randomized transient
// retries perturb every step).
func fastPathGrids(t *testing.T) map[string]Grid {
	t.Helper()
	warmup, err := (&fault.Plan{Stragglers: []fault.Straggler{
		{Lane: "compute", Factor: 1.8, FromStep: 1, ToStep: 5}}}).Canon()
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := (&fault.Plan{Seed: 11, Transients: []fault.Transient{
		{Lane: "h2d", Prob: 0.3, RetryCost: 0.002}}}).Canon()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Grid{
		"clean": {
			Benchmarks: []string{"res50_tf", "gnmt_py"},
			Systems:    []string{"dss8440"},
			GPUCounts:  []int{1, 4, 8},
		},
		"warmup-faults":   {Benchmarks: []string{"res50_tf"}, GPUCounts: []int{2, 4}, Faults: warmup},
		"fallback-faults": {Benchmarks: []string{"res50_tf"}, GPUCounts: []int{2, 4}, Faults: fallback},
	}
}

// modeEngine is an engine whose cells run under the given fast-path
// mode instead of the production sim.FastPathAuto.
func modeEngine(workers int, mode sim.FastPathMode) *Engine {
	return fakeEngine(workers, func(k CellKey) (Record, error) { return RunCell(k, mode) })
}

// recordsCSV renders records to the exact bytes WriteCSV emits.
func recordsCSV(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The engine contract extended across the fast path: for every grid, the
// CSV an engine produces must be byte-identical to the sequential
// step-by-step reference, whatever the worker count (1/4/16) and
// whatever the fast-path mode — Auto everywhere, and Off as the control.
// RunSequential pins FastPathOff, so equality is a cross-path proof, not
// just a scheduling one.
func TestEngineFastPathEquivalence(t *testing.T) {
	for name, g := range fastPathGrids(t) {
		t.Run(name, func(t *testing.T) {
			ref, err := RunSequential(g)
			if err != nil {
				t.Fatal(err)
			}
			want := recordsCSV(t, ref)
			for _, workers := range []int{1, 4, 16} {
				for _, mode := range []sim.FastPathMode{sim.FastPathOff, sim.FastPathAuto} {
					recs, err := modeEngine(workers, mode).Run(g)
					if err != nil {
						t.Fatalf("workers=%d mode=%v: %v", workers, mode, err)
					}
					if got := recordsCSV(t, recs); !bytes.Equal(got, want) {
						t.Fatalf("workers=%d mode=%v: CSV diverged from sequential reference",
							workers, mode)
					}
				}
			}
		})
	}
}

// Forced fast path through the engine: clean and warm-up-faulted grids
// must still match the reference byte for byte, and the fallback grid
// must surface the typed refusal rather than silently degrading.
func TestEngineFastPathForce(t *testing.T) {
	grids := fastPathGrids(t)
	for _, name := range []string{"clean", "warmup-faults"} {
		g := grids[name]
		ref, err := RunSequential(g)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := modeEngine(4, sim.FastPathForce).Run(g)
		if err != nil {
			t.Fatalf("%s: forced engine: %v", name, err)
		}
		if !bytes.Equal(recordsCSV(t, recs), recordsCSV(t, ref)) {
			t.Fatalf("%s: forced engine CSV diverged from sequential reference", name)
		}
	}

	if _, err := modeEngine(2, sim.FastPathForce).Run(grids["fallback-faults"]); err == nil {
		t.Fatal("forcing the fast path on a divergent grid should fail")
	}
}
