package sweep

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// csvBytes renders records the way callers consume them, so equivalence
// is judged on the externally visible bytes, not just struct equality.
func csvBytes(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomGrid draws a small grid over the full configuration space,
// including short-form names, infeasible GPU counts and batch overrides.
func randomGrid(rng *rand.Rand) Grid {
	pick := func(opts []string, max int) []string {
		n := 1 + rng.Intn(max)
		out := make([]string, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, opts[rng.Intn(len(opts))])
		}
		return out
	}
	benches := []string{"res50_tf", "res50_mx", "ssd_py", "ncf_py", "MLPf_XFMR_Py", "dawn_res18_py", "Deep_GEMM_Cu"}
	systems := []string{"t640", "c4140b", "c4140k", "c4140m", "r940xa", "dss8440", "dgx1"}
	gpuOpts := []int{1, 2, 4, 8}
	g := Grid{
		Benchmarks: pick(benches, 2),
		Systems:    pick(systems, 2),
		Precisions: pick([]string{"", "fp32", "mixed"}, 2),
	}
	for i := 0; i < 1+rng.Intn(2); i++ {
		g.GPUCounts = append(g.GPUCounts, gpuOpts[rng.Intn(len(gpuOpts))])
	}
	if rng.Intn(2) == 0 {
		g.BatchPerGPU = []int{0, 16 << rng.Intn(4)}
	}
	return g
}

// TestParallelMatchesSequential is the property-based equivalence proof:
// for random grids, the engine's output at 1, 4 and 16 workers is
// byte-identical (order and values) to the sequential reference path.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(20200405)) // ISPASS 2020
	for trial := 0; trial < 10; trial++ {
		g := randomGrid(rng)
		name := fmt.Sprintf("trial%d", trial)
		want, seqErr := RunSequential(g)
		for _, workers := range []int{1, 4, 16} {
			got, err := NewEngine(workers).Run(g)
			if (err == nil) != (seqErr == nil) {
				t.Fatalf("%s workers=%d: err %v, sequential err %v (grid %+v)", name, workers, err, seqErr, g)
			}
			if seqErr != nil {
				if err.Error() != seqErr.Error() {
					t.Errorf("%s workers=%d: err %q != sequential %q", name, workers, err, seqErr)
				}
				continue
			}
			if !bytes.Equal(csvBytes(t, got), csvBytes(t, want)) {
				t.Errorf("%s workers=%d: parallel CSV differs from sequential (grid %+v)", name, workers, g)
			}
		}
	}
}

// TestParallelMatchesSequentialTableIVGrid pins the headline case: the
// Table IV-sized grid the benchmark measures is byte-identical across
// execution modes.
func TestParallelMatchesSequentialTableIVGrid(t *testing.T) {
	g := tableIVGrid()
	want, err := RunSequential(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEngine(0).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvBytes(t, got), csvBytes(t, want)) {
		t.Error("parallel Table IV grid differs from sequential")
	}
}

// TestCacheReturnsIdenticalRecords proves the memo cache is behaviourally
// invisible: cached replays and fresh engines produce identical records,
// and the hit counter accounts for every duplicate request.
func TestCacheReturnsIdenticalRecords(t *testing.T) {
	g := Grid{
		Benchmarks: []string{"res50_tf", "ncf_py"},
		Systems:    []string{"c4140k"},
		GPUCounts:  []int{1, 4},
	}
	e := NewEngine(4)
	first, err := e.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Misses != int64(len(first)) || st.Hits != 0 {
		t.Errorf("after first run: stats %+v, want %d misses / 0 hits", st, len(first))
	}
	second, err := e.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached rerun differs from original")
	}
	st = e.Stats()
	if st.Misses != int64(len(first)) || st.Hits != int64(len(first)) {
		t.Errorf("after rerun: stats %+v, want %d misses / %d hits", st, len(first), len(first))
	}
	fresh, err := NewEngine(1).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, fresh) {
		t.Error("cached records differ from an uncached engine's")
	}
	e.ResetCache()
	if st := e.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("after reset: stats %+v", st)
	}
}

// TestCellKeyNormalization checks that spelling variants of one cell
// share a cache slot, and that "" precision folds into the calibrated
// policy's explicit label.
func TestCellKeyNormalization(t *testing.T) {
	e := NewEngine(1)
	a, err := e.Cell(CellKey{Benchmark: "res50_tf", System: "dss8440", GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Same cell: canonical abbreviation, canonical system name, explicit
	// calibrated policy ("mixed" for the AMP-calibrated submissions).
	b, err := e.Cell(CellKey{Benchmark: "MLPf_Res50_TF", System: "DSS 8440", GPUs: 4, Precision: "mixed"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("normalized variants disagree: %+v vs %+v", a, b)
	}
	if st := e.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats %+v, want 1 miss / 1 hit (variants must share a slot)", st)
	}
	if a.Precision != "mixed" {
		t.Errorf("calibrated Res50_TF precision label = %q, want mixed", a.Precision)
	}
	if _, err := e.Cell(CellKey{Benchmark: "nope", System: "dss8440", GPUs: 1}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := e.Cell(CellKey{Benchmark: "res50_tf", System: "dss8440", GPUs: 1, Precision: "int4"}); err == nil {
		t.Error("unknown precision accepted")
	}
}

// TestConcurrentCellStress hammers one engine from many goroutines over a
// small key set — under -race this flushes out unsynchronized state in
// the cache and in everything a simulation touches.
func TestConcurrentCellStress(t *testing.T) {
	keys := []CellKey{
		{Benchmark: "res50_tf", System: "c4140k", GPUs: 4},
		{Benchmark: "ncf_py", System: "dss8440", GPUs: 8},
		{Benchmark: "xfmr_py", System: "t640", GPUs: 2},
	}
	e := NewEngine(0)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if _, err := e.Cell(keys[(seed+i)%len(keys)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := e.Stats(); st.Misses != int64(len(keys)) {
		t.Errorf("stats %+v, want exactly %d simulations", st, len(keys))
	}
}

// TestMapOrderAndErrors covers the ordered-parallel-map primitive the
// ablations fan out with.
func TestMapOrderAndErrors(t *testing.T) {
	for _, workers := range []int{1, 3, 32} {
		got, err := Map(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
		// The reported error is the lowest-index one, deterministically.
		_, err = Map(workers, 100, func(i int) (int, error) {
			if i%7 == 3 {
				return 0, fmt.Errorf("cell %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 3 failed" {
			t.Errorf("workers=%d: err = %v, want cell 3 failed", workers, err)
		}
	}
	if out, err := Map(4, 0, func(int) (int, error) { return 0, nil }); err != nil || len(out) != 0 {
		t.Errorf("empty map: %v %v", out, err)
	}
}
