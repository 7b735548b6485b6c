package sweep

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"mlperf/internal/hw"
	"mlperf/internal/workload"
)

func TestDefaultGridIsMLPerfOn1GPU(t *testing.T) {
	recs, err := Default.Run(Grid{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7 {
		t.Fatalf("%d records, want 7 (MLPerf suite on 1 GPU)", len(recs))
	}
	for _, r := range recs {
		if r.System != "DSS 8440" || r.GPUs != 1 {
			t.Errorf("unexpected cell %+v", r)
		}
		if r.TimeToTrainMin <= 0 || r.Throughput <= 0 {
			t.Errorf("degenerate record %+v", r)
		}
	}
}

func TestGridCartesianProduct(t *testing.T) {
	recs, err := Default.Run(Grid{
		Benchmarks: []string{"res50_tf", "ncf_py"},
		Systems:    []string{"c4140k", "dss8440"},
		GPUCounts:  []int{1, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 {
		t.Fatalf("%d records, want 2x2x2=8", len(recs))
	}
}

func TestInfeasibleCellsSkipped(t *testing.T) {
	// 8 GPUs on the 4-GPU C4140 (K) is skipped, not an error.
	recs, err := Default.Run(Grid{
		Benchmarks: []string{"res50_tf"},
		Systems:    []string{"c4140k"},
		GPUCounts:  []int{4, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].GPUs != 4 {
		t.Errorf("records = %+v", recs)
	}
	// A grid with nothing feasible errors.
	if _, err := Default.Run(Grid{
		Benchmarks: []string{"res50_tf"},
		Systems:    []string{"c4140k"},
		GPUCounts:  []int{8},
	}); err == nil {
		t.Error("empty sweep accepted")
	}
}

// A cell no simulation can honour is refused by Normalize, not run: the
// simulator would clamp gpus=0 or gpus=64 to the whole system and the
// record would carry (and cache under) the impossible count.
func TestNormalizeRejectsImpossibleCells(t *testing.T) {
	for _, k := range []CellKey{
		{Benchmark: "res50_tf", System: "dss8440", GPUs: 0},
		{Benchmark: "res50_tf", System: "dss8440", GPUs: -2},
		{Benchmark: "res50_tf", System: "dss8440", GPUs: 9},
		{Benchmark: "res50_tf", System: "dss8440", GPUs: 64},
		{Benchmark: "res50_tf", System: "c4140k", GPUs: 8},
		{Benchmark: "res50_tf", System: "dss8440", GPUs: 1, Batch: -1},
	} {
		if nk, err := k.Normalize(); err == nil {
			t.Errorf("%+v normalized to %+v, want an error", k, nk)
		}
		if _, err := k.Digest(); err == nil {
			t.Errorf("%+v has a digest, want an error", k)
		}
		if _, err := NewEngine(1).Cell(k); err == nil {
			t.Errorf("%+v ran, want an error", k)
		}
	}
	for _, k := range []CellKey{
		{Benchmark: "res50_tf", System: "dss8440", GPUs: 1},
		{Benchmark: "res50_tf", System: "dss8440", GPUs: 8, Batch: 32},
		{Benchmark: "res50_tf", System: "c4140k", GPUs: 4},
	} {
		if _, err := k.Normalize(); err != nil {
			t.Errorf("%+v: %v", k, err)
		}
	}
	// In a grid, a count above a system's size skips that system's cells
	// (TestInfeasibleCellsSkipped); a count below 1 is an error.
	for _, gpus := range []int{0, -1} {
		if _, err := (Grid{Benchmarks: []string{"res50_tf"}, GPUCounts: []int{1, gpus}}).Cells(); err == nil {
			t.Errorf("grid with gpus %d accepted", gpus)
		}
	}
	if _, err := (Grid{Benchmarks: []string{"res50_tf"}, BatchPerGPU: []int{-8}}).Cells(); err == nil {
		t.Error("grid with a negative batch accepted")
	}
}

func TestPrecisionSweep(t *testing.T) {
	recs, err := Default.Run(Grid{
		Benchmarks: []string{"res50_tf"},
		GPUCounts:  []int{8},
		Precisions: []string{"fp32", "mixed"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	var fp32, amp Record
	for _, r := range recs {
		if r.Precision == "fp32" {
			fp32 = r
		} else {
			amp = r
		}
	}
	if amp.TimeToTrainMin >= fp32.TimeToTrainMin {
		t.Errorf("mixed %v not faster than fp32 %v", amp.TimeToTrainMin, fp32.TimeToTrainMin)
	}
}

func TestGridErrors(t *testing.T) {
	if _, err := Default.Run(Grid{Benchmarks: []string{"bert"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Default.Run(Grid{Systems: []string{"dgx9"}}); err == nil {
		t.Error("unknown system accepted")
	}
	if _, err := Default.Run(Grid{Precisions: []string{"int4"}}); err == nil {
		t.Error("unknown precision accepted")
	}
}

// naiveCells is the cell-by-cell expansion: every combination in grid
// order, each key normalized on its own. Count and Cells must agree
// with it on every grid, errors included.
func naiveCells(g Grid) ([]CellKey, error) {
	benches := g.Benchmarks
	if len(benches) == 0 {
		for _, b := range workload.MLPerfSuite() {
			benches = append(benches, b.Abbrev)
		}
	}
	for _, name := range benches {
		if _, err := workload.ByName(name); err != nil {
			return nil, err
		}
	}
	systems := orDefault(g.Systems, "dss8440")
	for _, name := range systems {
		if _, err := hw.SharedSystemByName(name); err != nil {
			return nil, err
		}
	}
	precs := orDefault(g.Precisions, "")
	for _, p := range precs {
		if p != "" && p != "fp32" && p != "mixed" {
			return nil, fmt.Errorf("sweep: unknown precision %q", p)
		}
	}
	var keys []CellKey
	for _, b := range benches {
		for _, name := range systems {
			sys, _ := hw.SharedSystemByName(name)
			for _, gpus := range orDefault(g.GPUCounts, 1) {
				if gpus > sys.GPUCount {
					continue
				}
				for _, batch := range orDefault(g.BatchPerGPU, 0) {
					for _, p := range precs {
						k, err := (CellKey{Benchmark: b, System: name, GPUs: gpus,
							Batch: batch, Precision: p, Faults: g.Faults}).Normalize()
						if err != nil {
							return nil, err
						}
						keys = append(keys, k)
					}
				}
			}
		}
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("sweep: empty grid (no feasible cells)")
	}
	return keys, nil
}

// CellsWithin prices a grid without building it when the grid is over
// its limit, so the price must say exactly what expanding the grid cell
// by cell says: the same number of cells, or the same first error.
func TestCountMatchesCells(t *testing.T) {
	const badPlan = `{"Stragglers":[{"Lane":"gpu","Factor":-2}]}`
	const goodPlan = `{"Stragglers":[{"Lane":"gpu","Factor":2}]}`
	one := []string{"res50_tf"}
	for name, g := range map[string]Grid{
		"default":              {},
		"over-size gpus":       {Benchmarks: one, Systems: []string{"t640", "dss8440"}, GPUCounts: []int{1, 2, 4, 8, 16}},
		"duplicates":           {Benchmarks: []string{"res50_tf", "ncf_py", "res50_tf"}, GPUCounts: []int{2, 2}, BatchPerGPU: []int{0, 0}, Precisions: []string{"fp32", "fp32", ""}},
		"all infeasible":       {Benchmarks: one, Systems: []string{"t640"}, GPUCounts: []int{8}},
		"good plan":            {Benchmarks: one, GPUCounts: []int{1, 2}, Faults: goodPlan},
		"unknown benchmark":    {Benchmarks: []string{"res50_tf", "bert"}},
		"unknown system":       {Benchmarks: one, Systems: []string{"dss8440", "dgx9"}},
		"unknown precision":    {Benchmarks: one, Precisions: []string{"fp32", "int4"}},
		"gpus 0 first":         {Benchmarks: one, GPUCounts: []int{0, 1}},
		"gpus 0 later":         {Benchmarks: one, GPUCounts: []int{1, -1, 0}},
		"gpus 0 on 2nd system": {Benchmarks: one, Systems: []string{"t640", "dss8440"}, GPUCounts: []int{8, 0}},
		"gpus 0 and bad plan":  {Benchmarks: one, GPUCounts: []int{0}, Faults: badPlan},
		"negative batch first": {Benchmarks: one, BatchPerGPU: []int{-8, -4}},
		"negative batch later": {Benchmarks: one, BatchPerGPU: []int{0, 16, -4}},
		"bad plan":             {Benchmarks: one, GPUCounts: []int{1, 0}, Faults: badPlan},
		"bad plan, batch -1":   {Benchmarks: one, BatchPerGPU: []int{-1, 0}, Faults: badPlan},
		"bad plan, batch 0,-1": {Benchmarks: one, BatchPerGPU: []int{0, -1}, Faults: badPlan},
		"infeasible bad plan":  {Benchmarks: one, Systems: []string{"t640"}, GPUCounts: []int{8}, BatchPerGPU: []int{-1}, Faults: badPlan},
	} {
		want, wantErr := naiveCells(g)
		got, err := g.Cells()
		priced, n, cerr := g.CellsWithin(0) // every grid costs more than 0 cells
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || fmt.Sprint(cerr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: Cells error %v, CellsWithin error %v, want %v", name, err, cerr, wantErr)
			continue
		}
		if !reflect.DeepEqual(got, want) || n != len(want) || priced != nil {
			t.Errorf("%s: priced at %d (%d keys built), Cells %d keys, want %d keys:\n%+v\n%+v",
				name, n, len(priced), len(got), len(want), got, want)
		}
	}

	// Long lists multiply past math.MaxInt (a 1 MB GET URL can carry
	// five lists of 30,000 values); the count saturates instead of
	// wrapping into a small or negative cost.
	huge := func(v string) []string { return strings.Split(strings.Repeat(v+",", 99999)+v, ",") }
	ints := make([]int, 100000)
	for i := range ints {
		ints[i] = i + 1
	}
	g := Grid{Benchmarks: huge("res50_tf"), Systems: huge("dss8440")[:10000], GPUCounts: ints[:8], BatchPerGPU: ints, Precisions: huge("fp32")}
	if keys, n, err := g.CellsWithin(0); err != nil || n != math.MaxInt || keys != nil {
		t.Errorf("10^5 x 10^4 x 8 x 10^5 x 10^5 grid: priced at %d (%d keys built), %v, want math.MaxInt", n, len(keys), err)
	}
}

func TestWriteCSV(t *testing.T) {
	recs, err := Default.Run(Grid{Benchmarks: []string{"ncf_py"}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(recs)+1 {
		t.Errorf("%d CSV lines for %d records", len(lines), len(recs))
	}
	if !strings.HasPrefix(lines[0], "benchmark,system,gpus") {
		t.Errorf("header = %s", lines[0])
	}
	if !strings.Contains(lines[1], "MLPf_NCF_Py") {
		t.Errorf("row = %s", lines[1])
	}
}

// GridLists is the one comma-list grid parser of the CLI flags and the
// serving tier's query: blank entries drop, an empty list is nil (the
// dimension's default), and a non-integer GPU count or batch is the
// same error in both.
func TestGridListsParse(t *testing.T) {
	g, err := GridLists{
		Benchmarks: " res50_tf, ,ncf_py,", GPUs: "1, 2", Batches: "", Precisions: ",",
	}.Grid()
	if err != nil {
		t.Fatal(err)
	}
	want := Grid{Benchmarks: []string{"res50_tf", "ncf_py"}, GPUCounts: []int{1, 2}}
	if !reflect.DeepEqual(g, want) {
		t.Errorf("Grid() = %+v, want %+v", g, want)
	}
	for _, l := range []GridLists{{GPUs: "1,x"}, {Batches: "x"}} {
		if _, err := l.Grid(); err == nil || err.Error() != `bad integer "x"` {
			t.Errorf("%+v: error %v, want bad integer \"x\"", l, err)
		}
	}
}
