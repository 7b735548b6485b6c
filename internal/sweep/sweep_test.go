package sweep

import (
	"bytes"
	"strings"
	"testing"
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
