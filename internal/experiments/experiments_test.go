package experiments

import (
	"strings"
	"testing"
)

func TestTable2Rendering(t *testing.T) {
	out := Table2()
	for _, want := range []string{
		"MLPf_Res50_TF", "MLPf_GNMT_Py", "Dawn_DrQA_Py", "Deep_Red_Cu",
		"ImageNet... ", // deliberately absent: ensures loop below catches real rows
	} {
		if want == "ImageNet... " {
			continue
		}
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 15 {
		t.Errorf("Table2 only %d lines", lines)
	}
}

func TestTable3Rendering(t *testing.T) {
	out := Table3()
	for _, want := range []string{"T640", "C4140 (K)", "DSS 8440", "NVLink", "Xeon Gold 6148"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table3 missing %q", want)
		}
	}
}

func TestTable4RowsComplete(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table4Benches) {
		t.Fatalf("%d rows, want %d", len(rows), len(Table4Benches))
	}
	for _, r := range rows {
		if r.P100Min <= 0 || r.V100Min <= 0 {
			t.Errorf("%s: non-positive times", r.Bench)
		}
		if r.PtoV <= 1 {
			t.Errorf("%s: P-to-V %.2f should exceed 1 (V100 submission beats P100 reference)", r.Bench, r.PtoV)
		}
		if !(r.S2 > 1 && r.S4 > r.S2 && r.S8 > r.S4) {
			t.Errorf("%s: speedups not increasing: %.2f/%.2f/%.2f", r.Bench, r.S2, r.S4, r.S8)
		}
		if r.S8 > 8 {
			t.Errorf("%s: superlinear 8-GPU speedup %.2f", r.Bench, r.S8)
		}
	}
	rendered := RenderTable4(rows)
	if !strings.Contains(rendered, "MLPf_NCF_Py") || !strings.Contains(rendered, "|") {
		t.Error("RenderTable4 missing content")
	}
}

func TestTable5RowsComplete(t *testing.T) {
	rows, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	// 7 MLPerf x 3 counts + Deep_Red x 3 + 5 single-GPU rows = 29.
	if len(rows) != 29 {
		t.Fatalf("%d rows, want 29", len(rows))
	}
	byKey := map[string]UsageRow{}
	for _, r := range rows {
		byKey[r.Bench+"/"+itoa(r.GPUs)] = r
		if r.CPUPct < 0 || r.GPUPct < 0 || r.DRAMMB <= 0 || r.HBMMB <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
		if r.GPUPct > float64(100*r.GPUs)+1e-6 {
			t.Errorf("%s/%d: GPU %.1f%% exceeds %d00%%", r.Bench, r.GPUs, r.GPUPct, r.GPUs)
		}
	}
	// §V-A narrative: Res50_TF has the highest MLPerf CPU utilization at
	// every GPU count; NCF the lowest; DrQA the highest overall with the
	// lowest GPU utilization.
	for _, g := range []string{"1", "2", "4"} {
		top := byKey["MLPf_Res50_TF/"+g].CPUPct
		low := byKey["MLPf_NCF_Py/"+g].CPUPct
		for _, b := range []string{"MLPf_Res50_MX", "MLPf_SSD_Py", "MLPf_MRCNN_Py", "MLPf_XFMR_Py", "MLPf_GNMT_Py", "MLPf_NCF_Py"} {
			if byKey[b+"/"+g].CPUPct > top {
				t.Errorf("%s@%s CPU %.2f exceeds Res50_TF's %.2f", b, g, byKey[b+"/"+g].CPUPct, top)
			}
		}
		if low > byKey["MLPf_XFMR_Py/"+g].CPUPct {
			t.Errorf("NCF CPU %.2f above XFMR at %s GPUs", low, g)
		}
	}
	drqa := byKey["Dawn_DrQA_Py/1"]
	if drqa.CPUPct < 40 {
		t.Errorf("DrQA CPU %.1f%%, paper reports ~49%%", drqa.CPUPct)
	}
	if drqa.GPUPct > 30 {
		t.Errorf("DrQA GPU %.1f%%, paper reports ~20%%", drqa.GPUPct)
	}
	// §V-D narrative: Deep_Red and NCF are the heaviest NVLink users...
	red4 := byKey["Deep_Red_Cu/4"].NVLinkMbps
	for _, b := range []string{"MLPf_Res50_MX", "MLPf_SSD_Py", "MLPf_MRCNN_Py"} {
		if byKey[b+"/4"].NVLinkMbps >= red4 {
			t.Errorf("%s NVLink %.0f exceeds Deep_Red's %.0f", b, byKey[b+"/4"].NVLinkMbps, red4)
		}
	}
	// ...and SSD the lightest among multi-GPU MLPerf entries.
	ssd4 := byKey["MLPf_SSD_Py/4"].NVLinkMbps
	for _, b := range []string{"MLPf_Res50_MX", "MLPf_MRCNN_Py", "MLPf_XFMR_Py", "MLPf_GNMT_Py"} {
		if byKey[b+"/4"].NVLinkMbps <= ssd4 {
			t.Errorf("%s NVLink %.0f below SSD's %.0f", b, byKey[b+"/4"].NVLinkMbps, ssd4)
		}
	}
	// Footprints roughly double with GPU count (§V-C): HBM is strictly
	// proportional in the model.
	for _, b := range []string{"MLPf_Res50_TF", "MLPf_XFMR_Py"} {
		h1 := byKey[b+"/1"].HBMMB
		h4 := byKey[b+"/4"].HBMMB
		if h4 < 3.5*h1 || h4 > 4.5*h1 {
			t.Errorf("%s: HBM 4-GPU/1-GPU ratio = %.2f", b, h4/h1)
		}
	}
}

func TestFig1Shapes(t *testing.T) {
	r, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if r.Projection.Rows != 13 || r.Projection.Cols != 8 {
		t.Errorf("projection %dx%d", r.Projection.Rows, r.Projection.Cols)
	}
	if r.MinIntraMLPerfDistance() <= 0 {
		t.Error("two MLPerf benchmarks project identically")
	}
	out := RenderFig1(r)
	for _, want := range []string{"PC1", "dominant metric", "variance covered"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderFig1 missing %q", want)
		}
	}
}

func TestFig2Renders(t *testing.T) {
	r, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	out := RenderFig2(r)
	for _, want := range []string{"fp16-tensor", "memory slope", "Deep_Red_Cu", "all workloads memory-bound within 1.15x of the fp16-tensor ridge: true (paper: true); past the exact ridge: MLPf_SSD_Py 1.10x\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderFig2 missing %q", want)
		}
	}
}

func TestFig3SpeedupOrdering(t *testing.T) {
	rows, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d rows, want 7", len(rows))
	}
	for _, r := range rows {
		if r.FP32Min <= r.AMPMin {
			t.Errorf("%s: FP32 %.1f min not slower than AMP %.1f", r.Bench, r.FP32Min, r.AMPMin)
		}
	}
	if !strings.Contains(RenderFig3(rows), "paper") {
		t.Error("RenderFig3 missing paper comparison")
	}
}

func TestFig4SavesTime(t *testing.T) {
	r, err := Fig4(4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Optimal.Makespan >= r.Naive.Makespan {
		t.Error("optimal not better than naive")
	}
	if err := r.Naive.Validate(r.Jobs, 4); err != nil {
		t.Errorf("naive invalid: %v", err)
	}
	if err := r.Optimal.Validate(r.Jobs, 4); err != nil {
		t.Errorf("optimal invalid: %v", err)
	}
	out := RenderFig4(r)
	if !strings.Contains(out, "naive") || !strings.Contains(out, "saving") {
		t.Error("RenderFig4 missing content")
	}
}

func TestFig5AllSystems(t *testing.T) {
	rows, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if len(r.Minutes) != 5 {
			t.Errorf("%s: %d systems", r.Bench, len(r.Minutes))
		}
		if r.NVLinkGain < 0 || r.NVLinkGain > 1 {
			t.Errorf("%s: gain %.2f", r.Bench, r.NVLinkGain)
		}
		if r.Best == r.Worst {
			t.Errorf("%s: best == worst == %s", r.Bench, r.Best)
		}
	}
	if !strings.Contains(RenderFig5(rows), "NVLink gain") {
		t.Error("RenderFig5 missing gain column")
	}
}

func itoa(v int) string {
	switch v {
	case 1:
		return "1"
	case 2:
		return "2"
	case 4:
		return "4"
	case 8:
		return "8"
	}
	return "?"
}

func TestWhatIfNVLink(t *testing.T) {
	rows, err := WhatIfNVLinkAt8()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table4Benches) {
		t.Fatalf("%d rows", len(rows))
	}
	gains := map[string]float64{}
	for _, r := range rows {
		if r.DGXMin > r.DSSMin+1e-9 {
			t.Errorf("%s: DGX-1 slower than DSS 8440 (%.1f vs %.1f)", r.Bench, r.DGXMin, r.DSSMin)
		}
		gains[r.Bench] = r.Gain
	}
	// The interconnect upgrade must matter most for the comm-heavy
	// Transformer and least for NCF (whose wall is the fixed per-step
	// overhead, not the wire).
	if gains["MLPf_XFMR_Py"] <= gains["MLPf_SSD_Py"] {
		t.Error("Transformer should gain more from NVLink than SSD")
	}
	if gains["MLPf_NCF_Py"] >= gains["MLPf_XFMR_Py"] {
		t.Error("NCF should gain less from NVLink than the Transformer")
	}
	if !strings.Contains(RenderWhatIf(rows), "DGX-1") {
		t.Error("render missing DGX column")
	}
}
