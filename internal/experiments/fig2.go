package experiments

import (
	"fmt"
	"strings"

	"mlperf/internal/hw"
	"mlperf/internal/profile"
	"mlperf/internal/report"
	"mlperf/internal/roofline"
	"mlperf/internal/workload"
)

// RooflineResult is the Figure 2 analysis: the V100 roofline plus every
// benchmark's (intensity, achieved-FLOPS) placement measured on the T640
// with one GPU, as the paper does.
type RooflineResult struct {
	Model  *roofline.Model
	Points []roofline.Point
	Suites []workload.Suite
}

// Fig2 profiles every benchmark with the nvprof analog on a single T640
// V100 and places it on the device roofline.
func Fig2() (*RooflineResult, error) {
	sys := hw.T640()
	gpu := &sys.GPU
	m := roofline.ForGPU(gpu)
	benches := workload.All()
	res := &RooflineResult{Model: m}
	for _, b := range benches {
		recs := profile.Nvprof(b, gpu, 8)
		ai, rate := profile.RooflinePoint(recs)
		p := roofline.Point{Name: b.Abbrev, Intensity: ai, Achieved: rate}
		if err := m.Validate(p, ""); err != nil {
			return nil, fmt.Errorf("fig2: %w", err)
		}
		res.Points = append(res.Points, p)
		res.Suites = append(res.Suites, b.Suite)
	}
	return res, nil
}

// ridgeMargin is how far past the top ceiling's ridge AllMemoryBound
// still counts a workload memory-bound: 15% absorbs the analytic
// traffic model's underestimation of DRAM-transaction amplification
// (EXPERIMENTS.md).
const ridgeMargin = 1.15

// AllMemoryBound reports whether every profiled workload with nonzero
// intensity sits within ridgeMargin of the top ceiling's ridge — the
// paper's Figure 2 conclusion ("all the workloads are memory-bound").
func (r *RooflineResult) AllMemoryBound() bool {
	ridge := float64(r.Model.Ridge(""))
	for _, p := range r.Points {
		if p.Intensity == 0 {
			continue // Deep_Red_Cu performs no math
		}
		if float64(p.Intensity) > ridgeMargin*ridge {
			return false
		}
	}
	return true
}

// pastRidge names each workload the exact top-ceiling ridge classifies
// compute-bound, with its intensity as a multiple of that ridge.
func (r *RooflineResult) pastRidge() string {
	ridge := r.Model.Ridge("")
	var past []string
	for _, p := range r.Points {
		if p.Intensity > 0 && r.Model.Bound(p.Intensity, "") == "compute" {
			past = append(past, fmt.Sprintf("%s %.2fx", p.Name, float64(p.Intensity/ridge)))
		}
	}
	if len(past) == 0 {
		return "none"
	}
	return strings.Join(past, ", ")
}

// RenderFig2 renders the log-log roofline with workload points.
func RenderFig2(r *RooflineResult) string {
	var b strings.Builder
	b.WriteString("Figure 2 — V100 roofline (M=MLPerf, D=DAWNBench, d=DeepBench)\n\n")
	for _, c := range r.Model.Ceilings {
		fmt.Fprintf(&b, "ceiling %-12s %8.1f GFLOPS (ridge at %.1f FLOP/B)\n",
			c.Name, c.Peak.G(), float64(r.Model.Ridge(c.Name)))
	}
	fmt.Fprintf(&b, "memory slope: %.0f GB/s\n\n", r.Model.MemBandwidth.GBs())

	var pts []report.ScatterPoint
	mark := func(s workload.Suite) byte {
		switch s {
		case workload.MLPerf:
			return 'M'
		case workload.DAWNBench:
			return 'D'
		default:
			return 'd'
		}
	}
	for i, p := range r.Points {
		if p.Intensity <= 0 || p.Achieved <= 0 {
			continue
		}
		pts = append(pts, report.ScatterPoint{
			Label: p.Name, X: float64(p.Intensity), Y: p.Achieved.G(), Mark: mark(r.Suites[i]),
		})
	}
	b.WriteString(report.Scatter("(AI FLOP/B vs achieved GFLOPS, log-log)", pts, 64, 16, true, true))
	b.WriteString("\n")

	t := report.NewTable("per-benchmark placement",
		"Benchmark", "AI (FLOP/B)", "Achieved GFLOPS", "Bound")
	for _, p := range r.Points {
		bound := "n/a"
		if p.Intensity > 0 {
			bound = r.Model.Bound(p.Intensity, "")
		}
		t.AddRow(p.Name, report.F2(float64(p.Intensity)), report.F1(p.Achieved.G()), bound)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nall workloads memory-bound within %.2fx of the %s ridge: %v (paper: true); past the exact ridge: %s\n",
		ridgeMargin, r.Model.Ceilings[0].Name, r.AllMemoryBound(), r.pastRidge())
	return b.String()
}
