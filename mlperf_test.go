// Integration tests at the facade level: each test asserts one of the
// paper's key insights (Table I) holds in the reproduction, plus
// tolerance checks of the headline Table IV numbers.
package mlperf

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"mlperf/internal/dataset"
	"mlperf/internal/workload"
)

func TestFacadeSmoke(t *testing.T) {
	if len(Systems()) != 6 {
		t.Errorf("%d systems, want 6", len(Systems()))
	}
	if len(Benchmarks()) != 13 {
		t.Errorf("%d benchmarks, want 13", len(Benchmarks()))
	}
	if len(MLPerfBenchmarks()) != 7 {
		t.Errorf("%d MLPerf benchmarks, want 7", len(MLPerfBenchmarks()))
	}
	sys, err := SystemByName("c4140k")
	if err != nil {
		t.Fatal(err)
	}
	b, err := BenchmarkByName("res50_tf")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(sys, 4, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeToTrain <= 0 {
		t.Error("degenerate simulation")
	}
}

// TestInsightScalingDiversity (Table I rows 4+5): benchmarks scale
// differently; NCF saturates while image classification stays near-linear.
func TestInsightScalingDiversity(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ScalingRow{}
	for _, r := range rows {
		byName[r.Bench] = r
	}
	ncf := byName["MLPf_NCF_Py"]
	res50 := byName["MLPf_Res50_TF"]
	ssd := byName["MLPf_SSD_Py"]
	if ncf.S8 >= 3 {
		t.Errorf("NCF 1-to-8 = %.2f, paper shows saturation near 2.3", ncf.S8)
	}
	if res50.S8 < 6 || ssd.S8 < 6 {
		t.Errorf("image/detection 1-to-8 = %.2f/%.2f, paper shows ~7", res50.S8, ssd.S8)
	}
	if ncf.S8 >= res50.S8 {
		t.Error("NCF must scale worse than ResNet-50")
	}
	// NCF has the highest P-to-V jump (21x in the paper): optimized
	// submissions vs reference code.
	for name, r := range byName {
		if name != "MLPf_NCF_Py" && r.PtoV >= ncf.PtoV {
			t.Errorf("%s P-to-V %.2f >= NCF's %.2f", name, r.PtoV, ncf.PtoV)
		}
	}
}

// TestTable4Tolerance: headline cells within a documented tolerance band.
func TestTable4Tolerance(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	paper := map[string]workload.PaperScaling{}
	for _, p := range workload.TableIV {
		paper[p.Bench] = p
	}
	within := func(got, want, tol float64) bool {
		return math.Abs(got-want) <= tol*want
	}
	for _, r := range rows {
		p := paper[r.Bench]
		if !within(r.V100Min, p.V100Min, 0.15) {
			t.Errorf("%s: 1xV100 %.0f min vs paper %.0f (tol 15%%)", r.Bench, r.V100Min, p.V100Min)
		}
		if !within(r.P100Min, p.P100Min, 0.15) {
			t.Errorf("%s: 1xP100 %.0f min vs paper %.0f (tol 15%%)", r.Bench, r.P100Min, p.P100Min)
		}
		if !within(r.S2, p.S2, 0.25) || !within(r.S4, p.S4, 0.25) || !within(r.S8, p.S8, 0.30) {
			t.Errorf("%s: scaling %.2f/%.2f/%.2f vs paper %.2f/%.2f/%.2f",
				r.Bench, r.S2, r.S4, r.S8, p.S2, p.S4, p.S8)
		}
	}
}

// TestInsightMixedPrecision (Table I row 6): tensor cores earn significant
// speedup; endpoints are ResNet-50-TF (highest) and Mask R-CNN (lowest).
func TestInsightMixedPrecision(t *testing.T) {
	rows, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	var res50, mrcnn, min, max float64
	min, max = 100, 0
	for _, r := range rows {
		if r.Speedup <= 1 {
			t.Errorf("%s: AMP speedup %.2f <= 1", r.Bench, r.Speedup)
		}
		if r.Bench == "MLPf_Res50_TF" {
			res50 = r.Speedup
		}
		if r.Bench == "MLPf_MRCNN_Py" {
			mrcnn = r.Speedup
		}
		min = math.Min(min, r.Speedup)
		max = math.Max(max, r.Speedup)
	}
	if math.Abs(res50-3.3) > 0.4 {
		t.Errorf("Res50_TF AMP speedup %.2f, paper reports 3.3", res50)
	}
	if math.Abs(mrcnn-1.5) > 0.3 {
		t.Errorf("MRCNN AMP speedup %.2f, paper reports 1.5", mrcnn)
	}
	if max != res50 {
		t.Errorf("highest speedup %.2f is not Res50_TF's %.2f", max, res50)
	}
}

// TestInsightTopology (Table I last row): NVLink systems beat the PCIe
// switch, which beats through-CPU attachments, for every MLPerf benchmark.
func TestInsightTopology(t *testing.T) {
	rows, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		nv := math.Min(r.Minutes["C4140 (K)"], r.Minutes["C4140 (M)"])
		sw := r.Minutes["C4140 (B)"]
		cpu := math.Max(r.Minutes["T640"], r.Minutes["R940 XA"])
		if !(nv <= sw+1e-9 && sw <= cpu+1e-9) {
			t.Errorf("%s: ordering violated nv=%.1f sw=%.1f cpu=%.1f", r.Bench, nv, sw, cpu)
		}
	}
	// The communication-heavy translation models gain the most; image
	// classification gains the least (11% in the paper).
	gains := map[string]float64{}
	for _, r := range rows {
		gains[r.Bench] = r.NVLinkGain
	}
	if gains["MLPf_GNMT_Py"] <= gains["MLPf_Res50_TF"] {
		t.Error("GNMT must gain more from NVLink than ResNet-50")
	}
	if g := gains["MLPf_Res50_TF"]; g < 0.05 || g > 0.20 {
		t.Errorf("Res50 NVLink gain %.0f%%, paper reports 11%%", g*100)
	}
}

// TestInsightScheduling (Table I row 4): the optimal schedule saves hours
// over naive on 4 GPUs, and the saving shrinks as GPUs grow.
func TestInsightScheduling(t *testing.T) {
	r4, err := Fig4(4)
	if err != nil {
		t.Fatal(err)
	}
	if r4.SavedHours < 1 {
		t.Errorf("4-GPU saving %.1f h, paper reports ~3", r4.SavedHours)
	}
	if err := r4.Optimal.Validate(r4.Jobs, 4); err != nil {
		t.Errorf("optimal schedule infeasible: %v", err)
	}
	r2, err := Fig4(2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.SavedHours <= r4.SavedHours {
		t.Error("2-GPU saving should exceed 4-GPU saving (paper: 4.1 vs 3.0)")
	}
}

// TestInsightPCA (Table I rows 1-3): MLPerf forms a cluster disjoint from
// DAWNBench+DeepBench on PC1, and PC1-PC4 carry most of the variance.
func TestInsightPCA(t *testing.T) {
	r, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's extreme-point disjointness does not fully reproduce
	// (our simulated NCF/MRCNN profiles sit near the kernel suites; see
	// EXPERIMENTS.md), but the suites must still separate on centroids
	// and MLPerf must stay internally diverse.
	if sep := r.CentroidSeparationPC1(); sep < 0.8 {
		t.Errorf("PC1 centroid separation = %.3f, want MLPerf clearly apart", sep)
	}
	if d := r.MinIntraMLPerfDistance(); d < 0.3 {
		t.Errorf("min intra-MLPerf distance = %.3f, paper shows no two close", d)
	}
	cum := r.PCA.CumulativeVariance()
	if cum[3] < 0.75 {
		t.Errorf("PC1-4 cover %.0f%% variance, paper reports 88%%", cum[3]*100)
	}
	if _, name := r.PCA.DominantFeature(0); name == "" {
		t.Error("PC1 dominant feature unnamed")
	}
}

// TestInsightRoofline (Table I row 5): every profiled workload is
// memory-bound on the V100 — none crosses the ridge.
func TestInsightRoofline(t *testing.T) {
	r, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if !r.AllMemoryBound() {
		t.Error("a workload crossed the roofline ridge; paper reports all memory-bound")
	}
	if len(r.Points) != 13 {
		t.Errorf("%d roofline points, want 13", len(r.Points))
	}
}

// TestRealNCFTimeToQuality runs the actual trainer through the facade.
func TestRealNCFTimeToQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ratings := dataset.SyntheticRatings(rng, 40, 80, 10, 6)
	sp := dataset.LeaveOneOut(ratings)
	m, err := NewNCF(DefaultNCFConfig(40, 80))
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainNCFToTarget(m, sp, 0.5, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Errorf("hit-rate target not reached: %.3f after %d epochs", res.HitRate, res.Epochs)
	}
}

// TestSchedulingFacade exercises the scheduler through the facade API.
func TestSchedulingFacade(t *testing.T) {
	jobs := []SchedJob{
		{Name: "a", Duration: map[int]float64{1: 100, 2: 55}},
		{Name: "b", Duration: map[int]float64{1: 100, 2: 95}},
	}
	naive, err := ScheduleNaive(jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := ScheduleOptimal(jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Makespan > naive.Makespan {
		t.Error("optimal worse than naive")
	}
	if g := RenderGantt(opt, 2, 40); g == "" {
		t.Error("empty gantt")
	}
}

func TestRooflineFacade(t *testing.T) {
	r := V100Roofline()
	if r.Ridge("") <= 0 {
		t.Error("V100 roofline has no ridge")
	}
}

// TestFaultFacade exercises fault injection and the hardened sweep
// through the public API.
func TestFaultFacade(t *testing.T) {
	sys, err := SystemByName("c4140k")
	if err != nil {
		t.Fatal(err)
	}
	b, err := BenchmarkByName("gnmt_py")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Simulate(sys, 4, b)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseFaultPlan(`{"Seed":5,"Stragglers":[{"Lane":"gpu","Factor":2}],"Checkpoint":{"Interval":120,"ReplayFrac":1}}`)
	if err != nil {
		t.Fatal(err)
	}
	var log SimEventLog
	res, err := SimulateWithFaults(sys, 4, b, plan, &log)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil || res.Faults.Activations == 0 {
		t.Fatalf("fault report empty: %+v", res.Faults)
	}
	if res.TimeToTrain <= base.TimeToTrain {
		t.Errorf("faulted TTT %v not above fault-free %v", res.TimeToTrain, base.TimeToTrain)
	}
	if len(log.Events) == 0 {
		t.Error("no events observed through the facade")
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	recs, report, err := SweepWithOptions(ctx, SweepGrid{
		Benchmarks: []string{"res50_tf"},
		GPUCounts:  []int{1, 2},
	}, SweepOptions{Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed() || len(recs) != 2 {
		t.Fatalf("hardened sweep: %d records, report %+v", len(recs), report)
	}
}
