package sim

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mlperf/internal/fault"
	"mlperf/internal/hw"
	"mlperf/internal/telemetry"
)

// runBoth executes the config slow (FastPathOff) and forced fast, failing
// the test unless both succeed and agree bit for bit. It returns the slow
// result for further assertions.
func runBoth(t *testing.T, cfg Config, plan *fault.Plan) *Result {
	t.Helper()
	cfg.FastPath = FastPathOff
	slow, err := RunWithFaults(cfg, plan)
	if err != nil {
		t.Fatalf("slow path: %v", err)
	}
	cfg.FastPath = FastPathForce
	fast, err := RunWithFaults(cfg, plan)
	if err != nil {
		t.Fatalf("forced fast path: %v", err)
	}
	if !reflect.DeepEqual(slow, fast) {
		t.Fatalf("fast path diverged\nslow %+v\nfast %+v", slow, fast)
	}
	cfg.FastPath = FastPathAuto
	auto, err := RunWithFaults(cfg, plan)
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	if !reflect.DeepEqual(slow, auto) {
		t.Fatalf("auto diverged from slow path")
	}
	return slow
}

// The core refactor contract: on fault-free configs the analytic fast
// path must reproduce the discrete-event pipeline bit for bit — every
// Result field including the full per-step Timeline — across systems,
// GPU counts, step counts (straddling the prefetch depth), and the
// NoTimeline knob.
func TestFastPathEquivalenceClean(t *testing.T) {
	for _, sys := range []*hw.System{hw.DSS8440(), hw.C4140K(), hw.T640()} {
		for _, g := range []int{1, 2, 4} {
			for _, steps := range []int{1, 2, 3, 5, 32, 257} {
				for _, noTL := range []bool{false, true} {
					cfg := Config{System: sys, GPUCount: g, Job: testJob(),
						Steps: steps, NoTimeline: noTL}
					runBoth(t, cfg, nil)
				}
			}
		}
	}
}

// Fault plans whose effects end before the final step qualify for the
// hybrid fast path: the faulty prefix is simulated step by step, the
// steady tail collapsed. The stitched result must match the full
// discrete-event run bit for bit, FaultReport included.
func TestFastPathEquivalenceFaulted(t *testing.T) {
	plans := map[string]*fault.Plan{
		"warmup-straggler": {Stragglers: []fault.Straggler{
			{Lane: "compute", Factor: 1.5, FromStep: 1, ToStep: 4}}},
		"warmup-link": {Links: []fault.LinkFault{
			{Lane: "pcie-h2d", BandwidthFrac: 0.5, Period: 16, Up: 3}}},
		"far-preempt": {Preemptions: []fault.Preemption{
			{At: 1e9, RestartDelay: 30}}},
		"multi-lane-warmup": {Stragglers: []fault.Straggler{
			{Lane: "gpu", Factor: 2, FromStep: 0, ToStep: 2},
			{Lane: "cpu-input", Factor: 3, FromStep: 2, ToStep: 6},
		}},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			cfg := faultCfg()
			cfg.Steps = 16
			res := runBoth(t, cfg, plan)
			if res.Faults == nil {
				t.Fatal("faulted run lost its FaultReport")
			}
		})
	}
}

// Plans that perturb steps all the way to the end of the window — or
// whose checkpoint/preemption machinery is live inside it — must refuse
// FastPathForce with a typed error and silently fall back under Auto.
func TestFastPathRefusesDivergentPlans(t *testing.T) {
	plans := map[string]*fault.Plan{
		"whole-run-straggler": {Stragglers: []fault.Straggler{{Lane: "gpu", Factor: 2}}},
		"active-checkpoint":   {Checkpoint: fault.Checkpoint{Interval: 0.05}},
		"early-preempt":       {Preemptions: []fault.Preemption{{At: 0.01, RestartDelay: 1}}},
		"transient": {Seed: 7, Transients: []fault.Transient{
			{Lane: "h2d", Prob: 0.9, RetryCost: 0.001}}},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			cfg := faultCfg()
			cfg.Steps = 16
			cfg.FastPath = FastPathForce
			_, err := RunWithFaults(cfg, plan)
			var fe *FastPathError
			if !errors.As(err, &fe) {
				t.Fatalf("want *FastPathError, got %v", err)
			}
			if fe.Reason == "" {
				t.Fatal("FastPathError carries no reason")
			}
			cfg.FastPath = FastPathOff
			slow, err := RunWithFaults(cfg, plan)
			if err != nil {
				t.Fatal(err)
			}
			cfg.FastPath = FastPathAuto
			auto, err := RunWithFaults(cfg, plan)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(slow, auto) {
				t.Fatal("auto fallback diverged from slow path")
			}
		})
	}
}

// An observer without the BulkObserver capability (EventLog's contract is
// the discrete-event publication order) must force the step-by-step
// pipeline: Force fails, Auto falls back and feeds the observer the full
// stream.
func TestFastPathObserverGating(t *testing.T) {
	cfg := Config{System: hw.DSS8440(), GPUCount: 2, Job: testJob(), Steps: 8}
	cfg.FastPath = FastPathForce
	_, err := Run(cfg, &EventLog{})
	var fe *FastPathError
	if !errors.As(err, &fe) {
		t.Fatalf("EventLog should force the slow path, got %v", err)
	}

	slowLog, autoLog := &EventLog{}, &EventLog{}
	cfg.FastPath = FastPathOff
	slow, err := Run(cfg, slowLog)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FastPath = FastPathAuto
	auto, err := Run(cfg, autoLog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(slow, auto) {
		t.Fatal("auto with EventLog diverged from slow path")
	}
	if !reflect.DeepEqual(slowLog.Events, autoLog.Events) {
		t.Fatal("auto fallback fed the EventLog a different stream")
	}
	if len(autoLog.Events) == 0 {
		t.Fatal("EventLog saw no events")
	}
}

// Bulk-capable external observers must see identical aggregate state on
// either path: PhaseTotals maps bit-identical, telemetry registries
// rendering byte-identical Prometheus text.
func TestFastPathObserverAggregates(t *testing.T) {
	run := func(mode FastPathMode) (*PhaseTotals, []byte) {
		t.Helper()
		cfg := Config{System: hw.DSS8440(), GPUCount: 4, Job: testJob(),
			Steps: 64, FastPath: mode}
		pt := NewPhaseTotals()
		reg := telemetry.New()
		if _, err := Run(cfg, pt, NewTelemetryObserver(reg)); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return pt, buf.Bytes()
	}
	slowPT, slowProm := run(FastPathOff)
	fastPT, fastProm := run(FastPathForce)
	if !reflect.DeepEqual(slowPT, fastPT) {
		t.Fatalf("PhaseTotals diverged\nslow %+v\nfast %+v", slowPT, fastPT)
	}
	if !bytes.Equal(slowProm, fastProm) {
		t.Fatalf("telemetry diverged\nslow:\n%s\nfast:\n%s", slowProm, fastProm)
	}
}

// bulkCapture records the stream a bulk-capable observer sees: prefix
// events one at a time, the steady window via its replay. Used to pin
// the canonical (step-major) event order of the collapsed window.
type bulkCapture struct{ evs []Event }

func (c *bulkCapture) OnEvent(ev Event)             { c.evs = append(c.evs, ev) }
func (c *bulkCapture) OnSteadySteps(b *SteadySteps) { b.Events(c.OnEvent) }

// The fast path publishes the steady window step-major: all of a step's
// events in lane order, then its step marker. The slow path publishes in
// global simulated-time order, which interleaves steps — but a stable
// sort by step index reorders it into exactly the fast stream, because
// within one step both paths publish in lane order. This pins the
// SteadySteps.Events replay contract.
func TestFastPathCanonicalEventOrder(t *testing.T) {
	cfg := Config{System: hw.DSS8440(), GPUCount: 4, Job: testJob(), Steps: 32}

	slowLog := &EventLog{}
	cfg.FastPath = FastPathOff
	if _, err := Run(cfg, slowLog); err != nil {
		t.Fatal(err)
	}
	cap := &bulkCapture{}
	cfg.FastPath = FastPathForce
	if _, err := Run(cfg, cap); err != nil {
		t.Fatal(err)
	}

	sorted := append([]Event(nil), slowLog.Events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Step < sorted[j].Step })
	if len(sorted) != len(cap.evs) {
		t.Fatalf("event count: slow %d, fast %d", len(sorted), len(cap.evs))
	}
	for i := range sorted {
		if sorted[i] != cap.evs[i] {
			t.Fatalf("event %d differs\nslow(sorted) %+v\nfast %+v", i, sorted[i], cap.evs[i])
		}
	}
}

// randomPlan draws a fault plan biased toward the interesting detector
// boundaries: effects ending just before/at/after the warm-up edge,
// whole-run perturbations that force fallback, and nil plans.
func randomPlan(r *rand.Rand, steps int) *fault.Plan {
	switch r.Intn(6) {
	case 0:
		return nil
	case 1: // straggler fully inside the warm-up prefix
		to := 1 + r.Intn(steps)
		return &fault.Plan{Stragglers: []fault.Straggler{{
			Lane:   []string{"gpu", "compute", "cpu-input", "h2d"}[r.Intn(4)],
			Factor: 1 + r.Float64()*3, FromStep: r.Intn(to), ToStep: to,
		}}}
	case 2: // open-ended straggler: perturbs the final step, forces fallback
		return &fault.Plan{Stragglers: []fault.Straggler{{
			Lane: "gpu", Factor: 1 + r.Float64()*2, FromStep: r.Intn(steps),
		}}}
	case 3: // flapping link degradation
		period := 2 + r.Intn(steps)
		return &fault.Plan{Links: []fault.LinkFault{{
			Lane: "pcie-h2d", BandwidthFrac: 0.25 + r.Float64()*0.7,
			Period: period, Up: 1 + r.Intn(period),
		}}}
	case 4: // transient retries: randomized per step, always fallback
		return &fault.Plan{Seed: r.Int63(), Transients: []fault.Transient{{
			Lane: "compute", Prob: r.Float64() * 0.5, RetryCost: r.Float64() * 0.01,
		}}}
	default: // preemption, sometimes far outside the window
		at := r.Float64() * 2
		if r.Intn(2) == 0 {
			at = 1e6
		}
		return &fault.Plan{
			Preemptions: []fault.Preemption{{At: at, RestartDelay: r.Float64() * 10}},
			Checkpoint:  fault.Checkpoint{Interval: 10 + r.Float64()*100, ReplayFrac: r.Float64()},
		}
	}
}

// Property test: across randomized jobs, configurations and fault plans,
// Auto must always match the slow path bit for bit, and whenever Force
// succeeds it must too. Both outcomes (collapsed and fallback) must
// actually occur across the sample, or the property is vacuous.
func TestFastPathPropertyRandom(t *testing.T) {
	r := rand.New(rand.NewSource(20260808))
	systems := []*hw.System{hw.DSS8440(), hw.C4140K(), hw.T640()}
	collapsed, fellBack := 0, 0
	for i := 0; i < 60; i++ {
		sys := systems[r.Intn(len(systems))]
		job := testJob()
		job.BatchPerGPU = []int{16, 32, 64, 128}[r.Intn(4)]
		job.OverlapComm = r.Float64()
		job.GPUIdleFrac = r.Float64() * 0.2
		job.CPUSecondsPerSample = r.Float64() * 0.004
		job.InputWorkersPerGPU = 1 + r.Intn(8)
		steps := 1 + r.Intn(48)
		cfg := Config{
			System:     sys,
			GPUCount:   1 + r.Intn(sys.GPUCount),
			Job:        job,
			Steps:      steps,
			NoTimeline: r.Intn(2) == 0,
		}
		plan := randomPlan(r, steps)

		cfg.FastPath = FastPathOff
		slow, err := RunWithFaults(cfg, plan)
		if err != nil {
			t.Fatalf("case %d: slow: %v", i, err)
		}
		cfg.FastPath = FastPathAuto
		auto, err := RunWithFaults(cfg, plan)
		if err != nil {
			t.Fatalf("case %d: auto: %v", i, err)
		}
		if !reflect.DeepEqual(slow, auto) {
			t.Fatalf("case %d: auto diverged (plan %+v)", i, plan)
		}
		cfg.FastPath = FastPathForce
		fast, err := RunWithFaults(cfg, plan)
		if err != nil {
			var fe *FastPathError
			if !errors.As(err, &fe) {
				t.Fatalf("case %d: force failed without FastPathError: %v", i, err)
			}
			fellBack++
			continue
		}
		collapsed++
		if !reflect.DeepEqual(slow, fast) {
			t.Fatalf("case %d: forced fast path diverged (plan %+v)", i, plan)
		}
	}
	if collapsed == 0 || fellBack == 0 {
		t.Fatalf("property vacuous: %d collapsed, %d fell back", collapsed, fellBack)
	}
}
