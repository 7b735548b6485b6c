package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mlperf/internal/fault"
	"mlperf/internal/hw"
)

func faultCfg() Config {
	return Config{System: hw.DSS8440(), GPUCount: 4, Job: testJob()}
}

// The empty plan must route through the unmodified pipeline:
// RunWithFaults(nil) and Run must agree on every field, bit for bit —
// the contract that keeps the golden experiment CSVs byte-identical.
func TestEmptyPlanBitIdentical(t *testing.T) {
	base, err := Run(faultCfg())
	if err != nil {
		t.Fatal(err)
	}
	for name, plan := range map[string]*fault.Plan{"nil": nil, "zero": {}, "seed-only": {Seed: 42}} {
		res, err := RunWithFaults(faultCfg(), plan)
		if err != nil {
			t.Fatalf("%s plan: %v", name, err)
		}
		if res.Faults != nil {
			t.Errorf("%s plan: Faults = %+v, want nil", name, res.Faults)
		}
		// Timeline holds pointers; compare the scalar results exactly.
		a, b := *base, *res
		a.Timeline, b.Timeline = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s plan result differs from the fault-free run:\n%+v\n%+v", name, a, b)
		}
	}
}

// A plan that is not empty but has no effect inside the window (a
// straggler that starts after the last step) takes the faulted branch of
// the pipeline loop, not the Empty() shortcut. It must still reproduce
// the fault-free run exactly: the same event stream, event for event, and
// every Result field except the FaultReport and the timeline's empty
// faults lane.
func TestNeutralPlanMatchesFaultFree(t *testing.T) {
	plan := &fault.Plan{Stragglers: []fault.Straggler{{Lane: "gpu", Factor: 2, FromStep: 1000}}}
	for _, mode := range []FastPathMode{FastPathOff, FastPathAuto} {
		for _, logged := range []bool{true, false} {
			cfg := faultCfg()
			cfg.FastPath = mode
			var baseLog, planLog EventLog
			var baseObs, planObs []Observer
			if logged {
				baseObs, planObs = []Observer{&baseLog}, []Observer{&planLog}
			}
			base, err := RunObserved(cfg, baseObs...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunWithFaults(cfg, plan, planObs...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(baseLog.Events, planLog.Events) {
				t.Fatalf("%v logged=%v: event logs differ (%d vs %d events)",
					mode, logged, len(baseLog.Events), len(planLog.Events))
			}
			if f := res.Faults; f == nil || f.Activations != 0 || f.Retries != 0 ||
				f.Checkpoints != 0 || f.Preemptions != 0 {
				t.Fatalf("%v logged=%v: neutral plan report %+v", mode, logged, f)
			}
			if ivs, ok := res.Timeline.Lanes[LaneFaults]; !ok || len(ivs) != 0 {
				t.Fatalf("%v logged=%v: faults lane = %v (present %v), want empty", mode, logged, ivs, ok)
			}
			got := *res
			got.Faults = nil
			lanes := map[string][]Interval{}
			for name, ivs := range res.Timeline.Lanes {
				if name != LaneFaults {
					lanes[name] = ivs
				}
			}
			got.Timeline = &Timeline{Lanes: lanes}
			if !reflect.DeepEqual(*base, got) {
				t.Errorf("%v logged=%v: neutral plan result differs from the fault-free run:\n%+v\n%+v",
					mode, logged, *base, got)
			}
		}
	}
}

// The same plan must replay byte-identically: equal event logs and
// equal results across repeated runs.
func TestFaultDeterministicReplay(t *testing.T) {
	plan := &fault.Plan{
		Seed:        7,
		Stragglers:  []fault.Straggler{{Lane: "gpu", Factor: 1.5, FromStep: 8}},
		Links:       []fault.LinkFault{{Lane: "pcie-h2d", BandwidthFrac: 0.5, Period: 8, Up: 2}},
		Transients:  []fault.Transient{{Lane: "compute", Prob: 0.2, RetryCost: 0.005}},
		Preemptions: []fault.Preemption{{At: 2, RestartDelay: 5}},
		Checkpoint:  fault.Checkpoint{Interval: 1, ReplayFrac: 1},
	}
	var logA, logB EventLog
	resA, err := RunWithFaults(faultCfg(), plan, &logA)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := RunWithFaults(faultCfg(), plan, &logB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(logA.Events, logB.Events) {
		t.Fatalf("event logs differ across replays (%d vs %d events)", len(logA.Events), len(logB.Events))
	}
	if *resA.Faults != *resB.Faults {
		t.Errorf("fault reports differ: %+v vs %+v", resA.Faults, resB.Faults)
	}
	if resA.TimeToTrain != resB.TimeToTrain {
		t.Errorf("TTT differs: %v vs %v", resA.TimeToTrain, resB.TimeToTrain)
	}
	if resA.Faults.Activations == 0 || resA.Faults.Retries == 0 ||
		resA.Faults.Checkpoints == 0 || resA.Faults.Preemptions == 0 {
		t.Errorf("plan exercised nothing: %+v", resA.Faults)
	}
}

// Every new event kind must reach observers and the Chrome trace.
func TestFaultEventsInTrace(t *testing.T) {
	plan := &fault.Plan{
		Seed:        3,
		Stragglers:  []fault.Straggler{{Lane: "gpu", Factor: 2}},
		Transients:  []fault.Transient{{Lane: "compute", Prob: 0.4, RetryCost: 0.01}},
		Preemptions: []fault.Preemption{{At: 1, RestartDelay: 2}},
		Checkpoint:  fault.Checkpoint{Interval: 0.5, ReplayFrac: 0.5},
	}
	var log EventLog
	res, err := RunWithFaults(faultCfg(), plan, &log)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[EventKind]int{}
	for _, ev := range log.Events {
		seen[ev.Kind]++
		if ev.Kind == EvFaultInjected || ev.Kind == EvRestarted {
			if ev.Lane != LaneFaults {
				t.Errorf("%v event on lane %q, want %q", ev.Kind, ev.Lane, LaneFaults)
			}
			if ev.Note == "" {
				t.Errorf("%v event has no note", ev.Kind)
			}
		}
	}
	for _, k := range []EventKind{EvFaultInjected, EvStageRetried, EvCheckpointSaved, EvRestarted} {
		if seen[k] == 0 {
			t.Errorf("no %v events published", k)
		}
	}

	var sb strings.Builder
	if err := res.Timeline.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	trace := sb.String()
	for _, want := range []string{`"faults"`, "straggler gpu", "retried", "snapshot", "restart"} {
		if !strings.Contains(trace, want) {
			t.Errorf("Chrome trace missing %q", want)
		}
	}
}

// Straggler severity must inflate step time and time-to-train
// monotonically — the fault-sensitivity experiment's core invariant.
func TestStragglerMonotone(t *testing.T) {
	prevStep, prevTTT := 0.0, 0.0
	for _, sev := range []float64{1, 1.25, 1.5, 2, 3} {
		plan := &fault.Plan{}
		if sev > 1 {
			plan.Stragglers = []fault.Straggler{{Lane: "gpu", Factor: sev}}
		}
		res, err := RunWithFaults(faultCfg(), plan)
		if err != nil {
			t.Fatal(err)
		}
		if res.StepTime <= prevStep {
			t.Errorf("severity %v: step time %v not above %v", sev, res.StepTime, prevStep)
		}
		if ttt := res.TimeToTrain.Seconds(); ttt <= prevTTT {
			t.Errorf("severity %v: TTT %v not above %v", sev, ttt, prevTTT)
		} else {
			prevTTT = ttt
		}
		prevStep = res.StepTime
	}
}

// A gpu-lane straggler of factor f must scale the steady-state step
// time by ~f on a compute-bound job (the gpu lane is the bottleneck).
func TestStragglerQuantitative(t *testing.T) {
	base, err := Run(faultCfg())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWithFaults(faultCfg(), &fault.Plan{
		Stragglers: []fault.Straggler{{Lane: "gpu", Factor: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.StepTime / base.StepTime
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("x2 gpu straggler scaled step time by %.3f, want ~2", ratio)
	}
}

// Checkpointing must inflate TTT by exactly the analytic cost/interval
// fraction, with the in-window snapshot writes excluded from the
// steady-state step-time estimate (no double counting).
func TestCheckpointAccounting(t *testing.T) {
	base, err := Run(faultCfg())
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{Checkpoint: fault.Checkpoint{Interval: 100, ReplayFrac: 1}}
	res, err := RunWithFaults(faultCfg(), plan)
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Faults
	if fr.CheckpointCost <= 0 || fr.CheckpointOverheadFrac <= 0 {
		t.Fatalf("checkpoint model inert: %+v", fr)
	}
	if got := fr.CheckpointCost / 100; math.Abs(got-fr.CheckpointOverheadFrac) > 1e-12 {
		t.Errorf("overhead frac %v != cost/interval %v", fr.CheckpointOverheadFrac, got)
	}
	// Steady-state step time is unchanged (snapshots are excluded) and
	// TTT carries exactly the analytic surcharge.
	if math.Abs(res.StepTime-base.StepTime) > 1e-9 {
		t.Errorf("checkpointing leaked into step time: %v vs %v", res.StepTime, base.StepTime)
	}
	want := base.TimeToTrain.Seconds() * (1 + fr.CheckpointOverheadFrac)
	if got := res.TimeToTrain.Seconds(); math.Abs(got-want) > want*1e-9 {
		t.Errorf("TTT = %v, want %v (analytic surcharge)", got, want)
	}
}

// Preemptions charge restart + replay once each, whether they fire
// inside the simulated window or are charged analytically beyond it.
func TestPreemptionAccounting(t *testing.T) {
	base, err := Run(faultCfg())
	if err != nil {
		t.Fatal(err)
	}
	// At: far beyond the simulated window → charged analytically.
	plan := &fault.Plan{
		Preemptions: []fault.Preemption{{At: 1e6, RestartDelay: 300}},
		Checkpoint:  fault.Checkpoint{Interval: 100, ReplayFrac: 1},
	}
	res, err := RunWithFaults(faultCfg(), plan)
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Faults
	if fr.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", fr.Preemptions)
	}
	// Replay of at most one 100s interval plus the 300s delay.
	if fr.RestartSeconds < 300 || fr.RestartSeconds > 400 {
		t.Errorf("restart seconds = %v, want within [300, 400]", fr.RestartSeconds)
	}
	ckptOnly := base.TimeToTrain.Seconds() * (1 + fr.CheckpointOverheadFrac)
	if got := res.TimeToTrain.Seconds(); math.Abs(got-(ckptOnly+fr.RestartSeconds)) > 1e-6 {
		t.Errorf("TTT = %v, want checkpointed %v + restart %v", got, ckptOnly, fr.RestartSeconds)
	}

	// An in-window preemption stalls every lane: the run takes longer in
	// simulated time, yet step time stays clean (the stall is excluded).
	plan2 := &fault.Plan{Preemptions: []fault.Preemption{{At: 0.5, RestartDelay: 4}}}
	var log EventLog
	res2, err := RunWithFaults(faultCfg(), plan2, &log)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Faults.Preemptions != 1 || res2.Faults.RestartSeconds < 4 {
		t.Fatalf("in-window preemption not fired: %+v", res2.Faults)
	}
	if math.Abs(res2.StepTime-base.StepTime) > base.StepTime*0.05 {
		t.Errorf("restart stall leaked into step time: %v vs %v", res2.StepTime, base.StepTime)
	}
	restarts := 0
	for _, ev := range log.Events {
		if ev.Kind == EvRestarted {
			restarts++
		}
	}
	if restarts != 1 {
		t.Errorf("restart events = %d, want 1", restarts)
	}
}

// Invalid plans are rejected up front, before any simulation.
func TestRunWithFaultsRejectsInvalid(t *testing.T) {
	_, err := RunWithFaults(faultCfg(), &fault.Plan{
		Stragglers: []fault.Straggler{{Lane: "gpu", Factor: 0.5}},
	})
	if err == nil {
		t.Fatal("invalid plan accepted")
	}
}

// FuzzRunWithFaults feeds arbitrary plan JSON into the full simulator:
// whatever the bytes, the simulator must never panic, and every
// accepted plan must yield finite, positive timings.
func FuzzRunWithFaults(f *testing.F) {
	f.Add("")
	f.Add(`{"Seed":1,"Stragglers":[{"Lane":"gpu","Factor":2}]}`)
	f.Add(`{"Links":[{"Lane":"pcie-h2d","BandwidthFrac":0.5,"Period":4,"Up":1}]}`)
	f.Add(`{"Transients":[{"Lane":"compute","Prob":0.3,"RetryCost":0.01}]}`)
	f.Add(`{"Preemptions":[{"At":0.5,"RestartDelay":2}],"Checkpoint":{"Interval":0.5,"ReplayFrac":1}}`)
	f.Add(`{"Stragglers":[{"Lane":"nonexistent-lane","Factor":3}]}`)
	f.Fuzz(func(t *testing.T, s string) {
		plan, err := fault.Parse(s)
		if err != nil {
			return
		}
		cfg := faultCfg()
		cfg.Steps = 8 // keep each fuzz execution cheap
		res, err := RunWithFaults(cfg, plan, &EventLog{})
		if err != nil {
			return // rejected (e.g. stacked-multiplier overflow) is fine
		}
		ttt := res.TimeToTrain.Seconds()
		if math.IsNaN(res.StepTime) || math.IsInf(res.StepTime, 0) || res.StepTime <= 0 {
			t.Fatalf("step time %v from plan %q", res.StepTime, s)
		}
		if math.IsNaN(ttt) || math.IsInf(ttt, 0) || ttt <= 0 {
			t.Fatalf("TTT %v from plan %q", ttt, s)
		}
		if math.IsNaN(res.Throughput) || res.Throughput <= 0 {
			t.Fatalf("throughput %v from plan %q", res.Throughput, s)
		}
	})
}
