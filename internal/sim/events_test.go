package sim

import (
	"math"
	"strings"
	"testing"

	"mlperf/internal/hw"
)

// runLogged runs the test job with an EventLog attached.
func runLogged(t *testing.T, gpus int) (*Result, *EventLog) {
	t.Helper()
	log := &EventLog{}
	res, err := Run(Config{System: hw.C4140K(), GPUCount: gpus, Job: testJob()}, log)
	if err != nil {
		t.Fatal(err)
	}
	return res, log
}

func TestEventStreamShape(t *testing.T) {
	res, log := runLogged(t, 2)
	if len(log.Events) == 0 {
		t.Fatal("no events published")
	}
	const steps = 32 // Config.Steps default
	counts := map[EventKind]int{}
	for _, ev := range log.Events {
		counts[ev.Kind]++
		if ev.Kind == EvStepDone {
			if ev.Start != ev.End {
				t.Errorf("step-done %d is not a point marker: %+v", ev.Step, ev)
			}
			continue
		}
		if ev.End <= ev.Start {
			t.Errorf("degenerate span %+v", ev)
		}
		if ev.Step < 0 || ev.Step >= steps {
			t.Errorf("event step %d out of range", ev.Step)
		}
		wantLane := map[EventKind]string{
			EvInput: LaneCPU, EvH2D: LanePCIe,
			EvCompute: LaneGPU, EvAllReduce: LaneGPU, EvOptimizer: LaneGPU,
		}[ev.Kind]
		if ev.Lane != wantLane {
			t.Errorf("%s event on lane %q, want %q", ev.Kind, ev.Lane, wantLane)
		}
	}
	for kind, want := range map[EventKind]int{
		EvInput: steps, EvH2D: steps, EvCompute: steps,
		EvAllReduce: steps, EvOptimizer: steps, EvStepDone: steps,
	} {
		if counts[kind] != want {
			t.Errorf("%s: %d events, want %d", kind, counts[kind], want)
		}
	}
	if res.ExposedComm <= 0 {
		t.Error("2-GPU run should expose some collective time")
	}
}

func TestEventStreamSingleGPUHasNoAllReduce(t *testing.T) {
	_, log := runLogged(t, 1)
	for _, ev := range log.Events {
		if ev.Kind == EvAllReduce {
			t.Fatalf("single-GPU run published an all-reduce event: %+v", ev)
		}
	}
}

// TestPhaseTotalsMatchPhases pins the counter-observer contract: summing
// event durations per kind over the whole run reproduces the per-step
// phase breakdown times the step count.
func TestPhaseTotalsMatchPhases(t *testing.T) {
	totals := NewPhaseTotals()
	res, err := Run(Config{System: hw.C4140K(), GPUCount: 4, Job: testJob(), Steps: 16}, totals)
	if err != nil {
		t.Fatal(err)
	}
	if totals.Steps != 16 {
		t.Fatalf("counted %d steps, want 16", totals.Steps)
	}
	approx := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
	}
	for _, c := range []struct {
		kind EventKind
		want float64
	}{
		{EvInput, res.Input * 16},
		{EvH2D, res.H2D * 16},
		{EvAllReduce, res.ExposedComm * 16},
	} {
		if !approx(totals.Seconds[c.kind], c.want) {
			t.Errorf("%s total %v, want %v", c.kind, totals.Seconds[c.kind], c.want)
		}
	}
	// The gpu lane tiles exactly: compute+allreduce+optimizer account for
	// the whole occupancy (the final slice absorbs the span's rounding).
	gpuTotal := totals.Seconds[EvCompute] + totals.Seconds[EvAllReduce] + totals.Seconds[EvOptimizer]
	if want := (res.Compute + res.ExposedComm + res.Optimizer) * 16; !approx(gpuTotal, want) {
		t.Errorf("gpu phase totals %v, want %v", gpuTotal, want)
	}
	if totals.FLOPs[EvCompute] <= 0 {
		t.Error("compute events carry no FLOPs")
	}
	if totals.Bytes[EvH2D] <= 0 || totals.Bytes[EvAllReduce] <= 0 {
		t.Error("copy/collective events carry no bytes")
	}
}

// TestTimelineMatchesEventStream: the Result's timeline is itself an
// observer product, so an external TimelineObserver fed the same stream
// must reconstruct it exactly.
func TestTimelineMatchesEventStream(t *testing.T) {
	ext := NewTimelineObserver(LaneCPU, LanePCIe, LaneGPU)
	res, err := Run(Config{System: hw.C4140K(), GPUCount: 2, Job: testJob()}, ext)
	if err != nil {
		t.Fatal(err)
	}
	got := ext.Timeline()
	if len(got.Lanes) != len(res.Timeline.Lanes) {
		t.Fatalf("lane count %d != %d", len(got.Lanes), len(res.Timeline.Lanes))
	}
	for lane, want := range res.Timeline.Lanes {
		have := got.Lanes[lane]
		if len(have) != len(want) {
			t.Fatalf("lane %s: %d intervals != %d", lane, len(have), len(want))
		}
		for i := range want {
			if have[i] != want[i] {
				t.Fatalf("lane %s[%d]: %+v != %+v", lane, i, have[i], want[i])
			}
		}
	}
}

// TestObserversDoNotPerturbResult: attaching observers must not change
// the simulation outcome (they watch; they do not steer).
func TestObserversDoNotPerturbResult(t *testing.T) {
	plain, err := Run(Config{System: hw.DSS8440(), GPUCount: 4, Job: testJob()})
	if err != nil {
		t.Fatal(err)
	}
	watched, err := Run(Config{System: hw.DSS8440(), GPUCount: 4, Job: testJob()},
		&EventLog{}, NewPhaseTotals(), Discard)
	if err != nil {
		t.Fatal(err)
	}
	if plain.StepTime != watched.StepTime ||
		plain.TimeToTrain != watched.TimeToTrain ||
		plain.CPUUtil != watched.CPUUtil ||
		plain.GPUUtilTotal != watched.GPUUtilTotal ||
		plain.PCIeRate != watched.PCIeRate ||
		plain.NVLinkRate != watched.NVLinkRate {
		t.Errorf("observers perturbed the result:\nplain   %+v\nwatched %+v", plain, watched)
	}
}

func TestEventLabels(t *testing.T) {
	ev := Event{Kind: EvCompute, Step: 7}
	if ev.Label() != "compute 7" {
		t.Errorf("label = %q", ev.Label())
	}
	kinds := []EventKind{EvInput, EvH2D, EvCompute, EvAllReduce, EvOptimizer, EvStepDone}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "EventKind(") || seen[s] {
			t.Errorf("kind %d stringifies to %q", k, s)
		}
		seen[s] = true
	}
	if got := EventKind(200).String(); got != "EventKind(200)" {
		t.Errorf("out-of-range kind stringifies to %q, want EventKind(200)", got)
	}
}

// TestEventKindStringIsTotal pins satellite coverage: every declared
// kind — the seven EvJob* cluster kinds and the four fault kinds
// included — must map to a stable human label, never the raw
// "EventKind(%d)" fallback, and no two kinds may collide.
func TestEventKindStringIsTotal(t *testing.T) {
	kinds := EventKinds()
	if len(kinds) != int(evKindCount) || len(kinds) < 17 {
		t.Fatalf("EventKinds() returned %d kinds, want %d (>= 17)", len(kinds), evKindCount)
	}
	var jobKinds, faultKinds int
	seen := map[string]EventKind{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "EventKind(") {
			t.Errorf("kind %d has no name: String() = %q", k, s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share the label %q", prev, k, s)
		}
		seen[s] = k
		switch k {
		case EvJobSubmitted, EvJobPlaced, EvJobPreempted, EvJobCheckpointed,
			EvJobResumed, EvJobCompleted, EvJobRan:
			jobKinds++
		case EvFaultInjected, EvStageRetried, EvCheckpointSaved, EvRestarted:
			faultKinds++
		}
	}
	if jobKinds != 7 {
		t.Errorf("%d EvJob* kinds enumerated, want 7", jobKinds)
	}
	if faultKinds != 4 {
		t.Errorf("%d fault kinds enumerated, want 4", faultKinds)
	}
}

func BenchmarkRunNoObservers(b *testing.B) {
	cfg := Config{System: hw.C4140K(), GPUCount: 4, Job: testJob()}
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunWithEventLog(b *testing.B) {
	cfg := Config{System: hw.C4140K(), GPUCount: 4, Job: testJob()}
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, &EventLog{}); err != nil {
			b.Fatal(err)
		}
	}
}
