package sim

import (
	"math"
	"testing"

	"mlperf/internal/hw"
	"mlperf/internal/telemetry"
)

func TestTelemetryObserverCountsMatchEventStream(t *testing.T) {
	reg := telemetry.New()
	log := &EventLog{}
	res, err := Run(
		Config{System: hw.C4140K(), GPUCount: 4, Job: testJob(), Steps: 16},
		log, NewTelemetryObserver(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[EventKind]int64{}
	var maxEnd float64
	for _, ev := range log.Events {
		counts[ev.Kind]++
		maxEnd = math.Max(maxEnd, ev.End)
	}
	for _, k := range EventKinds() {
		got := reg.Counter(MetricEventsTotal, telemetry.L("kind", k.String())).Value()
		if got != counts[k] {
			t.Errorf("%s counter = %d, want %d", k, got, counts[k])
		}
		if k == EvStepDone {
			continue
		}
		if h := reg.Histogram(MetricStageSeconds, nil, telemetry.L("kind", k.String())); h.Count() != counts[k] {
			t.Errorf("%s histogram count = %d, want %d", k, h.Count(), counts[k])
		}
	}
	if got := reg.Counter(MetricStepsTotal).Value(); got != 16 {
		t.Errorf("steps counter = %d, want 16", got)
	}
	if got := reg.Gauge(MetricSimSeconds).Value(); got != maxEnd {
		t.Errorf("simulated clock gauge = %v, want %v", got, maxEnd)
	}
	// Histogram sums reproduce the per-kind busy time the simulator
	// reports (events are the single source of truth for both).
	h := reg.Histogram(MetricStageSeconds, nil, telemetry.L("kind", EvAllReduce.String()))
	if want := res.ExposedComm * 16; math.Abs(h.Sum()-want) > 1e-9*math.Max(1, want) {
		t.Errorf("allreduce histogram sum %v, want %v", h.Sum(), want)
	}
}

func TestTelemetryObserverNilRegistryIsNoOp(t *testing.T) {
	obs := NewTelemetryObserver(nil)
	plain, err := Run(Config{System: hw.C4140K(), GPUCount: 2, Job: testJob()})
	if err != nil {
		t.Fatal(err)
	}
	watched, err := Run(Config{System: hw.C4140K(), GPUCount: 2, Job: testJob()}, obs)
	if err != nil {
		t.Fatal(err)
	}
	if plain.StepTime != watched.StepTime || plain.TimeToTrain != watched.TimeToTrain {
		t.Errorf("nil-registry observer perturbed the run: %+v vs %+v", plain, watched)
	}
	// Out-of-range kinds must not panic either way.
	obs.OnEvent(Event{Kind: EventKind(250)})
	NewTelemetryObserver(telemetry.New()).OnEvent(Event{Kind: EventKind(250)})
}
