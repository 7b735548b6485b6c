package sweep

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mlperf/internal/telemetry"
)

// TestStatsMissCounterSurvivesRetry pins the regression the dedicated
// miss counter fixes: Misses used to be derived from len(cache), so a
// hardened retry — which forgets the poisoned entry before
// re-simulating — made two simulations look like one miss (and a
// forgotten-but-not-retried cell look like zero). Each started
// simulation must count.
func TestStatsMissCounterSurvivesRetry(t *testing.T) {
	keys := normKeys(t, 1)
	var attempts atomic.Int64
	e := fakeEngine(1, func(CellKey) (Record, error) {
		if attempts.Add(1) == 1 {
			panic("flaky once")
		}
		return Record{TimeToTrainMin: 1}, nil
	})
	_, report, err := e.RunCellsWithOptions(context.Background(), keys, Options{
		Retries: 2,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.RetriesUsed != 1 {
		t.Fatalf("retries used = %d, want 1", report.RetriesUsed)
	}
	stats := e.Stats()
	if stats.Misses != 2 {
		t.Errorf("Misses = %d, want 2 (both simulations), cache len is %d",
			stats.Misses, e.cache.Len())
	}
	if stats.Hits != 0 {
		t.Errorf("Hits = %d, want 0", stats.Hits)
	}

	// A cache hit afterwards moves only the hit counter.
	if _, err := e.Cell(keys[0]); err != nil {
		t.Fatal(err)
	}
	stats = e.Stats()
	if stats.Hits != 1 || stats.Misses != 2 {
		t.Errorf("after hit: %+v, want Hits=1 Misses=2", stats)
	}

	e.ResetCache()
	if s := e.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Errorf("ResetCache left counters %+v", s)
	}
}

func TestEngineTelemetryMetricsAndSpans(t *testing.T) {
	reg := telemetry.NewWithClock(nil) // deterministic tick clock
	e := fakeEngine(2, func(k CellKey) (Record, error) {
		return Record{TimeToTrainMin: float64(k.GPUs)}, nil
	})
	e.SetTelemetry(reg)
	if e.Telemetry() != reg {
		t.Fatal("Telemetry() lost the attached registry")
	}
	keys := normKeys(t, 3)
	if _, err := e.Cells(keys); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Cells(keys); err != nil { // all hits
		t.Fatal(err)
	}
	hit := reg.Counter(MetricCacheTotal, telemetry.L("result", "hit")).Value()
	miss := reg.Counter(MetricCacheTotal, telemetry.L("result", "miss")).Value()
	if hit != 3 || miss != 3 {
		t.Errorf("cache counters hit=%d miss=%d, want 3/3", hit, miss)
	}
	stats := e.Stats()
	if stats.Hits != hit || stats.Misses != miss {
		t.Errorf("Stats %+v disagrees with telemetry hit=%d miss=%d", stats, hit, miss)
	}
	if got := reg.Histogram(MetricCellSeconds, nil).Count(); got != 3 {
		t.Errorf("latency histogram has %d observations, want 3 (one per simulation)", got)
	}
	if peak := reg.Gauge(MetricWorkersPeak).Value(); peak < 1 {
		t.Errorf("worker peak gauge %v, want >= 1", peak)
	}
	if busy := reg.Gauge(MetricWorkersBusy).Value(); busy != 0 {
		t.Errorf("busy gauge %v after the run, want 0", busy)
	}
	// One span per simulated cell; hits add none.
	spans := reg.Tracer().Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	if err := telemetry.ValidateSpans(spans); err != nil {
		t.Fatal(err)
	}
}

func TestEngineTelemetryRunSpanParentsCells(t *testing.T) {
	reg := telemetry.NewWithClock(nil)
	e := fakeEngine(1, func(CellKey) (Record, error) { return Record{}, nil })
	e.SetTelemetry(reg)
	g := Grid{Benchmarks: []string{"res50_tf"}, Systems: []string{"dss8440"}, GPUCounts: []int{1, 2}}
	if _, err := e.Run(g); err != nil {
		t.Fatal(err)
	}
	spans := reg.Tracer().Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want run + 2 cells", len(spans))
	}
	var run telemetry.Span
	for _, s := range spans {
		if s.Kind == telemetry.KindRun {
			run = s
		}
	}
	if run.ID == 0 {
		t.Fatal("no run span recorded")
	}
	for _, s := range spans {
		if s.Kind == telemetry.KindSweepCell && s.Parent != run.ID {
			t.Errorf("cell span %q parent %d, want run %d", s.Name, s.Parent, run.ID)
		}
	}
	if reg.Tracer().OpenCount() != 0 {
		t.Error("spans left open after Run")
	}
}

// Two grid runs overlapping on one engine must each parent their cells
// to their own run span. The gates force the interleaving that used to
// misattribute: run A opens, run B opens while A's first cell is still
// simulating, and A's second cell starts while B is still open.
func TestConcurrentRunsParentCellsToOwnRunSpan(t *testing.T) {
	aStarted := make(chan struct{})
	bSimulating := make(chan struct{})
	aSecond := make(chan struct{})
	e := fakeEngine(1, func(k CellKey) (Record, error) {
		switch {
		case k.Benchmark == "MLPf_NCF_Py":
			close(bSimulating)
			<-aSecond
		case k.GPUs == 1:
			close(aStarted)
			<-bSimulating
		default:
			close(aSecond)
		}
		return Record{}, nil
	})
	reg := telemetry.NewWithClock(nil)
	e.SetTelemetry(reg)

	runA := []CellKey{key(1), key(2)}
	runB := []CellKey{{Benchmark: "ncf_py", System: "dss8440", GPUs: 1}}
	errA := make(chan error, 1)
	go func() {
		_, _, err := e.RunCellsWithOptions(context.Background(), runA, Options{})
		errA <- err
	}()
	<-aStarted
	if _, _, err := e.RunCellsWithOptions(context.Background(), runB, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := <-errA; err != nil {
		t.Fatal(err)
	}

	spans := reg.Tracer().Spans()
	if err := telemetry.ValidateSpans(spans); err != nil {
		t.Fatal(err)
	}
	// Each run span records its cell count; map it to the benchmark its
	// cells belong to.
	runOf := map[string]telemetry.SpanID{}
	for _, s := range spans {
		if s.Kind != telemetry.KindRun {
			continue
		}
		switch strings.Join(s.Attrs, ",") {
		case "cells=2":
			runOf["MLPf_Res50_TF"] = s.ID
		case "cells=1":
			runOf["MLPf_NCF_Py"] = s.ID
		}
	}
	if len(runOf) != 2 {
		t.Fatalf("run spans %v, want one per run", runOf)
	}
	cells := 0
	for _, s := range spans {
		if s.Kind != telemetry.KindSweepCell {
			continue
		}
		cells++
		bench := s.Name[:strings.IndexByte(s.Name, '/')]
		if s.Parent == 0 {
			t.Errorf("cell span %q is a root span", s.Name)
		} else if s.Parent != runOf[bench] {
			t.Errorf("cell span %q parents to %d, want its own run span %d", s.Name, s.Parent, runOf[bench])
		}
	}
	if cells != 3 {
		t.Errorf("%d cell spans, want 3", cells)
	}
}

// TestManifestSameSeedDeterministic pins the reproducibility criterion:
// two runs of the same grid on tick-clock registries produce manifests
// that are byte-identical once the wall-clock fields are stripped —
// metrics, spans, cache counters and simulated totals all replay.
func TestManifestSameSeedDeterministic(t *testing.T) {
	g := Grid{
		Benchmarks: []string{"res50_tf", "ncf_py"},
		Systems:    []string{"dss8440"},
		GPUCounts:  []int{1, 2},
	}
	runOnce := func() []byte {
		reg := telemetry.NewWithClock(nil)
		// One worker: with the tick clock, concurrent cells would
		// interleave clock reads and perturb span/latency values.
		e := NewEngine(1)
		e.SetTelemetry(reg)
		recs, err := e.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		m := telemetry.NewManifest("sweep-test")
		m.Config["bench"] = "res50_tf,ncf_py"
		m.Cells = len(recs)
		stats := e.Stats()
		m.CacheHits, m.CacheMisses = stats.Hits, stats.Misses
		for _, r := range recs {
			m.SimulatedSeconds += r.TimeToTrainMin * 60
		}
		m.Finish(reg, time.Second)
		m.StripVolatile()
		var b strings.Builder
		if err := m.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return []byte(b.String())
	}
	a, b := runOnce(), runOnce()
	if !bytes.Equal(a, b) {
		t.Errorf("same-seed manifests differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

func TestEngineTelemetryFailureCounters(t *testing.T) {
	reg := telemetry.NewWithClock(nil)
	var attempts atomic.Int64
	e := fakeEngine(1, func(CellKey) (Record, error) {
		if attempts.Add(1) == 1 {
			panic("boom")
		}
		return Record{}, nil
	})
	e.SetTelemetry(reg)
	keys := normKeys(t, 1)
	_, report, err := e.RunCellsWithOptions(context.Background(), keys, Options{
		Retries: 1,
		Backoff: time.Millisecond,
	})
	if err != nil || report.Failed() {
		t.Fatalf("run failed: %v %+v", err, report)
	}
	if got := reg.Counter(MetricFailures, telemetry.L("kind", string(FailPanic))).Value(); got != 1 {
		t.Errorf("panic failure counter = %d, want 1", got)
	}
	if got := reg.Counter(MetricRetries).Value(); got != 1 {
		t.Errorf("retries counter = %d, want 1", got)
	}
}
