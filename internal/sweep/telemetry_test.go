package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"mlperf/internal/telemetry"
)

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
	if _, _, err := e.RunCellsWithOptions(context.Background(), keys, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.RunCellsWithOptions(context.Background(), keys, Options{}); err != nil { // all hits
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
	// One run span per run, one cell span per simulated cell; hits add
	// none.
	spans := reg.Tracer().Spans()
	cells := 0
	for _, s := range spans {
		if s.Kind == telemetry.KindSweepCell {
			cells++
		}
	}
	if cells != 3 || len(spans) != 2+3 {
		t.Fatalf("%d spans, %d of them cells: want 2 runs + 3 cells", len(spans), cells)
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
	e := fakeEngine(1, func(CellKey) (Record, error) {
		panic("boom")
	})
	e.SetTelemetry(reg)
	keys := normKeys(t, 1)
	_, report, err := e.RunCellsWithOptions(context.Background(), keys, Options{Partial: true})
	if err != nil || len(report.Failures) != 1 || report.Failures[0].Kind != FailPanic {
		t.Fatalf("run: %v %+v, want one panic failure", err, report)
	}
	if got := reg.Counter(MetricFailures, telemetry.L("kind", string(FailPanic))).Value(); got != 1 {
		t.Errorf("panic failure counter = %d, want 1", got)
	}
}

// The registry reads the engine's own cache counters: the six series
// exist at 0 from the moment a registry is attached, every one equals
// the engine's Stats, an entry the record codec rejects is one disk
// miss in both, and attaching the registry to another engine makes it
// read that engine instead.
func TestEngineCacheSeriesReadTheEngine(t *testing.T) {
	series := func(reg *telemetry.Registry) map[string]int64 {
		return map[string]int64{
			"hit":       reg.Count(MetricCacheTotal, telemetry.L("result", "hit")),
			"miss":      reg.Count(MetricCacheTotal, telemetry.L("result", "miss")),
			"disk hit":  reg.Count(MetricDiskCacheTotal, telemetry.L("result", "hit")),
			"disk miss": reg.Count(MetricDiskCacheTotal, telemetry.L("result", "miss")),
			"disk errors": reg.Count(MetricDiskErrors, telemetry.L("op", "get")) +
				reg.Count(MetricDiskErrors, telemetry.L("op", "put")),
		}
	}
	of := func(st CacheStats) map[string]int64 {
		return map[string]int64{
			"hit": st.Hits, "miss": st.Misses, "disk hit": st.Disk.Hits, "disk miss": st.Disk.Misses,
			"disk errors": st.DiskErrors,
		}
	}
	reg := telemetry.NewWithClock(nil)
	cold := NewEngine(2)
	cold.SetTelemetry(reg)
	if got := len(reg.Snapshot()); got != 6 {
		t.Fatalf("%d series at attach, want the 6 cache series", got)
	}
	if got, want := series(reg), of(CacheStats{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("series at attach %v, want %v", got, want)
	}

	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := storeGrid().Cells()
	if err != nil {
		t.Fatal(err)
	}
	// An intact envelope whose record the codec rejects: the CAS returns
	// it, the engine counts a disk miss and simulates.
	foreign, err := json.Marshal(storedRecord{Codec: RecordCodec + 1, Key: keys[0]})
	if err != nil {
		t.Fatal(err)
	}
	putRaw(t, ds, keys[0], foreign)
	cold.SetStore(ds)
	if _, err := cold.Run(storeGrid()); err != nil {
		t.Fatal(err)
	}
	st := cold.Stats()
	if got, want := series(reg), of(st); !reflect.DeepEqual(got, want) || st.Disk.Misses != int64(len(keys)) {
		t.Errorf("cold series %v, want %v with %d disk misses", got, want, len(keys))
	}

	warm := NewEngine(2)
	warm.SetStore(ds)
	warm.SetTelemetry(reg)
	if _, err := warm.Run(storeGrid()); err != nil {
		t.Fatal(err)
	}
	st = warm.Stats()
	if got, want := series(reg), of(st); !reflect.DeepEqual(got, want) || st.Disk.Hits != int64(len(keys)) {
		t.Errorf("warm series %v, want %v with %d disk hits", got, want, len(keys))
	}
}
