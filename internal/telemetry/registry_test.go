package telemetry

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	c := r.Counter("x_total")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter value %d", c.Value())
	}
	g := r.Gauge("x")
	g.Set(3)
	g.Add(1)
	g.Max(10)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value %v", g.Value())
	}
	h := r.Histogram("x_seconds", LatencyBuckets)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil histogram recorded %d/%v", h.Count(), h.Sum())
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
	if r.Tracer() != nil {
		t.Fatal("nil registry tracer not nil")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	c := r.Counter("cells_total", L("kind", "hit"))
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters only go up
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if again := r.Counter("cells_total", L("kind", "hit")); again != c {
		t.Fatal("same name+labels returned a different counter")
	}
	if other := r.Counter("cells_total", L("kind", "miss")); other == c {
		t.Fatal("different labels shared a counter")
	}

	g := r.Gauge("occupancy")
	g.Set(2)
	g.Add(0.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	g.Max(1) // below current: no-op
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge after Max(1) = %v, want 2.5", got)
	}
	g.Max(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge after Max(7) = %v, want 7", got)
	}

	h := r.Histogram("lat_seconds", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 100, math.NaN()} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("histogram count %d, want 4 (NaN dropped)", h.Count())
	}
	if h.Sum() != 105 {
		t.Fatalf("histogram sum %v, want 105", h.Sum())
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("buckets %v %v", bounds, cum)
	}
	want := []int64{1, 2, 3, 4} // cumulative: <=1, <=2, <=4, +Inf
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (%v)", i, cum[i], w, cum)
		}
	}
}

func TestLabelCanonicalization(t *testing.T) {
	r := New()
	a := r.Counter("x_total", L("b", "2"), L("a", "1"))
	b := r.Counter("x_total", L("a", "1"), L("b", "2"))
	if a != b {
		t.Fatal("label order changed instrument identity")
	}
}

// The label suffix quotes each value exactly as %q does, so the
// /metrics text keeps its bytes.
func TestLabelIDQuotesLikePercentQ(t *testing.T) {
	for _, v := range []string{"", "plain", `a "quoted" \ value`, "tab\tnew\nline", "ünï code", "\x00\xff"} {
		want := fmt.Sprintf("{a=%q,b=%q}", v, v+"2")
		if got := labelID([]Label{L("b", v+"2"), L("a", v)}); got != want {
			t.Errorf("labelID(%q) = %s, want %s", v, got, want)
		}
	}
}

// Looking up an instrument that already exists allocates nothing, so
// hot paths may look their instruments up on every event.
func TestLookupOfExistingInstrumentAllocatesNothing(t *testing.T) {
	r := New()
	r.Counter("req_total", L("endpoint", "sweep"), L("code", "200")).Inc()
	r.Gauge("depth", L("queue", "admit")).Set(1)
	r.Histogram("req_seconds", LatencyBuckets, L("endpoint", "sweep")).Observe(0.01)
	for name, lookup := range map[string]func(){
		"Counter":   func() { r.Counter("req_total", L("endpoint", "sweep"), L("code", "200")).Inc() },
		"Gauge":     func() { r.Gauge("depth", L("queue", "admit")).Max(2) },
		"Histogram": func() { r.Histogram("req_seconds", LatencyBuckets, L("endpoint", "sweep")).Observe(0.01) },
		"Count":     func() { r.Count("req_total", L("code", "200"), L("endpoint", "sweep")) },
	} {
		if n := testing.AllocsPerRun(100, lookup); n != 0 {
			t.Errorf("%s lookup of an existing instrument: %.0f allocs, want 0", name, n)
		}
	}
}

func TestInvalidMetricNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad metric name did not panic")
		}
	}()
	New().Counter("bad name")
}

func TestRegistryConcurrency(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	var src atomic.Int64 // a read-through source, re-registered while read
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("c_total").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h_seconds", LatencyBuckets).Observe(0.01)
				src.Add(1)
				r.CounterFunc("f_total", src.Load)
				r.Count("f_total")
			}
		}()
	}
	wg.Wait()
	if got := r.Count("f_total"); got != workers*per {
		t.Fatalf("read-through counter = %d, want %d", got, workers*per)
	}
	if got := r.Counter("c_total").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("g").Value(); got != workers*per {
		t.Fatalf("gauge = %v, want %d", got, workers*per)
	}
	if got := r.Histogram("h_seconds", nil).Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := New()
	r.Counter("z_total").Inc()
	r.Counter("a_total", L("k", "2")).Inc()
	r.Counter("a_total", L("k", "1")).Inc()
	r.Gauge("m").Set(1)
	r.Histogram("h_seconds", nil).Observe(0.5)
	snap := r.Snapshot()
	want := []string{"a_total" + labelID([]Label{L("k", "1")}), "a_total" + labelID([]Label{L("k", "2")}), "h_seconds", "m", "z_total"}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d entries, want %d", len(snap), len(want))
	}
	for i, mv := range snap {
		if mv.Name+mv.Labels != want[i] {
			t.Fatalf("snapshot[%d] = %s%s, want %s", i, mv.Name, mv.Labels, want[i])
		}
	}
}

func TestTracerHierarchyAndDeterminism(t *testing.T) {
	tr := NewTracer(nil) // tick clock: fully deterministic
	run := tr.Start(KindRun, "sweep", 0)
	cellA := tr.Start(KindSweepCell, "res50", run, "gpus=4")
	tr.End(cellA)
	cellB := tr.Start(KindSweepCell, "ncf", run)
	tr.End(cellB)
	tr.End(run)
	if n := tr.OpenCount(); n != 0 {
		t.Fatalf("%d spans left open", n)
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	if err := ValidateSpans(spans); err != nil {
		t.Fatal(err)
	}
	if spans[0].Kind != KindRun || spans[0].Parent != 0 {
		t.Fatalf("first span by start should be the run: %+v", spans[0])
	}
	for _, s := range spans[1:] {
		if s.Parent != spans[0].ID {
			t.Fatalf("cell span %q parent %d, want %d", s.Name, s.Parent, spans[0].ID)
		}
	}
	if spans[1].Attrs[0] != "gpus=4" {
		t.Fatalf("attrs lost: %+v", spans[1])
	}

	// Same sequence on a fresh tracer allocates identical IDs and times.
	tr2 := NewTracer(nil)
	run2 := tr2.Start(KindRun, "sweep", 0)
	a2 := tr2.Start(KindSweepCell, "res50", run2, "gpus=4")
	tr2.End(a2)
	b2 := tr2.Start(KindSweepCell, "ncf", run2)
	tr2.End(b2)
	tr2.End(run2)
	spans2 := tr2.Spans()
	for i := range spans {
		if spans[i].ID != spans2[i].ID || spans[i].Start != spans2[i].Start || spans[i].End != spans2[i].End {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, spans[i], spans2[i])
		}
	}
}

func TestNilTracerNoOp(t *testing.T) {
	var tr *Tracer
	id := tr.Start(KindRun, "x", 0)
	if id != 0 {
		t.Fatalf("nil tracer allocated id %d", id)
	}
	tr.End(id)
	tr.EndAt(id, 1)
	if tr.Spans() != nil || tr.OpenCount() != 0 {
		t.Fatal("nil tracer recorded spans")
	}
}

// Past the retention bound the tracer keeps only the most recently
// closed spans and counts the rest as dropped.
func TestTracerRetainsMostRecentClosed(t *testing.T) {
	const k = 5
	tr := NewTracer(nil)
	for i := 0; i < maxClosedSpans+k; i++ {
		tr.End(tr.Start(KindSweepCell, "cell", 0))
	}
	spans := tr.Spans()
	if len(spans) != maxClosedSpans {
		t.Fatalf("%d spans retained, want %d", len(spans), maxClosedSpans)
	}
	// The tick clock orders spans by ID, so the first k are exactly the
	// ones missing.
	for i, s := range spans {
		if want := SpanID(k + 1 + i); s.ID != want {
			t.Fatalf("spans[%d].ID = %d, want %d", i, s.ID, want)
		}
	}
	if closed, dropped := tr.SpanCounts(); closed != maxClosedSpans+k || dropped != k {
		t.Fatalf("SpanCounts = %d, %d; want %d, %d", closed, dropped, maxClosedSpans+k, k)
	}
}

// A run closes after its cells, so a cut through the middle of a run
// drops some of its cells but keeps the run: the retained spans still
// form a valid forest.
func TestTracerRetentionKeepsForest(t *testing.T) {
	tr := NewTracer(nil)
	const runs = maxClosedSpans/4 + 2
	for r := 0; r < runs; r++ {
		run := tr.Start(KindRun, "sweep", 0)
		for c := 0; c < 3; c++ {
			tr.End(tr.Start(KindSweepCell, "cell", run))
		}
		tr.End(run)
	}
	// Two more spans push the cut two cells into the third run.
	tr.End(tr.Start(KindRun, "tail", 0))
	tr.End(tr.Start(KindRun, "tail", 0))

	spans := tr.Spans()
	if err := ValidateSpans(spans); err != nil {
		t.Fatal(err)
	}
	first := spans[0]
	if first.Kind != KindRun {
		t.Fatalf("oldest retained span is %+v, want the cut run", first)
	}
	kids := 0
	for _, s := range spans {
		if s.Parent == first.ID {
			kids++
		}
	}
	if kids != 1 {
		t.Fatalf("cut run kept %d cells, want 1 (the cut must cross it)", kids)
	}
}

func TestValidateSpansRejectsBadForest(t *testing.T) {
	bad := []Span{{ID: 1, Parent: 99, Kind: KindRun, Name: "x", Start: 0, End: 1}}
	if err := ValidateSpans(bad); err == nil {
		t.Fatal("unknown parent accepted")
	}
	dup := []Span{{ID: 1, Name: "a", End: 1}, {ID: 1, Name: "b", End: 1}}
	if err := ValidateSpans(dup); err == nil {
		t.Fatal("duplicate id accepted")
	}
}

// Count reads counters and histogram sample counts by exact label set
// and never registers what it reads.
func TestCountReadsWithoutRegistering(t *testing.T) {
	r := New()
	r.Counter("a_total", L("k", "x"), L("code", "200")).Add(3)
	r.Histogram("b_seconds", LatencyBuckets, L("endpoint", "sweep")).Observe(0.1)
	if n := r.Count("a_total", L("code", "200"), L("k", "x")); n != 3 {
		t.Errorf("counter count %d, want 3", n)
	}
	if n := r.Count("b_seconds", L("endpoint", "sweep")); n != 1 {
		t.Errorf("histogram count %d, want 1", n)
	}
	if n := r.Count("a_total", L("k", "y")); n != 0 {
		t.Errorf("absent counter count %d, want 0", n)
	}
	if got := len(r.Snapshot()); got != 2 {
		t.Errorf("%d instruments after reads, want 2", got)
	}
	var nilReg *Registry
	if n := nilReg.Count("a_total"); n != 0 {
		t.Errorf("nil registry count %d", n)
	}
}

// A CounterFunc series is read through by every reader — the
// Prometheus text, Snapshot, Count and Counter(...).Value — and
// registering it again replaces its source.
func TestCounterFuncReadsThrough(t *testing.T) {
	r := New()
	var n int64 = 7
	r.CounterFunc("src_total", func() int64 { return n }, L("result", "hit"))
	read := func() []string {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		snap := r.Snapshot()
		if len(snap) != 1 {
			t.Fatalf("snapshot %+v, want one series", snap)
		}
		return []string{
			b.String(),
			fmt.Sprint(snap[0].Type, " ", snap[0].Value),
			fmt.Sprint(r.Count("src_total", L("result", "hit"))),
			fmt.Sprint(r.Counter("src_total", L("result", "hit")).Value()),
		}
	}
	want := func(v int64) []string {
		return []string{
			fmt.Sprintf("# TYPE src_total counter\nsrc_total{result=\"hit\"} %d\n", v),
			fmt.Sprint("counter ", v), fmt.Sprint(v), fmt.Sprint(v),
		}
	}
	if got := read(); !reflect.DeepEqual(got, want(7)) {
		t.Errorf("at 7 read %q, want %q", got, want(7))
	}
	n = 9 // the source moves; nothing is re-registered
	if got := read(); !reflect.DeepEqual(got, want(9)) {
		t.Errorf("at 9 read %q, want %q", got, want(9))
	}
	r.CounterFunc("src_total", func() int64 { return 40 }, L("result", "hit"))
	if got := read(); !reflect.DeepEqual(got, want(40)) {
		t.Errorf("replaced read %q, want %q", got, want(40))
	}
	var nilReg *Registry
	nilReg.CounterFunc("src_total", func() int64 { return 1 }) // no-op
}
