// Package telemetry is the reproduction's own measurement layer: a
// zero-dependency metrics registry (counters, gauges, histograms),
// hierarchical spans with injected clocks, a Prometheus text exporter
// with a strict parser, JSON run manifests, and Chrome-trace export.
//
// The paper's contribution is instrumentation — nvprof, dstat and dmon
// counters stitched into cross-workload analyses — and this package
// applies the same discipline to the harness itself: the sweep engine,
// the fault layer and the cluster scheduler all publish into one shared
// vocabulary, so the numbers behind every golden CSV carry provenance.
//
// Disabled means free: a nil *Registry (and every instrument it hands
// out) is valid and strictly no-op, so instrumented code pays one nil
// check when telemetry is off. All instruments are atomic and safe for
// concurrent use.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Version identifies the telemetry schema and tool generation; it is
// stamped into every manifest so archived runs are attributable.
const Version = "1.0.0"

// Label is one metric dimension ("kind"="compute", "policy"="srtf").
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// labelID renders labels in canonical sorted form: `{k="v",k2="v2"}`,
// or "" for none. The canonical form is what keys the registry maps and
// what the Prometheus exporter prints, so equal label sets always share
// one instrument.
func labelID(labels []Label) string {
	return string(appendKey(nil, "", labels))
}

// maxStackLabels is how many labels appendKey sorts without allocating;
// every instrument in the repository has at most two.
const maxStackLabels = 8

// appendKey appends the canonical instrument key to buf: name, then the
// labels sorted by key (insertion sort on a copy) with each value quoted
// as %q quotes it. A lookup builds the key in a stack buffer and indexes
// the maps with string(buf), which does not allocate.
func appendKey(buf []byte, name string, labels []Label) []byte {
	buf = append(buf, name...)
	if len(labels) == 0 {
		return buf
	}
	var stack [maxStackLabels]Label
	ls := append(stack[:0], labels...)
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j].Key < ls[j-1].Key; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
	buf = append(buf, '{')
	for i, l := range ls {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, l.Key...)
		buf = append(buf, '=')
		buf = strconv.AppendQuote(buf, l.Value)
	}
	return append(buf, '}')
}

// validName reports whether s is a legal Prometheus metric or label
// name: [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing integer metric. A nil Counter
// is valid and no-op.
type Counter struct {
	name string
	id   string
	v    atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float metric that can go up and down. A nil Gauge is valid
// and no-op.
type Gauge struct {
	name string
	id   string
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add applies a delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Max raises the gauge to v if v exceeds the current value — a
// high-water mark (peak queue depth, peak occupancy).
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution metric. Buckets are upper
// bounds in increasing order; an implicit +Inf bucket catches the rest.
// A nil Histogram is valid and no-op.
type Histogram struct {
	name    string
	id      string
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1, last is +Inf
	sumBits atomic.Uint64
	count   atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total sample count (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets returns cumulative counts per upper bound, +Inf last.
func (h *Histogram) Buckets() (bounds []float64, cumulative []int64) {
	if h == nil {
		return nil, nil
	}
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]int64, len(h.counts))
	var acc int64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return bounds, cumulative
}

// LatencyBuckets is the fixed default layout for second-denominated
// durations: 1ms to ~16s in powers of two. Fixed layouts keep exported
// histograms comparable across runs and PRs — the property later perf
// work regresses against.
var LatencyBuckets = []float64{
	0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128,
	0.256, 0.512, 1.024, 2.048, 4.096, 8.192, 16.384,
}

// SimSecondsBuckets is the fixed layout for simulated durations, which
// span microseconds (one kernel) to days (a full training run).
var SimSecondsBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 60, 600, 3600, 6 * 3600, 24 * 3600, 7 * 24 * 3600,
}

// Registry owns a process- or run-scoped set of named instruments plus
// the span Tracer. A nil *Registry is valid: every lookup returns a nil
// instrument and every operation no-ops, which is the "telemetry
// disabled" mode the golden byte-identity tests pin.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	tracer   *Tracer
}

// New returns an enabled registry whose tracer reads a monotonic wall
// clock anchored at creation.
func New() *Registry {
	start := time.Now()
	return NewWithClock(func() float64 { return time.Since(start).Seconds() })
}

// NewWithClock returns a registry whose span tracer reads the injected
// clock — a simulated or step-counter clock keeps span replay
// deterministic.
func NewWithClock(clock func() float64) *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		tracer:   NewTracer(clock),
	}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// Tracer returns the registry's span tracer (nil on a nil registry).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Now reads the registry's clock (the tracer's), so durations measured
// by instrumented code share the span time base — wall seconds on New,
// deterministic ticks or simulated time under NewWithClock. A nil
// registry reads 0.
func (r *Registry) Now() float64 {
	if r == nil {
		return 0
	}
	return r.tracer.Now()
}

// keyBuf is the stack buffer a lookup builds its key in; a longer key
// spills to the heap.
type keyBuf [128]byte

// register validates name and labels, panicking on a malformed one
// (instrument names are compile-time constants, so a bad one is a
// programming error the first test run should catch), and returns the
// key to store the new instrument under and its label suffix. It runs
// only when an instrument is first registered.
func register(name string, labels []Label, key []byte) (full, id string) {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l.Key, name))
		}
	}
	full = string(key)
	return full, full[len(name):]
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	var kb keyBuf
	k := appendKey(kb[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[string(k)]
	if !ok {
		full, id := register(name, labels, k)
		c = &Counter{name: name, id: id}
		r.counters[full] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	var kb keyBuf
	k := appendKey(kb[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[string(k)]
	if !ok {
		full, id := register(name, labels, k)
		g = &Gauge{name: name, id: id}
		r.gauges[full] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram with
// the given bucket layout. The first registration fixes the layout;
// later lookups reuse it regardless of the buckets argument, keeping
// layouts stable within a run.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	var kb keyBuf
	k := appendKey(kb[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[string(k)]
	if !ok {
		full, id := register(name, labels, k)
		if len(buckets) == 0 {
			buckets = LatencyBuckets
		}
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		h = &Histogram{name: name, id: id, bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		r.hists[full] = h
	}
	return h
}

// Count reads the instrument name{labels} without registering it: a
// counter's value or a histogram's sample count, 0 when neither exists
// (or on a nil registry). A read never adds a sample to /metrics.
func (r *Registry) Count(name string, labels ...Label) int64 {
	if r == nil {
		return 0
	}
	var kb keyBuf
	k := appendKey(kb[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[string(k)]; ok {
		return c.Value()
	}
	if h, ok := r.hists[string(k)]; ok {
		return h.Count()
	}
	return 0
}

// MetricValue is one instrument's snapshot, flattened for manifests and
// the inspector CLI.
type MetricValue struct {
	// Name is the metric name without labels.
	Name string `json:"name"`
	// Labels is the canonical label suffix (`{k="v"}`), or "".
	Labels string `json:"labels,omitempty"`
	// Type is "counter", "gauge" or "histogram".
	Type string `json:"type"`
	// Value is the counter count, gauge value, or histogram sum.
	Value float64 `json:"value"`
	// Count is the histogram sample count (0 otherwise).
	Count int64 `json:"count,omitempty"`
}

// Snapshot returns every instrument's current value in deterministic
// (name, labels) order.
func (r *Registry) Snapshot() []MetricValue {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MetricValue, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for _, c := range r.counters {
		out = append(out, MetricValue{Name: c.name, Labels: c.id, Type: "counter", Value: float64(c.Value())})
	}
	for _, g := range r.gauges {
		out = append(out, MetricValue{Name: g.name, Labels: g.id, Type: "gauge", Value: g.Value()})
	}
	for _, h := range r.hists {
		out = append(out, MetricValue{Name: h.name, Labels: h.id, Type: "histogram", Value: h.Sum(), Count: h.Count()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}
