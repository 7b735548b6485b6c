package telemetry

import (
	"fmt"
	"sort"
	"sync"
)

// SpanID identifies one span within a Tracer; 0 is "no span" (the root
// parent). IDs are allocated sequentially, so equal runs allocate equal
// IDs — span streams replay deterministically under an injected clock.
type SpanID uint64

// Span kinds of the built-in hierarchy. Kinds are free-form strings;
// these constants name the spans the harness itself emits:
// run → sweep cell, run → cluster job, and request → rpc / run.
const (
	KindRun        = "run"
	KindSweepCell  = "sweep-cell"
	KindClusterJob = "cluster-job"
	// KindRequest is a server-side span covering one HTTP request; the
	// engine's run spans nest under it via the request context.
	KindRequest = "request"
	// KindRPC is a client-side span covering one outbound backend
	// attempt; the receiving process's request span links back to it by
	// wire ID.
	KindRPC = "rpc"
)

// Span is one timed region of the harness's own execution, with an
// explicit parent forming the run hierarchy.
type Span struct {
	ID     SpanID  `json:"id"`
	Parent SpanID  `json:"parent,omitempty"`
	Kind   string  `json:"kind"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	// Attrs are sorted key=value annotations ("bench=MLPf_Res50_TF").
	Attrs []string `json:"attrs,omitempty"`

	// Cross-process identity (tracectx.go), set only on spans that
	// touch a process boundary; empty for purely local spans.
	//
	// Trace is the 128-bit end-to-end trace ID; Wire is this span's
	// 64-bit on-the-wire ID; RemoteParent is the wire ID of the calling
	// process's span (the traceparent the request arrived with).
	Trace        string `json:"trace,omitempty"`
	Wire         string `json:"wire,omitempty"`
	RemoteParent string `json:"remote_parent,omitempty"`
}

// Duration returns the span length in clock seconds.
func (s Span) Duration() float64 { return s.End - s.Start }

// maxClosedSpans bounds how many closed spans a Tracer retains. A
// long-lived server traces every request, so an unbounded record would
// grow with uptime; past the bound the oldest-closed span is dropped.
// Children close before their parents, so a retained child's parent is
// retained too and the kept spans still form a forest.
const maxClosedSpans = 1 << 16

// Tracer records hierarchical spans against an injected clock. A nil
// *Tracer is valid and no-op (Start returns 0, which is also a valid
// parent for a real tracer). Tracers are safe for concurrent use.
type Tracer struct {
	clock func() float64

	mu     sync.Mutex
	nextID SpanID
	open   map[SpanID]*Span
	// done is a ring of the most recently closed spans: once full, the
	// span closed at count c overwrites slot c % maxClosedSpans.
	done []Span
	// closed counts every span ever closed, retained or dropped.
	closed int
}

// NewTracer builds a tracer on the given clock; a nil clock counts
// spans instead of time (every Start/End reads an incrementing tick),
// which is fully deterministic.
func NewTracer(clock func() float64) *Tracer {
	t := &Tracer{open: map[SpanID]*Span{}}
	if clock == nil {
		var tick float64
		var mu sync.Mutex
		clock = func() float64 {
			mu.Lock()
			defer mu.Unlock()
			tick++
			return tick
		}
	}
	t.clock = clock
	return t
}

// Now reads the tracer's clock (0 on a nil tracer). Under the default
// tick clock every read advances the tick, so a fixed call sequence
// yields identical readings on every replay.
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// Start opens a span under parent (0 = root) and returns its ID.
func (t *Tracer) Start(kind, name string, parent SpanID, attrs ...string) SpanID {
	return t.StartAt(kind, name, parent, t.Now(), attrs...)
}

// SpanStart describes a span opened with cross-process identity — the
// request and rpc spans of the serving tier.
type SpanStart struct {
	Kind   string
	Name   string
	Parent SpanID
	// Trace / Wire / RemoteParent: see the Span fields.
	Trace        string
	Wire         string
	RemoteParent string
	Attrs        []string
}

// StartSpan opens a span carrying wire identity. Like Start, it is a
// no-op returning 0 on a nil tracer.
func (t *Tracer) StartSpan(st SpanStart) SpanID {
	return t.begin(Span{
		Parent: st.Parent, Kind: st.Kind, Name: st.Name, Start: t.Now(), Attrs: st.Attrs,
		Trace: st.Trace, Wire: st.Wire, RemoteParent: st.RemoteParent,
	})
}

// StartAt is Start with an explicit timestamp (simulated time).
func (t *Tracer) StartAt(kind, name string, parent SpanID, at float64, attrs ...string) SpanID {
	return t.begin(Span{Parent: parent, Kind: kind, Name: name, Start: at, Attrs: attrs})
}

// begin opens sp under the next ID, with a sorted copy of its
// attributes (0 on a nil tracer).
func (t *Tracer) begin(sp Span) SpanID {
	if t == nil {
		return 0
	}
	sp.Attrs = append([]string(nil), sp.Attrs...)
	sort.Strings(sp.Attrs)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	sp.ID = t.nextID
	t.open[sp.ID] = &sp
	return sp.ID
}

// End closes the span at the current clock. Unknown or already-closed
// IDs (including 0 from a nil tracer) are ignored.
func (t *Tracer) End(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	at := t.clock()
	t.EndAt(id, at)
}

// EndAt closes the span at an explicit timestamp (simulated time).
func (t *Tracer) EndAt(id SpanID, at float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	sp.End = at
	if sp.End < sp.Start {
		sp.End = sp.Start
	}
	if len(t.done) < maxClosedSpans {
		t.done = append(t.done, *sp)
	} else {
		t.done[t.closed%maxClosedSpans] = *sp
	}
	t.closed++
}

// Spans returns the retained closed spans (the most recent
// maxClosedSpans) sorted by (Start, ID) — a deterministic order
// regardless of goroutine interleaving.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.done...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// SpanCounts reports how many spans have closed and how many of those
// the retention bound has since dropped; Spans returns the difference.
func (t *Tracer) SpanCounts() (closed, dropped int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed, t.closed - len(t.done)
}

// OpenCount reports spans started but not yet ended — nonzero at export
// time usually means a missing End.
func (t *Tracer) OpenCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.open)
}

// Validate checks the span set forms a forest: every non-zero parent
// exists, no span ends before it starts, and IDs are unique.
func ValidateSpans(spans []Span) error {
	byID := make(map[SpanID]bool, len(spans))
	for _, s := range spans {
		if s.ID == 0 {
			return fmt.Errorf("telemetry: span %q has id 0", s.Name)
		}
		if byID[s.ID] {
			return fmt.Errorf("telemetry: duplicate span id %d", s.ID)
		}
		byID[s.ID] = true
		if s.End < s.Start {
			return fmt.Errorf("telemetry: span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	for _, s := range spans {
		if s.Parent != 0 && !byID[s.Parent] {
			return fmt.Errorf("telemetry: span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
	}
	return nil
}
