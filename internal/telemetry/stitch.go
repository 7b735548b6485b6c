package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Cross-process trace stitching. Each process in the serving tier
// (front, backends) exports its own span document; the spans that
// crossed a boundary carry wire identity (Span.Trace / Wire /
// RemoteParent). Stitching joins N documents on those IDs into one
// Chrome trace — each process its own pid group, every cross-process
// edge drawn as a flow arrow from the caller's rpc span to the callee's
// request span — and validates parentage on the way: every local parent
// must exist in its document, and every remote parent must resolve to a
// wire ID exported by some document. An unresolved remote parent is an
// orphan: a request that claims an upstream caller nobody admits to,
// which in practice means a missing or truncated per-process trace.

// NamedTrace is one process's contribution to a stitched trace.
type NamedTrace struct {
	// Name labels the process group in the merged view ("front",
	// "backend-0", or the source filename).
	Name string
	// Spans are the process's closed spans.
	Spans []Span
}

// StitchReport summarizes a stitch: what was joined and what failed to
// resolve. The stitch subcommand prints it; tests assert on it.
type StitchReport struct {
	Processes  int      `json:"processes"`
	Spans      int      `json:"spans"`
	Traces     int      `json:"traces"`      // distinct trace IDs observed
	CrossLinks int      `json:"cross_links"` // remote parents resolved across documents
	Orphans    []string `json:"orphans,omitempty"`
}

// stitchIndex holds the cross-document join state.
type stitchIndex struct {
	// wire maps a wire span ID to its owning document index.
	wire map[string]int
	// traces collects distinct trace IDs.
	traces map[string]bool
}

func buildIndex(docs []NamedTrace) (*stitchIndex, error) {
	ix := &stitchIndex{wire: map[string]int{}, traces: map[string]bool{}}
	for di, doc := range docs {
		if err := ValidateSpans(doc.Spans); err != nil {
			return nil, fmt.Errorf("telemetry: stitch: document %q: %w", doc.Name, err)
		}
		for _, s := range doc.Spans {
			if s.Trace != "" {
				ix.traces[s.Trace] = true
			}
			if s.Wire == "" {
				continue
			}
			if prev, dup := ix.wire[s.Wire]; dup {
				return nil, fmt.Errorf("telemetry: stitch: wire id %s claimed by both %q and %q",
					s.Wire, docs[prev].Name, doc.Name)
			}
			ix.wire[s.Wire] = di
		}
	}
	return ix, nil
}

// StitchSpans joins the documents and validates parentage, returning
// the report. Orphans are reported, not fatal: a partial fleet dump is
// still worth rendering, and the caller decides whether orphans fail
// the run (the stitch subcommand's -strict does).
func StitchSpans(docs []NamedTrace) (*StitchReport, error) {
	ix, err := buildIndex(docs)
	if err != nil {
		return nil, err
	}
	rep := &StitchReport{Processes: len(docs), Traces: len(ix.traces)}
	for _, doc := range docs {
		rep.Spans += len(doc.Spans)
		for _, s := range doc.Spans {
			if s.RemoteParent == "" {
				continue
			}
			if _, ok := ix.wire[s.RemoteParent]; ok {
				rep.CrossLinks++
			} else {
				rep.Orphans = append(rep.Orphans,
					fmt.Sprintf("%s: span %d (%s) remote parent %s unresolved", doc.Name, s.ID, s.Name, s.RemoteParent))
			}
		}
	}
	return rep, nil
}

// WriteStitchedChromeTrace stitches the documents into one Chrome
// trace on w and returns the report. Document i renders as pid i+1 with
// its own kind lanes; resolved cross-process edges become flow events
// ("s" at the caller's rpc span, "f" at the callee's request span) so
// the request's path through the fleet is a visible arrow chain.
func WriteStitchedChromeTrace(w io.Writer, docs []NamedTrace) (*StitchReport, error) {
	rep, err := StitchSpans(docs)
	if err != nil {
		return nil, err
	}

	lw := newLaneWriter()
	// Per-document lane assignment, and a global span locator for flow
	// endpoints: wire id -> (pid, tid, ts).
	type anchor struct {
		pid, tid int
		ts       float64
	}
	anchors := map[string]anchor{}
	tids := make([]map[string]int, len(docs))
	for di, doc := range docs {
		pid := di + 1
		if err := lw.push(spanEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": doc.Name},
		}); err != nil {
			return nil, err
		}
		if tids[di], err = lw.lanes(pid, doc.Spans); err != nil {
			return nil, err
		}
		for _, s := range doc.Spans {
			if s.Wire != "" {
				anchors[s.Wire] = anchor{pid: pid, tid: tids[di][s.Kind], ts: s.Start * 1e6}
			}
		}
	}

	flowID := 0
	for di, doc := range docs {
		pid := di + 1
		for _, s := range doc.Spans {
			if err := lw.slice(pid, tids[di][s.Kind], s); err != nil {
				return nil, err
			}
			if s.RemoteParent == "" {
				continue
			}
			src, ok := anchors[s.RemoteParent]
			if !ok {
				continue // orphan, already in the report
			}
			flowID++
			if err := lw.push(spanEvent{
				Name: "hop", Ph: "s", Cat: "trace", ID: flowID,
				Ts: src.ts, PID: src.pid, TID: src.tid,
			}); err != nil {
				return nil, err
			}
			if err := lw.push(spanEvent{
				Name: "hop", Ph: "f", Cat: "trace", ID: flowID, BP: "e",
				Ts: s.Start * 1e6, PID: pid, TID: tids[di][s.Kind],
			}); err != nil {
				return nil, err
			}
		}
	}
	if err := json.NewEncoder(w).Encode(lw.doc); err != nil {
		return nil, err
	}
	return rep, nil
}

// ParseSpansChromeTrace recovers spans from a document written by
// WriteSpansChromeTrace (or from one process group of a stitched
// document) — the inverse the stitch subcommand needs to join trace
// files produced by separate processes.
func ParseSpansChromeTrace(r io.Reader) ([]Span, error) {
	var doc traceDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("telemetry: parse trace: %w", err)
	}
	// Lane names from metadata recover Kind for documents written before
	// the kind arg existed.
	laneKind := map[int]string{}
	type rawEvent struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]rawEvent, 0, len(doc.TraceEvents))
	for i, raw := range doc.TraceEvents {
		var ev rawEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("telemetry: parse trace: event %d: %w", i, err)
		}
		if ev.Ph == "M" && ev.Name == "thread_name" {
			if n, ok := ev.Args["name"].(string); ok {
				laneKind[ev.TID] = n
			}
		}
		events = append(events, ev)
	}
	var spans []Span
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		s := Span{
			Name:  ev.Name,
			Start: ev.Ts / 1e6,
			End:   (ev.Ts + ev.Dur) / 1e6,
			Kind:  laneKind[ev.TID],
		}
		if v, ok := ev.Args["id"].(float64); ok {
			s.ID = SpanID(v)
		}
		if v, ok := ev.Args["parent"].(float64); ok {
			s.Parent = SpanID(v)
		}
		if v, ok := ev.Args["kind"].(string); ok {
			s.Kind = v
		}
		if v, ok := ev.Args["trace"].(string); ok {
			s.Trace = v
		}
		if v, ok := ev.Args["wire"].(string); ok {
			s.Wire = v
		}
		if v, ok := ev.Args["remote_parent"].(string); ok {
			s.RemoteParent = v
		}
		for k := range ev.Args {
			if a, found := strings.CutPrefix(k, "attr:"); found {
				s.Attrs = append(s.Attrs, a)
			}
		}
		sort.Strings(s.Attrs)
		spans = append(spans, s)
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
	return spans, nil
}

// ValidateChromeTrace checks a Chrome trace document's well-formedness
// — every event parses, has a phase, and complete events have
// non-negative durations — returning the event count. This is what
// `mlperf-telemetry validate` applies to trace and stitched-trace
// files.
func ValidateChromeTrace(data []byte) (int, error) {
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("telemetry: trace: %w", err)
	}
	for i, raw := range doc.TraceEvents {
		var ev struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			return 0, fmt.Errorf("telemetry: trace event %d: %w", i, err)
		}
		if ev.Ph == "" {
			return 0, fmt.Errorf("telemetry: trace event %d (%q) has no phase", i, ev.Name)
		}
		if ev.Dur < 0 {
			return 0, fmt.Errorf("telemetry: trace event %d (%q) has negative duration", i, ev.Name)
		}
	}
	return len(doc.TraceEvents), nil
}
