package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event export for spans, and a merge that folds several
// trace documents — a simulator timeline plus the harness's own span
// hierarchy — into one file loadable in chrome://tracing or Perfetto.
// Each source document keeps its lanes; documents are separated by
// process ID so the simulated pipeline and the telemetry spans render
// as distinct process groups on one shared time axis.

// traceDoc is the common {"traceEvents": [...]} envelope.
type traceDoc struct {
	TraceEvents []json.RawMessage `json:"traceEvents"`
}

// spanEvent is one exported span ("X" complete event), metadata line,
// or flow-arrow endpoint ("s"/"f", used by the stitched export).
type spanEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"` // flow events require a category
	ID   int            `json:"id,omitempty"`  // flow binding id
	BP   string         `json:"bp,omitempty"`  // flow binding point ("e" = enclosing slice)
	Ts   float64        `json:"ts,omitempty"`  // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteSpansChromeTrace exports spans as a Chrome trace: one track per
// span kind (run, experiment, sweep-cell, ...), each span a slice whose
// args carry its ID, parent and attributes, so the hierarchy survives
// the flattening into lanes.
func WriteSpansChromeTrace(w io.Writer, spans []Span) error {
	lw := newLaneWriter()
	tids, err := lw.lanes(1, spans)
	if err != nil {
		return err
	}
	for _, s := range spans {
		if err := lw.slice(1, tids[s.Kind], s); err != nil {
			return err
		}
	}
	return json.NewEncoder(w).Encode(lw.doc)
}

// laneWriter accumulates a Chrome trace document of span lanes — the
// one renderer behind the per-process and the stitched export.
type laneWriter struct{ doc traceDoc }

func newLaneWriter() *laneWriter {
	return &laneWriter{doc: traceDoc{TraceEvents: []json.RawMessage{}}}
}

func (lw *laneWriter) push(ev spanEvent) error {
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	lw.doc.TraceEvents = append(lw.doc.TraceEvents, b)
	return nil
}

// lanes gives each span kind a thread lane of process pid, numbered in
// sorted kind order and named by a metadata event, and returns the
// kind → tid map.
func (lw *laneWriter) lanes(pid int, spans []Span) (map[string]int, error) {
	tids := map[string]int{}
	for _, s := range spans {
		tids[s.Kind] = 0
	}
	kinds := make([]string, 0, len(tids))
	for k := range tids {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for tid, k := range kinds {
		tids[k] = tid
		if err := lw.push(spanEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": k},
		}); err != nil {
			return nil, err
		}
	}
	return tids, nil
}

// slice renders s as a complete event on lane tid of process pid; its
// args carry the span's ID, parent, kind, wire identity and attributes.
func (lw *laneWriter) slice(pid, tid int, s Span) error {
	args := map[string]any{"id": s.ID, "parent": s.Parent, "kind": s.Kind}
	if s.Trace != "" {
		args["trace"] = s.Trace
	}
	if s.Wire != "" {
		args["wire"] = s.Wire
	}
	if s.RemoteParent != "" {
		args["remote_parent"] = s.RemoteParent
	}
	for _, a := range s.Attrs {
		args["attr:"+a] = true
	}
	return lw.push(spanEvent{
		Name: s.Name, Ph: "X",
		Ts: s.Start * 1e6, Dur: s.Duration() * 1e6,
		PID: pid, TID: tid, Args: args,
	})
}

// MergeChromeTraces folds several Chrome trace documents into one: the
// i-th document's events are re-labeled with process ID i+1 (metadata
// and slices alike), so each source renders as its own process group —
// the simulator's timeline lanes next to the telemetry span lanes, on
// one time axis.
func MergeChromeTraces(w io.Writer, docs ...io.Reader) error {
	out := traceDoc{TraceEvents: []json.RawMessage{}}
	for i, r := range docs {
		var doc traceDoc
		if err := json.NewDecoder(r).Decode(&doc); err != nil {
			return fmt.Errorf("telemetry: trace %d: %w", i+1, err)
		}
		for _, raw := range doc.TraceEvents {
			var ev map[string]any
			if err := json.Unmarshal(raw, &ev); err != nil {
				return fmt.Errorf("telemetry: trace %d: bad event: %w", i+1, err)
			}
			ev["pid"] = i + 1
			b, err := json.Marshal(ev)
			if err != nil {
				return err
			}
			out.TraceEvents = append(out.TraceEvents, b)
		}
		// Name the process group after its position so merged traces
		// are navigable ("trace 1", "trace 2").
		meta, err := json.Marshal(spanEvent{
			Name: "process_name", Ph: "M", PID: i + 1,
			Args: map[string]any{"name": fmt.Sprintf("trace %d", i+1)},
		})
		if err != nil {
			return err
		}
		out.TraceEvents = append(out.TraceEvents, meta)
	}
	return json.NewEncoder(w).Encode(out)
}
