package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"mlperf/internal/httpkit"
	"mlperf/internal/sweep"
)

// The streaming sweep surface: /v1/sweep/stream emits one frame per
// completed cell straight off the engine's completion path, then a
// terminal summary frame carrying the run's Report. A deadline-bounded
// client keeps every cell that finished before the cut instead of
// receiving one bulk Partial body at the end — which is the difference
// between "the grid is all-or-nothing" and "results are operationally
// useful while the run is still going".
//
// Two wire formats, negotiated via Accept:
//
//   - NDJSON (default, Content-Type application/x-ndjson): one JSON
//     frame per line.
//   - SSE (Accept: text/event-stream): each frame as an SSE event named
//     by its type ("record" / "summary") with the JSON as data.
//
// Frames carry the cell's grid index. Frames arrive in completion
// order, which concurrent workers interleave, so clients reassemble by
// index; the concatenated records, index-sorted, are byte-identical to
// the unary /v1/sweep records at any worker count.
//
// Backpressure: the completion channel is buffered to the full grid,
// so a slow client never stalls engine workers — the write loop is the
// only place client pace matters, and the records are small. Streaming
// requests pass the same admission prologue as unary ones (drain check,
// tenant quota, size, deadline, queue, execution slot), and the
// engine's per-cell singleflight and the shared CAS collapse their
// simulation work across concurrent requests and processes. The stream
// ends with the same summary frame on serve and the front: the run's
// own counts, never the process's.

// StreamFrame is one frame of a /v1/sweep/stream response. Type is
// "record" (one completed cell: Index + Record) or "summary" (the
// terminal frame: the Report's counts and failures, and the partial
// reason when the run was cut short).
type StreamFrame struct {
	Type string `json:"type"`

	// Record-frame fields. Index is always emitted (a record frame for
	// the grid's first cell is index 0, not an absent key); summary
	// frames carry it too, meaninglessly zero.
	Index  int           `json:"index"`
	Record *sweep.Record `json:"record,omitempty"`

	// Summary-frame fields.
	Cells     int      `json:"cells,omitempty"`
	Completed int      `json:"completed,omitempty"`
	Partial   bool     `json:"partial,omitempty"`
	Canceled  bool     `json:"canceled,omitempty"`
	Reason    string   `json:"reason,omitempty"`
	Failures  []string `json:"failures,omitempty"`
}

// cellSpec is the JSON wire form of one requested cell, for POST
// bodies: sweep.CellKey field for field (so each converts to the
// other), with the same defaults the GET parameters apply (system
// dss8440, 1 GPU).
type cellSpec struct {
	Benchmark string `json:"benchmark"`
	Ref       bool   `json:"ref,omitempty"`
	System    string `json:"system,omitempty"`
	GPUs      int    `json:"gpus,omitempty"`
	Batch     int    `json:"batch,omitempty"`
	Precision string `json:"precision,omitempty"`
	Faults    string `json:"faults,omitempty"`
}

func (c cellSpec) key() sweep.CellKey {
	k := sweep.CellKey(c)
	if k.System == "" {
		k.System = "dss8440"
	}
	if k.GPUs == 0 {
		k.GPUs = 1
	}
	return k
}

// maxCellsBody bounds a POST cell-list body (a million-cell grid is a
// few hundred MB of JSON; the front tier never sends more than the
// per-request budget, MaxRequestCells, admits anyway).
const maxCellsBody = 1 << 26

// SweepKeysFromRequest resolves the requested cell list and its cost in
// cells: a POST body with an explicit {"cells": [...]} list — the form
// the front tier uses to express a digest-partitioned sub-grid, which no
// cartesian grid parameter can — or the GET grid parameters expanded in
// deterministic order. Either way every key comes back normalized, so a
// cell no simulation can honour is a 400 before admission, on both
// sweep endpoints and the front's. A GET grid costing more than
// MaxRequestCells is counted, not expanded: keys is nil, and the
// caller's TooLarge check answers the cost with 413.
func SweepKeysFromRequest(r *http.Request) (keys []sweep.CellKey, cost int64, err error) {
	if r.Method == http.MethodPost {
		return cellsFromBody(r.Body)
	}
	g, err := gridFrom(r)
	if err != nil {
		return nil, 0, err
	}
	keys, n, err := g.CellsWithin(MaxRequestCells)
	return keys, int64(n), err
}

// cellsFromBody stream-decodes a POST {"cells": [...]} body one cell
// at a time into one reused cellSpec, so a long list costs its keys,
// not a decoded copy of itself. Every cell is validated and normalized
// up to the first bad one, and a malformed body anywhere is reported
// ahead of a bad cell, as a whole-body decode would. Keys are kept only up to MaxRequestCells: a
// longer list returns nil keys and its full count as the cost, for the
// caller's 413.
func cellsFromBody(body io.Reader) ([]sweep.CellKey, int64, error) {
	dec := json.NewDecoder(io.LimitReader(body, maxCellsBody))
	dec.DisallowUnknownFields()
	var (
		keys   []sweep.CellKey
		n      int64
		badErr error // the first bad cell, reported once the body parses
	)
	malformed := func(err error) ([]sweep.CellKey, int64, error) {
		return nil, 0, fmt.Errorf("bad cells body: %v", err)
	}
	if tok, err := dec.Token(); err != nil {
		return malformed(err)
	} else if tok != json.Delim('{') {
		return malformed(fmt.Errorf("body is %v, not an object", tok))
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return malformed(err)
		}
		if name, _ := tok.(string); !strings.EqualFold(name, "cells") {
			return malformed(fmt.Errorf("json: unknown field %q", name))
		}
		// A repeated "cells" key replaces the list, as it would decoding
		// into a slice.
		keys, n, badErr = nil, 0, nil
		if tok, err = dec.Token(); err != nil {
			return malformed(err)
		}
		if tok == nil {
			continue // "cells": null
		}
		if tok != json.Delim('[') {
			return malformed(fmt.Errorf("cells is %v, not a list", tok))
		}
		var c cellSpec
		for ; dec.More(); n++ {
			c = cellSpec{}
			if err := dec.Decode(&c); err != nil {
				return malformed(err)
			}
			if badErr != nil {
				continue // only a malformed body can still change the answer
			}
			if c.Benchmark == "" {
				badErr = fmt.Errorf("cell %d: missing benchmark", n)
				continue
			}
			k, err := c.key().Normalize()
			if err != nil {
				badErr = fmt.Errorf("cell %d: %v", n, err)
				continue
			}
			if n < MaxRequestCells {
				keys = append(keys, k)
			}
		}
		if _, err := dec.Token(); err != nil { // the list's ']'
			return malformed(err)
		}
	}
	if _, err := dec.Token(); err != nil { // the body's '}'
		return malformed(err)
	}
	switch {
	case n == 0:
		return nil, 0, fmt.Errorf("empty cells list")
	case badErr != nil:
		return nil, 0, badErr
	case n > MaxRequestCells:
		return nil, n, nil
	}
	return keys, n, nil
}

// CellsBody renders an explicit cell list as the POST body both sweep
// endpoints accept — the form a front tier uses to hand a backend its
// digest-partitioned slice of a grid.
func CellsBody(keys []sweep.CellKey) ([]byte, error) {
	body := struct {
		Cells []cellSpec `json:"cells"`
	}{Cells: make([]cellSpec, len(keys))}
	for i, k := range keys {
		body.Cells[i] = cellSpec(k)
	}
	return json.Marshal(body)
}

// StreamWriter writes a sweep stream: it negotiates the wire format
// from the request's Accept header (SSE for text/event-stream, NDJSON
// otherwise), sets the response headers, and flushes after every frame,
// so a frame is on the wire the moment its cell lands. The daemon's
// /v1/sweep/stream and the front tier's merged stream both write
// through it.
type StreamWriter struct {
	w     http.ResponseWriter
	flush http.Flusher // nil when the ResponseWriter cannot flush
	sse   bool
}

// NewStreamWriter negotiates the format and sets the headers; call it
// before the first write to w.
func NewStreamWriter(w http.ResponseWriter, r *http.Request) *StreamWriter {
	sw := &StreamWriter{w: w}
	sw.flush, _ = w.(http.Flusher)
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		sw.sse = true
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	return sw
}

// Frame writes one frame; the error reports a gone client.
func (sw *StreamWriter) Frame(f *StreamFrame) error {
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if sw.sse {
		if _, err := fmt.Fprintf(sw.w, "event: %s\ndata: %s\n\n", f.Type, data); err != nil {
			return err
		}
	} else {
		if _, err := sw.w.Write(append(data, '\n')); err != nil {
			return err
		}
	}
	if sw.flush != nil {
		sw.flush.Flush()
	}
	return nil
}

// ErrBadStream marks a sweep stream that breaks the protocol; see
// ReadStream.
var ErrBadStream = errors.New("bad sweep stream")

// badStream is one protocol break: its message names the cause, and it
// is ErrBadStream to errors.Is.
type badStream string

func (e badStream) Error() string { return string(e) }
func (badStream) Unwrap() error   { return ErrBadStream }

// ReadStream reads an NDJSON sweep stream answering cells cells, the
// one reader of what StreamWriter writes (the front's backend slices,
// the load harness's answers). Each valid record frame's record goes to
// record as it arrives, the caller's to keep; the terminal summary is
// returned. A stream is broken when a frame does not parse or has an
// unknown type, a record frame's index is out of range or repeated or
// it has no record, a frame follows the summary, there is no summary,
// or the summary's Cells or Completed disagrees with what arrived. A
// break is an error wrapping ErrBadStream that names its cause; a body
// read error is returned as it is.
func ReadStream(body io.Reader, cells int, record func(index int, rec *sweep.Record)) (StreamFrame, error) {
	broken := func(format string, args ...any) (StreamFrame, error) {
		return StreamFrame{}, badStream(fmt.Sprintf(format, args...))
	}
	seen := make([]bool, cells)
	got := 0
	var sum *StreamFrame
	sc := bufio.NewScanner(body)
	sc.Buffer(nil, 1<<20) // frames are small: start at the default size, cap a bad line
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var fr StreamFrame
		if err := json.Unmarshal(line, &fr); err != nil {
			return broken("bad frame: %v", err)
		}
		if sum != nil {
			return broken("%s frame after the summary", fr.Type)
		}
		switch fr.Type {
		case "record":
			if fr.Index < 0 || fr.Index >= cells || seen[fr.Index] || fr.Record == nil {
				return broken("bad record frame: index %d of %d cells", fr.Index, cells)
			}
			seen[fr.Index] = true
			got++
			record(fr.Index, fr.Record)
		case "summary":
			sum = &fr
		default:
			return broken("bad frame: type %q", fr.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return StreamFrame{}, err
	}
	if sum == nil {
		return broken("stream ended without summary")
	}
	if sum.Cells != cells || sum.Completed != got {
		return broken("summary counts %d/%d cells, %d/%d arrived", sum.Completed, sum.Cells, got, cells)
	}
	return *sum, nil
}

// handleSweepStream is the streaming grid endpoint. It passes the same
// admission prologue as runQuery (admit), but the response is a frame
// stream, not one body, so the status code is committed before the run
// finishes.
func (s *Server) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	keys, cost, err := SweepKeysFromRequest(r)
	if err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, finish, ok := s.admit(w, r, cost)
	if !ok {
		return
	}
	defer finish()

	// Buffered to the whole grid: OnCell (on an engine worker) can never
	// block on a slow client. Closed after the run returns, by which
	// point every OnCell send has happened.
	done := make(chan sweep.CellDone, len(keys))
	opts := sweep.Options{Partial: true, OnCell: func(d sweep.CellDone) { done <- d }}
	type outcome struct {
		rep *sweep.Report
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		_, rep, rerr := s.eng.RunCellsWithOptions(ctx, keys, opts)
		close(done)
		resCh <- outcome{rep, rerr}
	}()

	sw := NewStreamWriter(w, r)
	clientGone := false
	for d := range done {
		if d.Err != nil || clientGone {
			continue // failures travel in the summary; a gone client just drains
		}
		rec := d.Record
		if err := sw.Frame(&StreamFrame{Type: "record", Index: d.Index, Record: &rec}); err != nil {
			// Client went away mid-stream: keep draining the channel so the
			// engine goroutine can finish, but stop writing.
			clientGone = true
			continue
		}
		s.reg.Counter(MetricStreamRecords).Inc()
	}
	res := <-resCh
	if res.err != nil {
		// Partial mode reserves errors for malformed grids, which were
		// caught before streaming began; anything here is exceptional and
		// the stream is already committed — the missing summary frame is
		// the client's signal.
		return
	}
	if clientGone {
		return
	}
	sum := s.summarize(ctx, res.rep)
	_ = sw.Frame(&sum)
}

// summarize is a sweep run's wire summary, the one place a Report
// becomes wire fields and a partial run is counted. The unary endpoint
// answers with sum.Response(records).
func (s *Server) summarize(ctx context.Context, rep *sweep.Report) StreamFrame {
	sum := StreamFrame{
		Type:      "summary",
		Cells:     rep.Cells,
		Completed: rep.Completed,
		Partial:   rep.Failed(),
		Canceled:  rep.Canceled,
	}
	if sum.Partial {
		s.reg.Counter(MetricPartials).Inc()
		sum.Reason = partialReason(ctx, s.hardCtx)
	}
	for _, f := range rep.Failures {
		sum.Failures = append(sum.Failures, f.Error())
	}
	return sum
}

// Response is the unary /v1/sweep body for records and this summary:
// the same counts, flags and failures (the reason is stream-only).
func (f *StreamFrame) Response(records []sweep.Record) SweepResponse {
	return SweepResponse{
		Records:   records,
		Cells:     f.Cells,
		Completed: f.Completed,
		Partial:   f.Partial,
		Canceled:  f.Canceled,
		Failures:  f.Failures,
	}
}

// partialReason names why a run was cut short: the server draining, the
// client's deadline, the client disconnecting, or (otherwise) per-cell
// failures with the run itself intact.
func partialReason(ctx, hardCtx context.Context) string {
	switch {
	case hardCtx.Err() != nil:
		return "drain"
	case errors.Is(context.Cause(ctx), context.DeadlineExceeded):
		return "deadline"
	case ctx.Err() != nil:
		return "disconnect"
	default:
		return "cell-failures"
	}
}
