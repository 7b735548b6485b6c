package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"mlperf/internal/sweep"
)

// decodeNDJSON parses a full NDJSON stream body: every line must be a
// valid JSON frame (that is the prefix-validity guarantee — a client
// cut off mid-run still holds only whole frames).
func decodeNDJSON(t *testing.T, body string) []StreamFrame {
	t.Helper()
	var frames []StreamFrame
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		var f StreamFrame
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("stream line %d is not a valid frame: %v (%q)", i, err, line)
		}
		frames = append(frames, f)
	}
	return frames
}

// reassemble orders record frames by index into a record slice of the
// given size — the documented client-side recipe for recovering the
// unary record order from a completion-order stream.
func reassemble(t *testing.T, frames []StreamFrame, cells int) []sweep.Record {
	t.Helper()
	recs := make([]sweep.Record, cells)
	seen := make(map[int]bool)
	for _, f := range frames {
		if f.Type != "record" {
			continue
		}
		if f.Record == nil {
			t.Fatalf("record frame index %d has no record", f.Index)
		}
		if seen[f.Index] {
			t.Fatalf("index %d streamed twice", f.Index)
		}
		seen[f.Index] = true
		recs[f.Index] = *f.Record
	}
	return recs
}

func renderCSV(t *testing.T, recs []sweep.Record) string {
	t.Helper()
	var b strings.Builder
	if err := sweep.WriteCSV(&b, recs); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func post(t *testing.T, url, body string, hdr ...string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b.String(), resp.Header
}

// The equivalence contract: for a Table IV grid, the streamed record
// frames reassembled by index must render to the exact bytes of the
// unary /v1/sweep records' CSV — on one worker and on four, where
// completion order interleaves cells.
func TestStreamEqualsUnarySweepByteForByte(t *testing.T) {
	const grid = "benchmarks=res50_tf,res50_mx,ssd_py,mrcnn_py,xfmr_py,ncf_py&gpus=1,2,4"
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv, ts := newTestServer(t, Config{Engine: sweep.NewEngine(workers)}, nil)

			code, body, _ := get(t, ts.URL+"/v1/sweep?"+grid)
			if code != http.StatusOK {
				t.Fatalf("unary sweep = %d (%s)", code, strings.TrimSpace(body))
			}
			var unary SweepResponse
			if err := json.Unmarshal([]byte(body), &unary); err != nil {
				t.Fatal(err)
			}
			if unary.Partial || unary.Completed != unary.Cells {
				t.Fatalf("unary run not clean: %+v", unary)
			}

			code, sbody, hdr := get(t, ts.URL+"/v1/sweep/stream?"+grid)
			if code != http.StatusOK {
				t.Fatalf("stream sweep = %d (%s)", code, strings.TrimSpace(sbody))
			}
			if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
				t.Fatalf("stream Content-Type = %q, want application/x-ndjson", ct)
			}
			frames := decodeNDJSON(t, sbody)
			last := frames[len(frames)-1]
			if last.Type != "summary" {
				t.Fatalf("final frame type %q, want summary", last.Type)
			}
			if last.Partial || last.Completed != unary.Cells || last.Cells != unary.Cells {
				t.Fatalf("summary %+v, want clean run over %d cells", last, unary.Cells)
			}
			if len(frames)-1 != unary.Cells {
				t.Fatalf("%d record frames for %d cells", len(frames)-1, unary.Cells)
			}
			streamCSV := renderCSV(t, reassemble(t, frames, unary.Cells))
			unaryCSV := renderCSV(t, unary.Records)
			if streamCSV != unaryCSV {
				t.Fatalf("streamed CSV differs from unary CSV at %d workers:\n--- stream ---\n%s--- unary ---\n%s",
					workers, streamCSV, unaryCSV)
			}

			st := srv.Snapshot()
			if st.Streams != 1 {
				t.Fatalf("streams counter = %d, want 1", st.Streams)
			}
			if st.StreamRecords != int64(unary.Cells) {
				t.Fatalf("stream_records counter = %d, want %d", st.StreamRecords, unary.Cells)
			}
		})
	}
}

// The point of streaming: the first cell's record is on the wire while
// the run is still executing. A gate holds one cell mid-simulation; the
// test reads a complete record frame before opening the gate.
func TestStreamFirstRecordArrivesBeforeRunCompletes(t *testing.T) {
	gs := newGateStore(func(k sweep.CellKey) bool { return k.Batch == 99 })
	_, ts := newTestServer(t, Config{}, gs)

	resp, err := http.Get(ts.URL + "/v1/sweep/stream?benchmarks=res50_tf&gpus=1&batches=32,99")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream = %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)

	// One cell is parked inside the gate; the run cannot have completed.
	<-gs.entered
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading first frame while run in flight: %v", err)
	}
	var f StreamFrame
	if err := json.Unmarshal([]byte(line), &f); err != nil {
		t.Fatal(err)
	}
	if f.Type != "record" || f.Record == nil || f.Record.Batch != 32 {
		t.Fatalf("first in-flight frame = %+v, want the batch-32 record", f)
	}

	close(gs.gate)
	rest, err := drainReader(br)
	if err != nil {
		t.Fatal(err)
	}
	frames := decodeNDJSON(t, rest)
	last := frames[len(frames)-1]
	if last.Type != "summary" || last.Completed != 2 || last.Partial {
		t.Fatalf("post-gate summary %+v, want clean 2-cell run", last)
	}
}

// drainReader drains a reader to a string (bufio has no ReadAll).
func drainReader(br *bufio.Reader) (string, error) {
	var b strings.Builder
	_, err := br.WriteTo(&b)
	return b.String(), err
}

// A client deadline mid-stream: the response stays a valid NDJSON
// prefix — every finished cell's record frame, then a summary naming
// "deadline" — and those records are byte-identical to the same rows of
// an unhindered run. Nothing finished is thrown away.
func TestStreamClientDeadlineKeepsValidPrefix(t *testing.T) {
	// Reference: the same grid, no gate, run to completion.
	_, refTS := newTestServer(t, Config{}, nil)
	code, refBody, _ := get(t, refTS.URL+"/v1/sweep?benchmarks=res50_tf&gpus=1&batches=32,99")
	if code != http.StatusOK {
		t.Fatalf("reference sweep = %d", code)
	}
	var ref SweepResponse
	if err := json.Unmarshal([]byte(refBody), &ref); err != nil {
		t.Fatal(err)
	}

	gs := newGateStore(func(k sweep.CellKey) bool { return k.Batch == 99 })
	defer close(gs.gate)
	srv, ts := newTestServer(t, Config{}, gs)

	code, body, _ := get(t, ts.URL+"/v1/sweep/stream?benchmarks=res50_tf&gpus=1&batches=32,99&timeout=0.3")
	if code != http.StatusOK {
		t.Fatalf("deadline stream = %d — the status was committed before the cut", code)
	}
	frames := decodeNDJSON(t, body) // every line must still parse: valid prefix
	last := frames[len(frames)-1]
	if last.Type != "summary" {
		t.Fatalf("cut stream's final frame is %q, want summary", last.Type)
	}
	if !last.Partial || !last.Canceled || last.Reason != "deadline" {
		t.Fatalf("summary %+v, want partial+canceled with reason deadline", last)
	}
	if last.Completed != 1 || last.Cells != 2 || len(last.Failures) != 1 {
		t.Fatalf("summary %+v, want 1/2 cells completed with one failure", last)
	}

	var recs []sweep.Record
	for _, f := range frames[:len(frames)-1] {
		if f.Type != "record" || f.Index != 0 {
			t.Fatalf("unexpected pre-summary frame %+v", f)
		}
		recs = append(recs, *f.Record)
	}
	if len(recs) != 1 {
		t.Fatalf("%d record frames, want exactly the finished cell", len(recs))
	}
	// The kept prefix matches the unhindered run's same row, byte for byte.
	if got, want := renderCSV(t, recs), renderCSV(t, ref.Records[:1]); got != want {
		t.Fatalf("deadline prefix CSV differs from reference:\n%s\nvs\n%s", got, want)
	}
	if st := srv.Snapshot(); st.Partials != 1 {
		t.Fatalf("partials counter = %d, want 1", st.Partials)
	}
}

// Accept: text/event-stream negotiates SSE framing: each frame an event
// named by its type, with the same JSON as data.
func TestStreamSSEFraming(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	code, body, hdr := get(t, ts.URL+"/v1/sweep/stream?benchmarks=res50_tf&gpus=1,2",
		"Accept", "text/event-stream")
	if code != http.StatusOK {
		t.Fatalf("SSE stream = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	var events []string
	var frames []StreamFrame
	for _, line := range strings.Split(body, "\n") {
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			events = append(events, ev)
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var f StreamFrame
			if err := json.Unmarshal([]byte(data), &f); err != nil {
				t.Fatalf("SSE data line not a frame: %v (%q)", err, data)
			}
			frames = append(frames, f)
		}
	}
	if len(events) != 3 || events[2] != "summary" {
		t.Fatalf("SSE events = %v, want [record record summary]", events)
	}
	for i, f := range frames {
		if f.Type != events[i] {
			t.Fatalf("SSE event %d named %q but frame type is %q", i, events[i], f.Type)
		}
	}
	if frames[2].Completed != 2 {
		t.Fatalf("SSE summary %+v, want 2 completed", frames[2])
	}
}

// POST {"cells": [...]} — the front tier's sub-grid form — works on
// both sweep endpoints, and the streamed records reassemble to the
// unary POST's records exactly.
func TestSweepPostCellsOnBothEndpoints(t *testing.T) {
	srv, ts := newTestServer(t, Config{}, nil)
	const cells = `{"cells":[{"benchmark":"ncf_py","gpus":2},{"benchmark":"res50_tf"},{"benchmark":"xfmr_py","gpus":4,"precision":"mixed"}]}`

	code, body, _ := post(t, ts.URL+"/v1/sweep", cells)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/sweep = %d (%s)", code, strings.TrimSpace(body))
	}
	var unary SweepResponse
	if err := json.Unmarshal([]byte(body), &unary); err != nil {
		t.Fatal(err)
	}
	if unary.Cells != 3 || unary.Completed != 3 {
		t.Fatalf("POST sweep %+v, want 3/3 cells", unary)
	}
	// Defaults applied: bare res50_tf cell lands on the DSS 8440 with 1 GPU.
	if r := unary.Records[1]; r.System != "DSS 8440" || r.GPUs != 1 {
		t.Fatalf("cell defaults not applied: %+v", r)
	}

	code, sbody, _ := post(t, ts.URL+"/v1/sweep/stream", cells)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/sweep/stream = %d (%s)", code, strings.TrimSpace(sbody))
	}
	frames := decodeNDJSON(t, sbody)
	if got, want := renderCSV(t, reassemble(t, frames, 3)), renderCSV(t, unary.Records); got != want {
		t.Fatalf("streamed POST records differ from unary POST records:\n%s\nvs\n%s", got, want)
	}

	// Malformed lists answer 400 on both endpoints before admission: an
	// unknown benchmark or precision used to pass the list check and
	// reach the stream handler, which answered 200 with an empty body.
	streams := srv.Snapshot().Streams
	for _, bad := range []string{
		`{"cells":[]}`, `{"cells":[{"gpus":2}]}`, `{"cellz":[]}`, `not json`,
		`{"cells":[{"benchmark":"nope"}]}`,
		`{"cells":[{"benchmark":"res50_tf","precision":"fp8"}]}`,
	} {
		for _, p := range []string{"/v1/sweep", "/v1/sweep/stream"} {
			if code, body, _ := post(t, ts.URL+p, bad); code != http.StatusBadRequest {
				t.Fatalf("bad body %q on %s = %d (%q), want 400", bad, p, code, body)
			}
		}
	}
	if got := srv.Snapshot().Streams; got != streams {
		t.Fatalf("bad bodies were admitted as streams: %d -> %d", streams, got)
	}
}

// Streams pass the same admission gates as unary requests: drain and
// per-tenant quota refuse them before any frame is written, as typed
// sheds with Retry-After >= 1.
func TestStreamRespectsAdmissionGates(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantRate: 0.5}, nil) // a burst of 1
	if code, _, _ := get(t, ts.URL+"/v1/sweep/stream?benchmarks=res50_tf&gpus=1", "X-Tenant", "n"); code != http.StatusOK {
		t.Fatalf("first stream = %d", code)
	}
	code, _, hdr := get(t, ts.URL+"/v1/sweep/stream?benchmarks=res50_tf&gpus=1", "X-Tenant", "n")
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota stream = %d, want 429", code)
	}
	if ra := hdr.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("over-quota stream Retry-After = %q, want >= 1", ra)
	}
}
