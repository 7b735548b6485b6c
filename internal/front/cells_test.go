package front

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlperf/internal/serve"
	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
)

// backendRequests sums the API requests the cluster's backends took.
func (c *cluster) backendRequests() int64 {
	var n int64
	for _, b := range c.backends {
		n += b.Snapshot().Requests
	}
	return n
}

// A hit is answered from the same type a relayed miss is, byte for
// byte, without a backend hop; the counters, /v1/stats and the manifest
// all see it.
func TestFrontSimulateHitByteIdentical(t *testing.T) {
	c := newCluster(t, 2, Config{})
	const q = "/v1/simulate?benchmark=res50_tf&gpus=4"
	code, miss, _ := get(t, c.frontTS.URL+q)
	if code != http.StatusOK {
		t.Fatalf("miss = %d (%s)", code, miss)
	}
	before := c.backendRequests()
	code, hit, hdr := get(t, c.frontTS.URL+q)
	if code != http.StatusOK || hit != miss {
		t.Fatalf("hit = %d, body differs from miss:\n--- hit ---\n%s--- miss ---\n%s", code, hit, miss)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("hit Content-Type = %q", ct)
	}
	if got := c.backendRequests(); got != before {
		t.Fatalf("hit reached a backend: %d -> %d backend requests", before, got)
	}

	st := c.front.Snapshot()
	if st.CellHits != 1 || st.CellMisses != 1 {
		t.Fatalf("stats cell_hits=%d cell_misses=%d, want 1/1", st.CellHits, st.CellMisses)
	}
	_, body, _ := get(t, c.frontTS.URL+"/v1/stats")
	var wire Stats
	if err := json.Unmarshal([]byte(body), &wire); err != nil {
		t.Fatal(err)
	}
	if wire.CellHits != 1 || wire.CellMisses != 1 {
		t.Fatalf("/v1/stats %s", body)
	}
	for result, want := range map[string]int64{"hit": 1, "miss": 1} {
		if got := c.front.reg.Counter(MetricCellCache, telemetry.L("result", result)).Value(); got != want {
			t.Fatalf("%s{result=%s} = %d, want %d", MetricCellCache, result, got, want)
		}
	}
	m := telemetry.NewManifest("mlperf-front")
	c.front.FillManifest(m)
	if m.Config["cell_hits"] != "1" || m.Config["cell_misses"] != "1" {
		t.Fatalf("manifest cell_hits=%q cell_misses=%q", m.Config["cell_hits"], m.Config["cell_misses"])
	}
}

// subGrid is a 4-cell corner of tableGrid, for the partly held state.
const subGrid = "benchmarks=res50_tf,ssd_py&gpus=1,2"

// reassemble decodes a stream body (NDJSON or SSE) into records by
// index, failing on a repeated or out-of-range index.
func reassemble(t *testing.T, body string, sse bool, cells int) ([]sweep.Record, serve.StreamFrame) {
	t.Helper()
	recs := make([]sweep.Record, cells)
	seen := make([]bool, cells)
	var summary serve.StreamFrame
	for _, line := range strings.Split(body, "\n") {
		if sse {
			var ok bool
			if line, ok = strings.CutPrefix(line, "data: "); !ok {
				continue
			}
		}
		if line == "" {
			continue
		}
		var fr serve.StreamFrame
		if err := json.Unmarshal([]byte(line), &fr); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		switch fr.Type {
		case "record":
			if fr.Index < 0 || fr.Index >= cells || seen[fr.Index] {
				t.Fatalf("record frame index %d (of %d) out of range or repeated", fr.Index, cells)
			}
			seen[fr.Index] = true
			recs[fr.Index] = *fr.Record
		case "summary":
			summary = fr
		}
	}
	return recs, summary
}

// Every answer shape — unary, NDJSON and SSE streams — is the same
// whether the front holds none, some or all of the grid's cells, and
// equals the sequential reference. A fully held grid fans out to no
// backend; a partly held one asks only for the rest.
func TestFrontSweepSameColdPartlyAndFullyHeld(t *testing.T) {
	want, cells := referenceCSV(t)
	states := []struct {
		name, warm string
		held       int64
	}{
		{"cold", "", 0},
		{"partly held", subGrid, 4},
		{"fully held", tableGrid, int64(cells)},
	}
	var unary []string
	for _, format := range []string{"unary", "ndjson", "sse"} {
		for _, s := range states {
			c := newCluster(t, 2, Config{})
			if s.warm != "" {
				if code, body, _ := get(t, c.frontTS.URL+"/v1/sweep?"+s.warm); code != http.StatusOK {
					t.Fatalf("warm: %d (%s)", code, body)
				}
			}
			before := c.front.Snapshot()
			path, hdr := "/v1/sweep?", []string(nil)
			if format != "unary" {
				path = "/v1/sweep/stream?"
			}
			if format == "sse" {
				hdr = []string{"Accept", "text/event-stream"}
			}
			code, body, _ := get(t, c.frontTS.URL+path+tableGrid, hdr...)
			if code != http.StatusOK {
				t.Fatalf("%s %s: %d (%s)", format, s.name, code, body)
			}
			var recs []sweep.Record
			if format == "unary" {
				unary = append(unary, body)
				var resp serve.SweepResponse
				if err := json.Unmarshal([]byte(body), &resp); err != nil {
					t.Fatal(err)
				}
				recs = resp.Records
			} else {
				var sum serve.StreamFrame
				recs, sum = reassemble(t, body, format == "sse", cells)
				if sum.Completed != cells || sum.Cells != cells || sum.Partial {
					t.Fatalf("%s %s summary %+v", format, s.name, sum)
				}
			}
			if got := renderCSV(t, recs); got != want {
				t.Fatalf("%s %s differs from RunSequential:\n%s", format, s.name, got)
			}
			after := c.front.Snapshot()
			if hits := after.CellHits - before.CellHits; hits != s.held {
				t.Fatalf("%s %s: %d cell hits, want %d", format, s.name, hits, s.held)
			}
			if fanned := after.Fanouts > before.Fanouts; fanned != (s.held < int64(cells)) {
				t.Fatalf("%s %s: fanouts %d -> %d", format, s.name, before.Fanouts, after.Fanouts)
			}
		}
	}
	for i := 1; i < len(unary); i++ {
		if unary[i] != unary[0] {
			t.Fatalf("unary body %s differs from cold:\n%s\n---\n%s", states[i].name, unary[i], unary[0])
		}
	}
}

// tamperBackend serves a real backend's answers through rewrite, which
// sees every /v1/ call (n counts them from 1) and may change its status
// and body. The fake stands in for a buggy or cut-short backend.
func tamperBackend(t *testing.T, rewrite func(n int64, path string, code int, body []byte) (int, []byte)) *httptest.Server {
	t.Helper()
	srv, err := serve.New(serve.Config{TenantRate: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		code, body := rewrite(calls.Add(1), r.URL.Path, rec.Code, rec.Body.Bytes())
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(code)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// newFront is a front over the given backend URLs.
func newFront(t *testing.T, urls ...string) (*Front, *httptest.Server) {
	t.Helper()
	fr, err := New(Config{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fr.Close)
	ts := httptest.NewServer(fr.Handler())
	t.Cleanup(ts.Close)
	return fr, ts
}

// splitStream parses an NDJSON stream body into its record frames and
// its summary.
func splitStream(t *testing.T, body []byte) ([]serve.StreamFrame, serve.StreamFrame) {
	var recs []serve.StreamFrame
	var sum serve.StreamFrame
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		var fr serve.StreamFrame
		if err := json.Unmarshal([]byte(line), &fr); err != nil {
			t.Errorf("backend frame %q: %v", line, err)
		}
		if fr.Type == "record" {
			recs = append(recs, fr)
		} else {
			sum = fr
		}
	}
	return recs, sum
}

// joinStream renders frames as an NDJSON stream body, as serve writes it.
func joinStream(frames ...serve.StreamFrame) []byte {
	var b []byte
	for _, fr := range frames {
		line, _ := json.Marshal(fr)
		b = append(append(b, line...), '\n')
	}
	return b
}

// askLog records how many cells each stream a backend answered was for
// (its summary's Cells).
type askLog struct {
	mu    sync.Mutex
	cells []int
}

func (a *askLog) record(t *testing.T, path string, body []byte) {
	if path != "/v1/sweep/stream" {
		return
	}
	_, sum := splitStream(t, body)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cells = append(a.cells, sum.Cells)
}

// take returns the logged cell counts, sorted, and clears the log.
func (a *askLog) take() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.cells
	a.cells = nil
	sort.Ints(out)
	return out
}

// sweepBoth requests tableGrid from a front as one unary body or as an
// NDJSON stream, and returns the records in grid order with the summary
// counts. A stream must carry each index at most once.
func sweepBoth(t *testing.T, url, format string, cells int) ([]sweep.Record, serve.StreamFrame) {
	t.Helper()
	if format == "unary" {
		code, body, _ := get(t, url+"/v1/sweep?"+tableGrid)
		var resp serve.SweepResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil || code != http.StatusOK {
			t.Fatalf("sweep = %d (%s)", code, body)
		}
		return resp.Records, serve.StreamFrame{Cells: resp.Cells, Completed: resp.Completed,
			Partial: resp.Partial, Canceled: resp.Canceled, Failures: resp.Failures}
	}
	code, body, _ := get(t, url+"/v1/sweep/stream?"+tableGrid)
	if code != http.StatusOK {
		t.Fatalf("stream = %d (%s)", code, body)
	}
	recs, sum := reassemble(t, body, false, cells)
	if n := strings.Count(body, `"type":"record"`); n != sum.Completed {
		t.Fatalf("%d record frames but summary completed=%d", n, sum.Completed)
	}
	return recs, sum
}

// A backend frame whose index is out of its slice used to index the
// front's slice table unchecked and crash the whole front. It is now a
// bad slice: nothing was delivered yet, so the slice fails over and the
// client gets the complete grid.
func TestFrontStreamOutOfRangeIndexFailsOver(t *testing.T) {
	want, cells := referenceCSV(t)
	bad := tamperBackend(t, func(_ int64, path string, code int, body []byte) (int, []byte) {
		if path != "/v1/sweep/stream" {
			return code, body
		}
		recs, sum := splitStream(t, body)
		recs[0].Index = 1 << 20
		return code, joinStream(append(recs, sum)...)
	})
	good := newCluster(t, 1, Config{})
	fr, ts := newFront(t, bad.URL, good.backTS[0].URL)
	code, body, _ := get(t, ts.URL+"/v1/sweep/stream?"+tableGrid)
	if code != http.StatusOK {
		t.Fatalf("stream = %d", code)
	}
	recs, sum := reassemble(t, body, false, cells)
	if sum.Partial || sum.Completed != cells {
		t.Fatalf("summary %+v, want a complete grid after failover", sum)
	}
	if got := renderCSV(t, recs); got != want {
		t.Fatal("failed-over stream differs from RunSequential")
	}
	if fr.Snapshot().Failovers == 0 {
		t.Fatal("bad slice did not fail over")
	}
}

// A repeated index breaks the slice after one delivered frame. With no
// other backend to fail over to, the answer is partial: the client sees
// each index once, Completed counts the one delivered frame, and only
// that cell is held — the next request fans out for the rest and comes
// back complete.
func TestFrontStreamRepeatedIndexIsPartialAndNotCached(t *testing.T) {
	want, cells := referenceCSV(t)
	bad := tamperBackend(t, func(n int64, path string, code int, body []byte) (int, []byte) {
		if path != "/v1/sweep/stream" || n > 1 {
			return code, body
		}
		recs, sum := splitStream(t, body)
		return code, joinStream(append([]serve.StreamFrame{recs[0]}, append(recs, sum)...)...)
	})
	fr, ts := newFront(t, bad.URL)
	code, body, _ := get(t, ts.URL+"/v1/sweep/stream?"+tableGrid)
	if code != http.StatusOK {
		t.Fatalf("stream = %d", code)
	}
	_, sum := reassemble(t, body, false, cells)
	if !sum.Partial || len(sum.Failures) == 0 || sum.Completed != 1 {
		t.Fatalf("summary %+v, want a failed slice", sum)
	}
	if st := fr.Snapshot(); st.Failovers != 0 {
		t.Fatalf("failed over with one backend: %+v", st)
	}

	before := fr.Snapshot()
	code, body, _ = get(t, ts.URL+"/v1/sweep/stream?"+tableGrid)
	if code != http.StatusOK {
		t.Fatalf("second stream = %d", code)
	}
	recs, sum := reassemble(t, body, false, cells)
	if sum.Partial || sum.Completed != cells {
		t.Fatalf("second summary %+v, want complete", sum)
	}
	if got := renderCSV(t, recs); got != want {
		t.Fatal("second stream differs from RunSequential")
	}
	after := fr.Snapshot()
	if hits := after.CellHits - before.CellHits; hits != 1 {
		t.Fatalf("%d cells held, want only the one validly forwarded frame", hits)
	}
	if after.Fanouts == before.Fanouts {
		t.Fatal("second request did not fan out")
	}
}

// A backend stream one record frame short of its own summary is a
// broken slice, on both endpoints: it fails over, and the next backend
// is asked only for the missing cell. (The front used to trust the
// summary and answer the grid complete with one zero record.)
func TestFrontSweepShortRecordListFailsOver(t *testing.T) {
	want, cells := referenceCSV(t)
	var badAsks, goodAsks askLog
	bad := tamperBackend(t, func(_ int64, path string, code int, body []byte) (int, []byte) {
		badAsks.record(t, path, body)
		if path != "/v1/sweep/stream" {
			return code, body
		}
		recs, sum := splitStream(t, body)
		return code, joinStream(append(recs[1:], sum)...)
	})
	good := tamperBackend(t, func(_ int64, path string, code int, body []byte) (int, []byte) {
		goodAsks.record(t, path, body)
		return code, body
	})
	for _, format := range []string{"unary", "stream"} {
		fr, ts := newFront(t, bad.URL, good.URL)
		recs, sum := sweepBoth(t, ts.URL, format, cells)
		if sum.Partial || sum.Completed != cells || sum.Cells != cells {
			t.Fatalf("%s: %d/%d partial=%v, want complete after failover", format, sum.Completed, sum.Cells, sum.Partial)
		}
		if got := renderCSV(t, recs); got != want {
			t.Fatalf("%s: failed-over sweep differs from RunSequential", format)
		}
		if fr.Snapshot().Failovers == 0 {
			t.Fatalf("%s: short stream did not fail over", format)
		}
		b, g := badAsks.take(), goodAsks.take()
		if len(b) != 1 || len(g) != 2 || g[0] != 1 || b[0]+g[1] != cells {
			t.Fatalf("%s: bad backend asked for %v cells, good for %v; want the good one asked for its slice and the one missing cell", format, b, g)
		}
	}
}

// With no backend to fail over to, the same short stream is a partial
// answer: Completed is the frames delivered, the missing cell is not
// held, and the next request fans out for that cell alone.
func TestFrontShortStreamWithOneBackendIsPartial(t *testing.T) {
	want, cells := referenceCSV(t)
	for _, format := range []string{"unary", "stream"} {
		var asks askLog
		bad := tamperBackend(t, func(n int64, path string, code int, body []byte) (int, []byte) {
			asks.record(t, path, body)
			if path != "/v1/sweep/stream" || n > 1 {
				return code, body
			}
			recs, sum := splitStream(t, body)
			return code, joinStream(append(recs[1:], sum)...)
		})
		fr, ts := newFront(t, bad.URL)
		recs, sum := sweepBoth(t, ts.URL, format, cells)
		if !sum.Partial || sum.Completed != cells-1 || len(sum.Failures) != 1 {
			t.Fatalf("%s: %+v, want partial with %d delivered", format, sum, cells-1)
		}
		zero := 0
		for _, r := range recs {
			if r == (sweep.Record{}) {
				zero++
			}
		}
		if zero != 1 {
			t.Fatalf("%s: %d zero records, want the one missing cell", format, zero)
		}
		asks.take()

		before := fr.Snapshot()
		recs, sum = sweepBoth(t, ts.URL, format, cells)
		if sum.Partial || sum.Completed != cells || renderCSV(t, recs) != want {
			t.Fatalf("%s: second sweep %+v, want the complete reference grid", format, sum)
		}
		after := fr.Snapshot()
		if hits := after.CellHits - before.CellHits; hits != int64(cells-1) {
			t.Fatalf("%s: %d cells held, want every delivered one (%d)", format, hits, cells-1)
		}
		if got := asks.take(); len(got) != 1 || got[0] != 1 {
			t.Fatalf("%s: second request asked the backend for %v cells, want [1]", format, got)
		}
	}
}

// A backend stream cut after some frames with no summary fails over
// with only the undelivered cells: on both endpoints the client sees
// each index exactly once and the complete grid.
func TestFrontStreamCutWithoutSummaryFailsOverRemainder(t *testing.T) {
	want, cells := referenceCSV(t)
	bad := tamperBackend(t, func(_ int64, path string, code int, body []byte) (int, []byte) {
		if path != "/v1/sweep/stream" {
			return code, body
		}
		recs, _ := splitStream(t, body)
		return code, joinStream(recs[:len(recs)/2]...)
	})
	good := newCluster(t, 1, Config{})
	for _, format := range []string{"unary", "stream"} {
		fr, ts := newFront(t, bad.URL, good.backTS[0].URL)
		recs, sum := sweepBoth(t, ts.URL, format, cells)
		if sum.Partial || sum.Completed != cells {
			t.Fatalf("%s: %+v, want a complete grid", format, sum)
		}
		if got := renderCSV(t, recs); got != want {
			t.Fatalf("%s: differs from RunSequential", format)
		}
		if fr.Snapshot().Failovers == 0 {
			t.Fatalf("%s: cut stream did not fail over", format)
		}
	}
}

// A well-formed partial summary (a deadline cut the backend's run) is
// the backend's answer, relayed and not retried: every delivered cell is
// held and the missing one is not, so the next request fans out for
// exactly that cell. A failed slice delivers nothing and holds nothing.
func TestFrontPartialOrFailedSliceNotCached(t *testing.T) {
	want, cells := referenceCSV(t)
	for name, tc := range map[string]struct {
		cut  func(code int, body []byte) (int, []byte)
		held int
	}{
		"partial": {func(code int, body []byte) (int, []byte) {
			recs, sum := splitStream(t, body)
			sum.Completed--
			sum.Partial, sum.Canceled, sum.Reason = true, true, "deadline"
			sum.Failures = []string{"deadline exceeded"}
			return code, joinStream(append(recs[:len(recs)-1], sum)...)
		}, cells - 1},
		"failed": {func(int, []byte) (int, []byte) {
			return http.StatusInternalServerError, []byte(`{"error":"boom"}` + "\n")
		}, 0},
	} {
		t.Run(name, func(t *testing.T) {
			var asks askLog
			bad := tamperBackend(t, func(n int64, path string, code int, body []byte) (int, []byte) {
				if n > 1 {
					asks.record(t, path, body)
					return code, body
				}
				return tc.cut(code, body)
			})
			fr, ts := newFront(t, bad.URL)
			code, body, _ := get(t, ts.URL+"/v1/sweep?"+tableGrid)
			var resp serve.SweepResponse
			if err := json.Unmarshal([]byte(body), &resp); err != nil || code != http.StatusOK || !resp.Partial {
				t.Fatalf("first sweep = %d partial=%v (%s)", code, resp.Partial, body)
			}
			if resp.Completed != tc.held {
				t.Fatalf("first sweep completed=%d, want the %d delivered cells", resp.Completed, tc.held)
			}

			before := fr.Snapshot()
			code, body, _ = get(t, ts.URL+"/v1/sweep?"+tableGrid)
			resp = serve.SweepResponse{}
			if err := json.Unmarshal([]byte(body), &resp); err != nil || code != http.StatusOK {
				t.Fatalf("second sweep = %d (%s)", code, body)
			}
			if resp.Partial || resp.Completed != cells || renderCSV(t, resp.Records) != want {
				t.Fatalf("second sweep %d/%d partial=%v, want the complete reference grid", resp.Completed, cells, resp.Partial)
			}
			after := fr.Snapshot()
			if hits := after.CellHits - before.CellHits; hits != int64(tc.held) {
				t.Fatalf("%d cells held, want the %d delivered ones", hits, tc.held)
			}
			if got := asks.take(); len(got) != 1 || got[0] != cells-tc.held {
				t.Fatalf("second request asked the backend for %v cells, want [%d]", got, cells-tc.held)
			}
		})
	}
}

// A hit needs no backend: with every backend down a held cell (and a
// held grid) still answers 200, while an unheld cell gets the
// no-backend 503 with its identity and retry hint.
func TestFrontHeldCellsAnswerWithEveryBackendDown(t *testing.T) {
	c := newCluster(t, 2, Config{HealthInterval: 20 * time.Millisecond})
	const held = "/v1/simulate?benchmark=res50_tf&gpus=2"
	_, warm, _ := get(t, c.frontTS.URL+held)
	_, warmGrid, _ := get(t, c.frontTS.URL+"/v1/sweep?"+subGrid)
	for _, ts := range c.backTS {
		ts.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.front.isHealthy(0) || c.front.isHealthy(1) {
		if time.Now().After(deadline) {
			t.Fatal("backends never went down")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, body, _ := get(t, c.frontTS.URL+held); code != http.StatusOK || body != warm {
		t.Fatalf("held cell with backends down = %d (%s)", code, body)
	}
	if code, body, _ := get(t, c.frontTS.URL+"/v1/sweep?"+subGrid); code != http.StatusOK || body != warmGrid {
		t.Fatalf("held grid with backends down = %d (%s)", code, body)
	}
	code, _, hdr := get(t, c.frontTS.URL+"/v1/simulate?benchmark=ncf_py&gpus=2")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unheld cell with backends down = %d", code)
	}
	if !hexTraceID.MatchString(hdr.Get(telemetry.RequestIDHeader)) || hdr.Get("Retry-After") == "" {
		t.Fatalf("no-backend shed headers: %v", hdr)
	}
}

// A malformed deadline is the backend's 400, whether or not the front
// holds the cell.
func TestFrontMalformedTimeoutIs400HeldOrNot(t *testing.T) {
	c := newCluster(t, 1, Config{})
	get(t, c.frontTS.URL+"/v1/simulate?benchmark=res50_tf&gpus=2")
	get(t, c.frontTS.URL+"/v1/sweep?"+subGrid)
	for _, p := range []string{
		"/v1/simulate?benchmark=res50_tf&gpus=2", // held
		"/v1/simulate?benchmark=ncf_py&gpus=2",   // not held
		"/v1/sweep?" + subGrid,                   // held
		"/v1/sweep/stream?" + tableGrid,          // partly held
	} {
		for _, bad := range [][]string{{"Request-Timeout", "soon"}, {"Request-Timeout", "-1"}, {"Request-Timeout", "NaN"}, {"Request-Timeout", "inf"}} {
			code, body, _ := get(t, c.frontTS.URL+p, bad...)
			if code != http.StatusBadRequest || !strings.Contains(body, "bad timeout") {
				t.Errorf("%s with %s: %d (%s)", p, bad[1], code, strings.TrimSpace(body))
			}
		}
		sep := "?"
		if strings.Contains(p, "?") {
			sep = "&"
		}
		if code, body, _ := get(t, c.frontTS.URL+p+sep+"timeout=0"); code != http.StatusBadRequest {
			t.Errorf("%s?timeout=0: %d (%s)", p, code, strings.TrimSpace(body))
		}
	}
}
