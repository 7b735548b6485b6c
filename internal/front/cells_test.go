package front

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
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

// rewriteFirstRecord applies edit to the first record frame of an NDJSON
// stream body; dup also repeats the (edited) frame right after it.
func rewriteFirstRecord(t *testing.T, body []byte, dup bool, edit func(*serve.StreamFrame)) []byte {
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	var out []string
	done := false
	for _, line := range lines {
		var fr serve.StreamFrame
		if err := json.Unmarshal([]byte(line), &fr); err != nil {
			t.Errorf("backend frame %q: %v", line, err)
		}
		if done || fr.Type != "record" {
			out = append(out, line)
			continue
		}
		done = true
		edit(&fr)
		b, _ := json.Marshal(fr)
		out = append(out, string(b))
		if dup {
			out = append(out, string(b))
		}
	}
	return []byte(strings.Join(out, "\n") + "\n")
}

// A backend frame whose index is out of its slice used to index the
// front's slice table unchecked and crash the whole front. It is now a
// bad slice: nothing was forwarded yet, so the slice fails over and the
// client gets the complete grid.
func TestFrontStreamOutOfRangeIndexFailsOver(t *testing.T) {
	want, cells := referenceCSV(t)
	bad := tamperBackend(t, func(_ int64, path string, code int, body []byte) (int, []byte) {
		if path != "/v1/sweep/stream" {
			return code, body
		}
		return code, rewriteFirstRecord(t, body, false, func(fr *serve.StreamFrame) { fr.Index = 1 << 20 })
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

// A repeated index after the first forwarded frame breaks the slice as
// a partial one (forwarded cells must not stream twice); the client sees
// each index once, and the cells that never arrived are not cached: the
// next request fans out for them and comes back complete.
func TestFrontStreamRepeatedIndexIsPartialAndNotCached(t *testing.T) {
	want, cells := referenceCSV(t)
	bad := tamperBackend(t, func(n int64, path string, code int, body []byte) (int, []byte) {
		if path != "/v1/sweep/stream" || n > 1 {
			return code, body
		}
		return code, rewriteFirstRecord(t, body, true, func(*serve.StreamFrame) {})
	})
	fr, ts := newFront(t, bad.URL)
	code, body, _ := get(t, ts.URL+"/v1/sweep/stream?"+tableGrid)
	if code != http.StatusOK {
		t.Fatalf("stream = %d", code)
	}
	_, sum := reassemble(t, body, false, cells)
	if !sum.Partial || len(sum.Failures) == 0 || sum.Completed != 0 {
		t.Fatalf("summary %+v, want a failed slice", sum)
	}
	if st := fr.Snapshot(); st.Failovers != 0 {
		t.Fatalf("failed over after forwarding a frame: %+v", st)
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

// A unary sub-sweep with fewer records than cells used to index past
// the record list; now it is a bad slice that fails over.
func TestFrontSweepShortRecordListFailsOver(t *testing.T) {
	want, cells := referenceCSV(t)
	bad := tamperBackend(t, func(_ int64, path string, code int, body []byte) (int, []byte) {
		if path != "/v1/sweep" {
			return code, body
		}
		var resp serve.SweepResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Errorf("backend body: %v", err)
		}
		resp.Records = resp.Records[:len(resp.Records)-1]
		b, _ := json.Marshal(resp)
		return code, b
	})
	good := newCluster(t, 1, Config{})
	fr, ts := newFront(t, bad.URL, good.backTS[0].URL)
	code, body, _ := get(t, ts.URL+"/v1/sweep?"+tableGrid)
	if code != http.StatusOK {
		t.Fatalf("sweep = %d (%s)", code, body)
	}
	var resp serve.SweepResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Partial || resp.Completed != cells {
		t.Fatalf("%d/%d partial=%v, want complete after failover", resp.Completed, resp.Cells, resp.Partial)
	}
	if got := renderCSV(t, resp.Records); got != want {
		t.Fatal("failed-over sweep differs from RunSequential")
	}
	if fr.Snapshot().Failovers == 0 {
		t.Fatal("short record list did not fail over")
	}
}

// Neither a deadline-cut partial sub-sweep nor a failed one enters the
// cache: the next request fans out again and comes back complete.
func TestFrontPartialOrFailedSliceNotCached(t *testing.T) {
	want, cells := referenceCSV(t)
	for name, cut := range map[string]func(code int, body []byte) (int, []byte){
		"partial": func(code int, body []byte) (int, []byte) {
			var resp serve.SweepResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Errorf("backend body: %v", err)
			}
			resp.Records[len(resp.Records)-1] = sweep.Record{}
			resp.Completed--
			resp.Partial, resp.Canceled = true, true
			resp.Failures = []string{"deadline exceeded"}
			b, _ := json.Marshal(resp)
			return code, b
		},
		"failed": func(int, []byte) (int, []byte) {
			return http.StatusInternalServerError, []byte(`{"error":"boom"}` + "\n")
		},
	} {
		t.Run(name, func(t *testing.T) {
			bad := tamperBackend(t, func(n int64, path string, code int, body []byte) (int, []byte) {
				if n > 1 {
					return code, body
				}
				return cut(code, body)
			})
			fr, ts := newFront(t, bad.URL)
			code, body, _ := get(t, ts.URL+"/v1/sweep?"+tableGrid)
			var resp serve.SweepResponse
			if err := json.Unmarshal([]byte(body), &resp); err != nil || code != http.StatusOK || !resp.Partial {
				t.Fatalf("first sweep = %d partial=%v (%s)", code, resp.Partial, body)
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
			if after.CellHits != before.CellHits || after.Fanouts == before.Fanouts {
				t.Fatalf("cut slice was cached: hits %d -> %d, fanouts %d -> %d",
					before.CellHits, after.CellHits, before.Fanouts, after.Fanouts)
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
	for c.front.healthy[0].Load() || c.front.healthy[1].Load() {
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
		for _, bad := range [][]string{{"Request-Timeout", "soon"}, {"Request-Timeout", "-1"}} {
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
