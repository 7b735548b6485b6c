package front

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"mlperf/internal/serve"
	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
)

// cluster is a front over n serve backends sharing one cache dir.
type cluster struct {
	front    *Front
	frontTS  *httptest.Server
	backends []*serve.Server
	backTS   []*httptest.Server
}

func newCluster(t *testing.T, n int, cfg Config) *cluster {
	t.Helper()
	cacheDir := t.TempDir()
	c := &cluster{}
	for i := 0; i < n; i++ {
		srv, err := serve.New(serve.Config{
			CacheDir:   cacheDir,
			TenantRate: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		c.backends = append(c.backends, srv)
		c.backTS = append(c.backTS, ts)
		cfg.Backends = append(cfg.Backends, ts.URL)
	}
	fr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fr.Close)
	c.front = fr
	c.frontTS = httptest.NewServer(fr.Handler())
	t.Cleanup(c.frontTS.Close)
	return c
}

// awaitFirstProbe waits out f's startup health round: a probe sets its
// backend's down gauge after storing its verdict.
func awaitFirstProbe(t *testing.T, f *Front) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		probed := 0
		for _, m := range f.reg.Snapshot() {
			if m.Name == MetricUnhealthy {
				probed++
			}
		}
		if probed == len(f.backends) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("startup health round never finished")
		}
		time.Sleep(time.Millisecond)
	}
}

func get(t *testing.T, url string, hdr ...string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
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
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), resp.Header
}

func renderCSV(t *testing.T, recs []sweep.Record) string {
	t.Helper()
	var b strings.Builder
	if err := sweep.WriteCSV(&b, recs); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

const tableGrid = "benchmarks=res50_tf,res50_mx,ssd_py,mrcnn_py,xfmr_py,ncf_py&gpus=1,2,4"

// referenceCSV runs the same grid through the sequential reference
// path — the ground truth the merged front-tier result must match byte
// for byte.
func referenceCSV(t *testing.T) (string, int) {
	t.Helper()
	recs, err := sweep.RunSequential(sweep.Grid{
		Benchmarks: []string{"res50_tf", "res50_mx", "ssd_py", "mrcnn_py", "xfmr_py", "ncf_py"},
		GPUCounts:  []int{1, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return renderCSV(t, recs), len(recs)
}

// The tentpole acceptance: a grid swept through the front over two
// backends merges byte-identically to the sequential reference.
func TestFrontSweepMergesByteIdentical(t *testing.T) {
	want, cells := referenceCSV(t)
	c := newCluster(t, 2, Config{})

	code, body, _ := get(t, c.frontTS.URL+"/v1/sweep?"+tableGrid)
	if code != http.StatusOK {
		t.Fatalf("front sweep = %d (%s)", code, strings.TrimSpace(body))
	}
	var merged serve.SweepResponse
	if err := json.Unmarshal([]byte(body), &merged); err != nil {
		t.Fatal(err)
	}
	if merged.Cells != cells || merged.Completed != cells || merged.Partial {
		t.Fatalf("merged response %d/%d partial=%v, want clean %d-cell run",
			merged.Completed, merged.Cells, merged.Partial, cells)
	}
	if got := renderCSV(t, merged.Records); got != want {
		t.Fatalf("front-merged CSV differs from RunSequential:\n--- front ---\n%s--- single ---\n%s", got, want)
	}

	// The grid genuinely fanned out: both backends simulated a share,
	// and together they simulated each cell exactly once.
	var total int64
	for i, b := range c.backends {
		sims := b.Engine().Stats().Simulations
		if sims == 0 {
			t.Fatalf("backend %d simulated nothing — no fan-out happened", i)
		}
		total += sims
	}
	if total != int64(cells) {
		t.Fatalf("backends simulated %d cells total, want %d (disjoint partition)", total, cells)
	}
	if st := c.front.Snapshot(); st.Fanouts != 2 {
		t.Fatalf("fanouts = %d, want 2", st.Fanouts)
	}
}

// Streaming through the front: interleaved backend frames re-indexed to
// global order reassemble byte-identically, and the aggregated summary
// accounts for every cell.
func TestFrontStreamMergesByteIdentical(t *testing.T) {
	want, cells := referenceCSV(t)
	c := newCluster(t, 2, Config{})

	code, body, hdr := get(t, c.frontTS.URL+"/v1/sweep/stream?"+tableGrid)
	if code != http.StatusOK {
		t.Fatalf("front stream = %d (%s)", code, strings.TrimSpace(body))
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	recs := make([]sweep.Record, cells)
	var nrec int
	var summary *serve.StreamFrame
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		var fr serve.StreamFrame
		if err := json.Unmarshal([]byte(line), &fr); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		switch fr.Type {
		case "record":
			recs[fr.Index] = *fr.Record
			nrec++
		case "summary":
			f := fr
			summary = &f
		}
	}
	if nrec != cells {
		t.Fatalf("%d record frames, want %d", nrec, cells)
	}
	if summary == nil || summary.Completed != cells || summary.Partial {
		t.Fatalf("summary %+v, want clean %d-cell aggregate", summary, cells)
	}
	if got := renderCSV(t, recs); got != want {
		t.Fatalf("front-streamed CSV differs from RunSequential")
	}
	// One summary shape on both tiers: a backend's own stream of the same
	// grid ends with a summary equal to the front's merged one.
	code, body, _ = get(t, c.backTS[0].URL+"/v1/sweep/stream?"+tableGrid)
	if code != http.StatusOK {
		t.Fatalf("backend stream = %d (%s)", code, strings.TrimSpace(body))
	}
	if _, backSum := reassemble(t, body, false, cells); !reflect.DeepEqual(backSum, *summary) {
		t.Fatalf("backend summary %+v, front summary %+v: want equal", backSum, *summary)
	}
}

// The shared CAS story: cells simulated by backend B are disk hits for
// backend A — one process's work is every process's cache.
func TestFrontBackendsShareCacheAcrossProcesses(t *testing.T) {
	c := newCluster(t, 2, Config{})

	code, _, _ := get(t, c.frontTS.URL+"/v1/sweep?"+tableGrid)
	if code != http.StatusOK {
		t.Fatalf("front sweep = %d", code)
	}
	simsA := c.backends[0].Engine().Stats().Simulations
	if simsA == 0 {
		t.Fatal("backend 0 owned no cells; partition degenerate")
	}

	// The whole grid against backend 0 directly: its own cells replay
	// from memory, backend 1's from the shared disk tier — zero new
	// simulations anywhere.
	code, _, _ = get(t, c.backTS[0].URL+"/v1/sweep?"+tableGrid)
	if code != http.StatusOK {
		t.Fatalf("direct sweep = %d", code)
	}
	st := c.backends[0].Engine().Stats()
	if st.Simulations != simsA {
		t.Fatalf("backend 0 re-simulated: %d -> %d sims — shared cache not consulted",
			simsA, st.Simulations)
	}
	if st.Disk.Hits == 0 {
		t.Fatal("backend 0 took no disk hits for backend 1's cells")
	}
}

// Drain failover: when one backend starts draining, the health loop
// routes around it and the front keeps serving complete results with
// zero 5xx-class surprises for clients.
func TestFrontFailsOverWhenBackendDrains(t *testing.T) {
	c := newCluster(t, 2, Config{HealthInterval: 10 * time.Millisecond})

	// Warm: both backends healthy, fan-out works.
	if code, _, _ := get(t, c.frontTS.URL+"/v1/sweep?benchmarks=res50_tf&gpus=1,2"); code != http.StatusOK {
		t.Fatal("warm sweep failed")
	}

	// Drain backend 1. Drain flips /readyz immediately and refuses new
	// API requests with 503.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c.backends[1].Drain(ctx)
	deadline := time.Now().Add(5 * time.Second)
	for !c.backends[1].Draining() {
		if time.Now().After(deadline) {
			t.Fatal("backend 1 never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	for c.front.Snapshot().Backends[1].Healthy {
		if time.Now().After(deadline) {
			t.Fatal("front never noticed backend 1 draining")
		}
		time.Sleep(time.Millisecond)
	}

	// The front stays ready (one healthy backend) and serves the full
	// grid — cells owned by the drained backend fail over.
	if code, _, _ := get(t, c.frontTS.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("front readyz = %d with one healthy backend", code)
	}
	code, body, _ := get(t, c.frontTS.URL+"/v1/sweep?"+tableGrid)
	if code != http.StatusOK {
		t.Fatalf("sweep during drain = %d (%s)", code, strings.TrimSpace(body))
	}
	var merged serve.SweepResponse
	if err := json.Unmarshal([]byte(body), &merged); err != nil {
		t.Fatal(err)
	}
	if merged.Completed != merged.Cells || merged.Partial {
		t.Fatalf("drain-time sweep %d/%d partial=%v, want complete",
			merged.Completed, merged.Cells, merged.Partial)
	}
	want, _ := referenceCSV(t)
	if got := renderCSV(t, merged.Records); got != want {
		t.Fatal("drain-time merged CSV differs from reference")
	}

	// Simulate requests route around the drained backend too.
	for batch := 0; batch < 8; batch++ {
		code, body, _ := get(t, fmt.Sprintf("%s/v1/simulate?benchmark=res50_tf&batch=%d", c.frontTS.URL, 64+batch))
		if code != http.StatusOK {
			t.Fatalf("simulate during drain = %d (%s)", code, strings.TrimSpace(body))
		}
	}
}

// A mid-request drain: the backend answers 503 before the health loop
// notices; the request must fail over within the attempt, not surface
// the 503.
func TestFrontFailsOverOn503BeforeHealthPoll(t *testing.T) {
	// Health interval long enough that the poll never fires during the
	// test: only per-request failover can save these requests.
	c := newCluster(t, 2, Config{HealthInterval: time.Hour})
	awaitFirstProbe(t, c.front) // no further polls for an hour

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c.backends[1].Drain(ctx)
	deadline := time.Now().Add(5 * time.Second)
	for !c.backends[1].Draining() {
		if time.Now().After(deadline) {
			t.Fatal("backend 1 never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	// Pin the stale view: even if the startup probe raced the drain and
	// noticed, the front believes backend 1 is healthy and must discover
	// the 503 inside the request.
	c.front.health[1].Store(&health{healthy: true})

	code, body, _ := get(t, c.frontTS.URL+"/v1/sweep?"+tableGrid)
	if code != http.StatusOK {
		t.Fatalf("sweep with stale health view = %d (%s)", code, strings.TrimSpace(body))
	}
	var merged serve.SweepResponse
	if err := json.Unmarshal([]byte(body), &merged); err != nil {
		t.Fatal(err)
	}
	if merged.Completed != merged.Cells {
		t.Fatalf("failover sweep %d/%d, want complete", merged.Completed, merged.Cells)
	}
	if st := c.front.Snapshot(); st.Failovers == 0 {
		t.Fatal("no failovers recorded though a backend was draining")
	}
}

// Streamed front results match the unary front results frame for frame
// even when a deadline cuts the run: whatever streamed is a valid
// prefix (every line parses, summary arrives last).
func TestFrontStreamSSE(t *testing.T) {
	c := newCluster(t, 2, Config{})
	code, body, hdr := get(t, c.frontTS.URL+"/v1/sweep/stream?benchmarks=res50_tf,ncf_py&gpus=1",
		"Accept", "text/event-stream")
	if code != http.StatusOK {
		t.Fatalf("SSE = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []string
	for _, line := range strings.Split(body, "\n") {
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			events = append(events, ev)
		}
	}
	if len(events) != 3 || events[2] != "summary" {
		t.Fatalf("SSE events %v, want two records then a summary", events)
	}
}

// The front answers the routes it serves and nothing else: the study
// paths (schedule, whatif) are the mux's own 404 on the front and on a
// backend alike, still carrying X-Request-Id, and the front forwards
// nothing for them.
func TestStudyEndpointsAre404(t *testing.T) {
	c := newCluster(t, 2, Config{})
	paths := []string{"/v1/schedule?policy=srtf&n=4&seed=1", "/v1/whatif"}
	for _, p := range paths {
		code, body, hdr := get(t, c.frontTS.URL+p)
		if code != http.StatusNotFound {
			t.Errorf("front %s = %d (%s), want 404", p, code, strings.TrimSpace(body))
		}
		if id := hdr.Get(telemetry.RequestIDHeader); !hexTraceID.MatchString(id) {
			t.Errorf("front %s: X-Request-Id %q", p, id)
		}
	}
	if st := c.front.Snapshot(); st.Fanouts != 0 || st.Requests != 0 {
		t.Errorf("front counted %d requests and %d fan-outs for unknown routes, want 0", st.Requests, st.Fanouts)
	}
	for i, b := range c.backends {
		for _, e := range b.Flight().Requests() {
			if e.Path != "/readyz" {
				t.Errorf("backend %d saw %s %s, want only health probes", i, e.Method, e.Path)
			}
		}
	}
	for _, p := range paths {
		code, _, hdr := get(t, c.backTS[0].URL+p)
		if code != http.StatusNotFound {
			t.Errorf("serve %s = %d, want 404", p, code)
		}
		if id := hdr.Get(telemetry.RequestIDHeader); !hexTraceID.MatchString(id) {
			t.Errorf("serve %s: X-Request-Id %q", p, id)
		}
	}
}

// First streamed record through the front arrives while backends are
// still working (the front adds buffering, not batching).
func TestFrontStreamForwardsFramesEagerly(t *testing.T) {
	c := newCluster(t, 1, Config{})
	resp, err := http.Get(c.frontTS.URL + "/v1/sweep/stream?" + tableGrid)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var fr serve.StreamFrame
	if err := json.Unmarshal([]byte(line), &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Type != "record" {
		t.Fatalf("first frame %q, want record", fr.Type)
	}
	io.Copy(io.Discard, br)
}
