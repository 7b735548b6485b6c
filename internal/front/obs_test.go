package front

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mlperf/internal/httpkit"
	"mlperf/internal/serve"
	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
)

var hexTraceID = regexp.MustCompile(`^[0-9a-f]{32}$`)

// obsCluster is a front over n backends where every process has its own
// deterministic-clock registry — the fixture for span-stitching tests.
type obsCluster struct {
	*cluster
	frontReg *telemetry.Registry
	backRegs []*telemetry.Registry
}

func newObsCluster(t *testing.T, n int) *obsCluster {
	t.Helper()
	cacheDir := t.TempDir()
	oc := &obsCluster{cluster: &cluster{}}
	cfg := Config{
		// One startup probe round, then silence: health polling must not
		// inject spans mid-test.
		HealthInterval: time.Hour,
		Telemetry:      telemetry.NewWithClock(nil),
	}
	oc.frontReg = cfg.Telemetry
	for i := 0; i < n; i++ {
		reg := telemetry.NewWithClock(nil)
		srv, err := serve.New(serve.Config{
			CacheDir:   cacheDir,
			TenantRate: -1,
			Telemetry:  reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		oc.backends = append(oc.backends, srv)
		oc.backTS = append(oc.backTS, ts)
		oc.backRegs = append(oc.backRegs, reg)
		cfg.Backends = append(cfg.Backends, ts.URL)
	}
	fr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fr.Close)
	oc.front = fr
	oc.frontTS = httptest.NewServer(fr.Handler())
	t.Cleanup(oc.frontTS.Close)
	// Wait out the startup probe round so its spans are a fixed prefix.
	awaitFirstProbe(t, fr)
	return oc
}

// exportDocs round-trips every process's spans through the Chrome trace
// writer/parser — exactly what `mlperf-telemetry stitch` does with the
// -trace-out files.
func (oc *obsCluster) exportDocs(t *testing.T) []telemetry.NamedTrace {
	t.Helper()
	docs := []telemetry.NamedTrace{{Name: "front"}}
	var buf bytes.Buffer
	if err := telemetry.WriteSpansChromeTrace(&buf, oc.frontReg.Tracer().Spans()); err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.ParseSpansChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	docs[0].Spans = spans
	for i, reg := range oc.backRegs {
		buf.Reset()
		if err := telemetry.WriteSpansChromeTrace(&buf, reg.Tracer().Spans()); err != nil {
			t.Fatal(err)
		}
		spans, err := telemetry.ParseSpansChromeTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, telemetry.NamedTrace{Name: "backend-" + string(rune('0'+i)), Spans: spans})
	}
	return docs
}

func TestFrontResponsesCarryRequestID(t *testing.T) {
	c := newCluster(t, 2, Config{})
	for _, p := range []string{
		"/v1/simulate?benchmark=res50_tf&gpus=2",
		"/v1/sweep?benchmarks=res50_tf&gpus=1,2",
		"/v1/stats",
		"/healthz",
		"/no/such/route", // the mux's 404
	} {
		_, _, hdr := get(t, c.frontTS.URL+p)
		if id := hdr.Get(telemetry.RequestIDHeader); !hexTraceID.MatchString(id) {
			t.Errorf("%s: X-Request-Id %q", p, id)
		}
	}
}

// The front propagates its trace to the backend, so the id the client
// got from the front is the id the backend logged and traced under.
func TestFrontPropagatesTraceToBackends(t *testing.T) {
	oc := newObsCluster(t, 2)
	_, _, hdr := get(t, oc.frontTS.URL+"/v1/sweep?benchmarks=res50_tf,ncf_py&gpus=1,2")
	id := hdr.Get(telemetry.RequestIDHeader)
	if !hexTraceID.MatchString(id) {
		t.Fatalf("front X-Request-Id: %q", id)
	}

	// Every backend that served a slice recorded a request span under
	// the same trace, remote-parented to one of the front's rpc spans.
	rpcWires := map[string]bool{}
	for _, sp := range oc.frontReg.Tracer().Spans() {
		if sp.Kind == telemetry.KindRPC && sp.Trace == id {
			rpcWires[sp.Wire] = true
		}
	}
	if len(rpcWires) == 0 {
		t.Fatal("front recorded no rpc spans for the trace")
	}
	backendReqs := 0
	for _, reg := range oc.backRegs {
		for _, sp := range reg.Tracer().Spans() {
			if sp.Kind == telemetry.KindRequest && sp.Trace == id {
				backendReqs++
				if !rpcWires[sp.RemoteParent] {
					t.Errorf("backend request span remote parent %q not among front rpc wires", sp.RemoteParent)
				}
			}
		}
	}
	if backendReqs == 0 {
		t.Fatal("no backend request spans carry the front's trace")
	}
}

// Acceptance scenario: a two-backend front run yields ONE stitched
// trace in which a single request's spans cross all three processes
// with correct parentage — and the same-seed run is deterministic:
// stable span count, every parent resolves, zero orphans.
func TestStitchedTraceDeterministicAcrossRuns(t *testing.T) {
	run := func() (*telemetry.StitchReport, string) {
		oc := newObsCluster(t, 2)
		code, _, hdr := get(t, oc.frontTS.URL+"/v1/sweep?benchmarks=res50_tf,ncf_py&gpus=1,2")
		if code != http.StatusOK {
			t.Fatalf("sweep: %d", code)
		}
		docs := oc.exportDocs(t)
		rep, err := telemetry.StitchSpans(docs)
		if err != nil {
			t.Fatal(err)
		}
		// The stitched Chrome trace must also be well-formed.
		var buf bytes.Buffer
		if _, err := telemetry.WriteStitchedChromeTrace(&buf, docs); err != nil {
			t.Fatal(err)
		}
		if _, err := telemetry.ValidateChromeTrace(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		return rep, hdr.Get(telemetry.RequestIDHeader)
	}

	rep1, id1 := run()
	if len(rep1.Orphans) != 0 {
		t.Fatalf("orphans: %v", rep1.Orphans)
	}
	if rep1.Processes != 3 {
		t.Fatalf("processes: %d", rep1.Processes)
	}
	// One client trace spanning the fleet: the front's request + rpc
	// spans and both backends' request spans share id1, and both hops
	// resolved (the 2x2 grid digest-partitions across both backends).
	if rep1.CrossLinks != 2 {
		t.Fatalf("cross links %d want 2 (one per backend slice)", rep1.CrossLinks)
	}
	if !hexTraceID.MatchString(id1) {
		t.Fatalf("trace id: %q", id1)
	}

	rep2, _ := run()
	if rep2.Spans != rep1.Spans {
		t.Fatalf("span count not deterministic: %d vs %d", rep1.Spans, rep2.Spans)
	}
	if rep2.CrossLinks != rep1.CrossLinks || len(rep2.Orphans) != 0 {
		t.Fatalf("stitch shape changed: %+v vs %+v", rep2, rep1)
	}
}

func TestFrontHealthTransitionsTimestamped(t *testing.T) {
	c := newCluster(t, 2, Config{HealthInterval: 20 * time.Millisecond})
	waitHealthy := func(i int, want bool) {
		deadline := time.Now().Add(10 * time.Second)
		for c.front.isHealthy(i) != want {
			if time.Now().After(deadline) {
				t.Fatalf("backend %d never reached healthy=%v", i, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitHealthy(0, true)
	before := time.Now().UTC()

	// Kill backend 0's listener: the next poll flips it down.
	c.backTS[0].Close()
	waitHealthy(0, false)

	st := c.front.Snapshot()
	b0 := st.Backends[0]
	if b0.Healthy || b0.Transitions == 0 {
		t.Fatalf("backend 0 status: %+v", b0)
	}
	ts, err := time.Parse(time.RFC3339Nano, b0.LastTransition)
	if err != nil {
		t.Fatalf("last_transition %q: %v", b0.LastTransition, err)
	}
	if ts.Before(before.Add(-time.Second)) || ts.After(time.Now().Add(time.Second)) {
		t.Fatalf("transition timestamp %v implausible (started %v)", ts, before)
	}
	if st.Backends[1].Transitions != 0 || st.Backends[1].LastTransition != "" {
		t.Fatalf("backend 1 should not have flipped: %+v", st.Backends[1])
	}

	// The manifest records the same per-backend fields.
	m := telemetry.NewManifest("mlperf-front")
	c.front.FillManifest(m)
	if m.Config["backend0_transitions"] == "0" || m.Config["backend0_transitions"] == "" {
		t.Fatalf("manifest transitions: %q", m.Config["backend0_transitions"])
	}
	if m.Config["backend0_last_transition"] != b0.LastTransition {
		t.Fatalf("manifest last_transition %q want %q",
			m.Config["backend0_last_transition"], b0.LastTransition)
	}
}

// A backend's health is one published value: a snapshot taken while
// the backend flaps never shows a down backend whose flip is not yet
// counted, and its transition count never goes back.
func TestFrontHealthSnapshotConsistentWhileFlapping(t *testing.T) {
	var probes atomic.Int64
	flappy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if probes.Add(1)%2 == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer flappy.Close()
	f, err := New(Config{Backends: []string{flappy.URL}, HealthInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const flips = 20
	var last int64
	deadline := time.Now().Add(10 * time.Second)
	for last < flips {
		if time.Now().After(deadline) {
			t.Fatalf("backend flipped %d times, want %d", last, flips)
		}
		b := f.Snapshot().Backends[0]
		if !b.Healthy && b.Transitions < 1 {
			t.Fatalf("down with no transition counted: %+v", b)
		}
		if b.Healthy != (b.Transitions%2 == 0) {
			t.Fatalf("verdict disagrees with its flip count: %+v", b)
		}
		if (b.Transitions > 0) != (b.LastTransition != "") {
			t.Fatalf("flip count and timestamp disagree: %+v", b)
		}
		if b.Transitions < last {
			t.Fatalf("transitions went back from %d to %d", last, b.Transitions)
		}
		last = b.Transitions
	}
}

func TestFrontShedNoBackendHasIdentityAndRetryAfter(t *testing.T) {
	c := newCluster(t, 1, Config{HealthInterval: 20 * time.Millisecond})
	c.backTS[0].Close()
	deadline := time.Now().Add(10 * time.Second)
	for c.front.isHealthy(0) {
		if time.Now().After(deadline) {
			t.Fatal("backend never went down")
		}
		time.Sleep(2 * time.Millisecond)
	}
	code, _, hdr := get(t, c.frontTS.URL+"/v1/simulate?benchmark=res50_tf&gpus=2")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("no-backend: %d", code)
	}
	if !hexTraceID.MatchString(hdr.Get(telemetry.RequestIDHeader)) {
		t.Errorf("no-backend shed missing X-Request-Id: %q", hdr.Get(telemetry.RequestIDHeader))
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("no-backend shed missing Retry-After")
	}
	// The request summary carries the typed shed reason, as a backend's
	// sheds do.
	_, body, _ := get(t, c.frontTS.URL+"/debug/requests")
	var entries []telemetry.FlightEntry
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("/debug/requests: %v\n%s", err, body)
	}
	id := hdr.Get(telemetry.RequestIDHeader)
	found := false
	for _, e := range entries {
		if e.TraceID == id {
			found = true
			if e.Status != http.StatusServiceUnavailable || e.Reason != "no_backend" {
				t.Errorf("no-backend flight entry: %+v", e)
			}
		}
	}
	if !found {
		t.Errorf("no-backend shed %s not in /debug/requests:\n%s", id, body)
	}
}

func TestFrontDebugFlightEndpoint(t *testing.T) {
	c := newCluster(t, 1, Config{})
	get(t, c.frontTS.URL+"/v1/simulate?benchmark=res50_tf&gpus=2")
	_, body, _ := get(t, c.frontTS.URL+"/debug/flight")
	d, err := telemetry.ParseFlightDump([]byte(body))
	if err != nil {
		t.Fatalf("front /debug/flight: %v\n%s", err, body)
	}
	if d.Tool != "mlperf-front" || len(d.Entries) == 0 {
		t.Fatalf("dump: %+v", d)
	}
}

// The kernel contains a panic on the front as it does on serve: the
// client gets a 500 with its request ID, the count, the flight summary
// and the span all close on 500, and the ring is dumped with reason
// "panic" to the dump target.
func TestFrontPanicContainedToOneRequest(t *testing.T) {
	c := newCluster(t, 1, Config{})
	dump := filepath.Join(t.TempDir(), "front-flight.json")
	c.front.Flight().SetDumpTarget(dump, "mlperf-front")
	c.front.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })

	code, body, hdr := get(t, c.frontTS.URL+"/boom")
	if code != http.StatusInternalServerError || !strings.Contains(body, "kaboom") {
		t.Fatalf("panicking route = %d (%s), want a 500 envelope", code, strings.TrimSpace(body))
	}
	id := hdr.Get(telemetry.RequestIDHeader)
	if !hexTraceID.MatchString(id) {
		t.Errorf("panic response X-Request-Id %q", id)
	}
	if n := c.front.reg.Count(MetricRequests, telemetry.L("endpoint", "other"), telemetry.L("code", "500")); n != 1 {
		t.Errorf(`%s{code="500",endpoint="other"} = %d, want 1`, MetricRequests, n)
	}
	if n := c.front.reg.Count(MetricPanics); n != 1 {
		t.Errorf("%s = %d, want 1", MetricPanics, n)
	}
	var summary *telemetry.FlightEntry
	for _, e := range c.front.Flight().Requests() {
		if e.Path == "/boom" {
			summary = &e
		}
	}
	if summary == nil || summary.Status != http.StatusInternalServerError || summary.TraceID != id {
		t.Errorf("flight summary for /boom: %+v", summary)
	}
	if n := c.front.reg.Tracer().OpenCount(); n != 0 {
		t.Errorf("%d request spans left open", n)
	}
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatalf("no flight dump after a panic: %v", err)
	}
	d, err := telemetry.ParseFlightDump(data)
	if err != nil || d.Reason != "panic" || d.Tool != "mlperf-front" {
		t.Fatalf("dump %+v, %v", d, err)
	}
	if code, _, _ := get(t, c.frontTS.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("front not serving after a contained panic: %d", code)
	}
}

func TestFrontLogsCarryRequestID(t *testing.T) {
	var buf bytes.Buffer
	c := newCluster(t, 1, Config{
		Logger: telemetry.NewLogger(&buf, telemetry.LevelDebug),
	})
	_, _, hdr := get(t, c.frontTS.URL+"/v1/simulate?benchmark=res50_tf&gpus=2")
	id := hdr.Get(telemetry.RequestIDHeader)
	found := false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("front log line not JSON: %v\n%s", err, line)
		}
		if m["trace_id"] == id && m["msg"] == "request" {
			found = true
		}
	}
	if !found {
		t.Fatalf("request id %s not in front logs:\n%s", id, buf.String())
	}
}

// requestCount matches a sample name of the kernel's request counter
// on a compute endpoint.
var requestCount = regexp.MustCompile(`^` + MetricRequests + `\{code="(\d+)",endpoint="(simulate|sweep|sweep_stream)"\}$`)

// Each front event is counted once, in the registry: after held and
// forwarded answers, refusals, a shed, a stream and a partial sweep,
// every /v1/stats count equals its /metrics sample, and every request's
// flight summary carries the status its count was filed under.
func TestStatsAgreeWithMetrics(t *testing.T) {
	// One backend, which answers a two-cell stream one record short:
	// with nowhere to fail over to, that grid is a partial answer.
	bad := tamperBackend(t, func(_ int64, path string, code int, body []byte) (int, []byte) {
		if path != "/v1/sweep/stream" {
			return code, body
		}
		recs, sum := splitStream(t, body)
		if sum.Cells != 2 {
			return code, body
		}
		return code, joinStream(append(recs[1:], sum)...)
	})
	fr, ts := newFront(t, bad.URL)

	over := make([]sweep.CellKey, serve.MaxRequestCells+1)
	for i := range over {
		over[i] = sweep.CellKey{Benchmark: "res50_tf"}
	}
	if code, body := postCells(t, ts.URL+"/v1/sweep", over); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized sweep = %d (%s), want 413", code, body)
	}
	for i, c := range []struct {
		path string
		want int
		body string // a substring the answer must carry
	}{
		{"/v1/simulate?benchmark=res50_tf", http.StatusOK, "record"}, // forwarded
		{"/v1/simulate?benchmark=res50_tf", http.StatusOK, "record"}, // held
		{"/v1/simulate?benchmark=nope", http.StatusBadRequest, "error"},
		{"/v1/sweep/stream?benchmarks=res50_tf,ncf_py&gpus=1,2", http.StatusOK, `"completed":4`},
		{"/v1/sweep?benchmarks=xfmr_py&gpus=1,2", http.StatusOK, `"partial": true`},
	} {
		if code, body, _ := get(t, ts.URL+c.path); code != c.want || !strings.Contains(body, c.body) {
			t.Fatalf("request %d %s = %d (%s), want %d with %s", i, c.path, code, strings.TrimSpace(body), c.want, c.body)
		}
	}
	bad.Close()
	if code, body, _ := get(t, ts.URL+"/v1/simulate?benchmark=ssd_py&gpus=4"); code != http.StatusServiceUnavailable {
		t.Fatalf("simulate with no backend = %d (%s), want 503", code, strings.TrimSpace(body))
	}

	st := fr.Snapshot()
	_, text, _ := get(t, ts.URL+"/metrics")
	m := map[string]int64{}
	for _, line := range strings.Split(text, "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("metric line %q: %v", line, err)
			}
			m[line[:i]] = int64(v)
		}
	}
	counted := map[string]int64{} // "endpoint code" → count
	var requests int64
	for name, v := range m {
		if g := requestCount.FindStringSubmatch(name); g != nil {
			counted[g[2]+" "+g[1]] += v
			requests += v
		}
	}
	for _, c := range []struct {
		field             string
		got, want, sample int64
	}{
		{"requests", st.Requests, 7, requests},
		{"failovers", st.Failovers, 0, m[MetricFailovers]},
		{"fanouts", st.Fanouts, 2, m[MetricFanouts]},
		{"cell_hits", st.CellHits, 2, m[MetricCellCache+`{result="hit"}`]},
		{"cell_misses", st.CellMisses, 7, m[MetricCellCache+`{result="miss"}`]},
	} {
		if c.got != c.want || c.got != c.sample {
			t.Errorf("%s: stats %d, metrics %d, want %d", c.field, c.got, c.sample, c.want)
		}
	}

	filed := map[string]int64{}
	for _, e := range fr.Flight().Requests() {
		switch ep := httpkit.Endpoint(e.Path); ep {
		case "simulate", "sweep", "sweep_stream":
			filed[fmt.Sprintf("%s %d", ep, e.Status)]++
		}
	}
	if fmt.Sprint(filed) != fmt.Sprint(counted) {
		t.Errorf("flight statuses %v, counted codes %v", filed, counted)
	}
}
