package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mlperf/internal/httpkit"
	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
)

var hexTraceID = regexp.MustCompile(`^[0-9a-f]{32}$`)

// Satellite regression: every response — 200s, 4xx, and every shed
// early-exit — carries X-Request-Id, and sheds carry Retry-After too.
func TestEveryResponseCarriesRequestID(t *testing.T) {
	srv, ts := newTestServer(t, Config{}, nil)

	paths := []string{
		"/v1/simulate?benchmark=res50_tf&gpus=2", // 200
		"/v1/simulate?benchmark=nope",            // 400
		"/v1/stats",                              // 200, ops endpoint
		"/healthz",                               // 200, probe
		"/debug/requests",                        // 200, debug
		"/no/such/route",                         // 404
	}
	for _, p := range paths {
		_, _, hdr := get(t, ts.URL+p)
		if id := hdr.Get(telemetry.RequestIDHeader); !hexTraceID.MatchString(id) {
			t.Errorf("%s: X-Request-Id %q not a 32-hex trace id", p, id)
		}
	}

	// The drain 503 is an early exit before any handler logic.
	srv.draining.Store(true)
	code, _, hdr := get(t, ts.URL+"/v1/simulate?benchmark=res50_tf&gpus=2")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("drain shed: %d", code)
	}
	if !hexTraceID.MatchString(hdr.Get(telemetry.RequestIDHeader)) {
		t.Errorf("drain shed missing X-Request-Id: %q", hdr.Get(telemetry.RequestIDHeader))
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("drain shed missing Retry-After")
	}
	srv.draining.Store(false)
}

func TestQuotaShedCarriesIdentityAndReason(t *testing.T) {
	var logBuf bytes.Buffer
	srv, ts := newTestServer(t, Config{
		TenantRate: 1e-9, // one burst token, then shed
		Logger:     telemetry.NewLogger(&syncWriter{buf: &logBuf}, telemetry.LevelDebug),
	}, nil)

	first, _, _ := get(t, ts.URL+"/v1/simulate?benchmark=res50_tf&gpus=2", "X-Tenant", "acme")
	if first != http.StatusOK {
		t.Fatalf("first request: %d", first)
	}
	code, _, hdr := get(t, ts.URL+"/v1/simulate?benchmark=res50_tf&gpus=2", "X-Tenant", "acme")
	if code != http.StatusTooManyRequests {
		t.Fatalf("quota shed: %d", code)
	}
	id := hdr.Get(telemetry.RequestIDHeader)
	if !hexTraceID.MatchString(id) {
		t.Fatalf("shed X-Request-Id: %q", id)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("shed missing Retry-After")
	}

	// The response's request id must appear in at least one structured
	// log line, and the shed line must carry the typed reason.
	logged := logBuf.String()
	if !strings.Contains(logged, id) {
		t.Errorf("request id %s not in any log line:\n%s", id, logged)
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(logged), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line not JSON: %v\n%s", err, line)
		}
		if m["msg"] == "shed" && m["trace_id"] == id {
			found = true
			if m["reason"] != "quota" {
				t.Errorf("shed reason: %v", m["reason"])
			}
			if m["tenant"] != "acme" {
				t.Errorf("shed tenant: %v", m["tenant"])
			}
		}
	}
	if !found {
		t.Errorf("no shed log line with trace_id %s:\n%s", id, logged)
	}

	// The flight ring's request summary carries the same identity and
	// reason.
	var shedEntry *telemetry.FlightEntry
	for _, e := range srv.Flight().Requests() {
		if e.TraceID == id {
			e := e
			shedEntry = &e
		}
	}
	if shedEntry == nil {
		t.Fatalf("shed request not in flight ring: %+v", srv.Flight().Requests())
	}
	if shedEntry.Status != http.StatusTooManyRequests || shedEntry.Reason != "quota" {
		t.Errorf("flight entry: %+v", shedEntry)
	}
}

// syncWriter serializes writes — the logger locks, but the test also
// reads the buffer after requests complete.
type syncWriter struct{ buf *bytes.Buffer }

func (w *syncWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

func TestTraceparentAdoptedIntoSpans(t *testing.T) {
	reg := telemetry.NewWithClock(nil)
	srv, ts := newTestServer(t, Config{Telemetry: reg}, nil)

	up := telemetry.NewTraceContext()
	_, _, hdr := get(t, ts.URL+"/v1/simulate?benchmark=res50_tf&gpus=2",
		telemetry.TraceparentHeader, up.Traceparent())

	// X-Request-Id echoes the adopted trace id, not a fresh one.
	if got := hdr.Get(telemetry.RequestIDHeader); got != up.TraceID {
		t.Fatalf("X-Request-Id %s want adopted trace %s", got, up.TraceID)
	}

	var reqSpan *telemetry.Span
	var runParent telemetry.SpanID
	for _, sp := range reg.Tracer().Spans() {
		sp := sp
		switch sp.Kind {
		case telemetry.KindRequest:
			reqSpan = &sp
		case telemetry.KindRun:
			runParent = sp.Parent
		}
	}
	if reqSpan == nil {
		t.Fatal("no request span recorded")
	}
	if reqSpan.Trace != up.TraceID {
		t.Errorf("request span trace %s want %s", reqSpan.Trace, up.TraceID)
	}
	if reqSpan.RemoteParent != up.SpanID {
		t.Errorf("request span remote parent %s want caller span %s", reqSpan.RemoteParent, up.SpanID)
	}
	if reqSpan.Wire == "" {
		t.Error("request span has no wire id")
	}
	// The engine's run span nests under the request span via the
	// request context, which the handler's deadline context carries.
	if runParent != reqSpan.ID {
		t.Errorf("run span parent %d want request span %d", runParent, reqSpan.ID)
	}
	_ = srv
}

func TestEndpointHistogramObservesSheds(t *testing.T) {
	reg := telemetry.New()
	srv, ts := newTestServer(t, Config{Telemetry: reg}, nil)
	get(t, ts.URL+"/v1/simulate?benchmark=res50_tf&gpus=2")
	srv.draining.Store(true)
	get(t, ts.URL+"/v1/simulate?benchmark=res50_tf&gpus=2") // shed 503
	srv.draining.Store(false)

	counts := map[string]int64{}
	for _, mv := range reg.Snapshot() {
		if mv.Name == MetricEndpointSeconds {
			counts[mv.Labels] += mv.Count
		}
	}
	if counts[`{endpoint="simulate"}`] != 2 {
		t.Fatalf("simulate endpoint observations: %v (sheds must be observed too)", counts)
	}
}

func TestStatsExposeDiskErrorsAndFlight(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheDir: t.TempDir()}, nil)
	get(t, ts.URL+"/v1/simulate?benchmark=res50_tf&gpus=2")

	_, body, _ := get(t, ts.URL+"/v1/stats")
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.DiskErrors != 0 || st.Cache.Disk.Misses != 1 {
		t.Errorf("healthy cache dir: disk errors %d, disk misses %d (want 0, 1)",
			st.Cache.DiskErrors, st.Cache.Disk.Misses)
	}
	if st.FlightEntries == 0 {
		t.Error("no flight entries after a request")
	}
}

func TestDebugFlightEndpointsServeValidDumps(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	get(t, ts.URL+"/v1/simulate?benchmark=res50_tf&gpus=2")

	_, body, _ := get(t, ts.URL+"/debug/flight")
	d, err := telemetry.ParseFlightDump([]byte(body))
	if err != nil {
		t.Fatalf("/debug/flight not a valid dump: %v\n%s", err, body)
	}
	if d.Tool != "mlperf-serve" || len(d.Entries) == 0 {
		t.Fatalf("dump: %+v", d)
	}

	_, body, _ = get(t, ts.URL+"/debug/requests")
	var reqs []telemetry.FlightEntry
	if err := json.Unmarshal([]byte(body), &reqs); err != nil {
		t.Fatal(err)
	}
	if len(reqs) == 0 || reqs[0].Path != "/v1/simulate" {
		t.Fatalf("requests: %+v", reqs)
	}
}

func TestPprofGatedBehindFlag(t *testing.T) {
	_, off := newTestServer(t, Config{}, nil)
	code, _, _ := get(t, off.URL+"/debug/pprof/cmdline")
	if code == http.StatusOK {
		t.Fatal("pprof exposed without the flag")
	}
	_, on := newTestServer(t, Config{EnablePprof: true}, nil)
	code, _, _ = get(t, on.URL+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("pprof with flag: %d", code)
	}
}

func TestPanicDumpsFlightToDisk(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/flight.json"
	srv, ts := newTestServer(t, Config{}, nil)
	srv.Flight().SetDumpTarget(path, "mlperf-serve")
	srv.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })

	code, _, hdr := get(t, ts.URL+"/boom")
	if code != http.StatusInternalServerError {
		t.Fatalf("panic status: %d", code)
	}
	if !hexTraceID.MatchString(hdr.Get(telemetry.RequestIDHeader)) {
		t.Error("panic response missing X-Request-Id")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no flight dump after panic: %v", err)
	}
	d, err := telemetry.ParseFlightDump(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reason != "panic" {
		t.Fatalf("dump reason %q", d.Reason)
	}
	found := false
	for _, e := range d.Entries {
		if strings.Contains(e.Msg, "kaboom") {
			found = true
		}
	}
	if !found {
		t.Fatalf("panic event not in dump: %+v", d.Entries)
	}
}

// requestCount matches a sample name of the kernel's request counter
// on a compute endpoint.
var requestCount = regexp.MustCompile(`^` + MetricRequests + `\{code="(\d+)",endpoint="(simulate|sweep|sweep_stream)"\}$`)

// metricSamples reads /metrics into sample name (with labels) → value.
func metricSamples(t *testing.T, url string) map[string]int64 {
	t.Helper()
	_, body, _ := get(t, url+"/metrics")
	out := map[string]int64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		out[line[:i]] = int64(v)
	}
	return out
}

// Each serving event is counted once, in the registry: after one
// request of every outcome a compute endpoint has, every /v1/stats
// count equals its /metrics sample, and every request's flight summary
// carries the status its count was filed under.
func TestStatsAgreeWithMetrics(t *testing.T) {
	gs := newGateStore(func(k sweep.CellKey) bool { return k.Batch == 99 })
	srv, ts := newTestServer(t, Config{TenantRate: 1}, gs) // a burst of 2 per tenant
	t.Cleanup(func() { close(gs.gate) })
	srv.mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		srv.runQuery(w, r, 1, func(context.Context) (any, int, error) { panic("boom") })
	})

	// A simulate whose client leaves while its cell is parked.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/simulate?benchmark=res50_tf&batch=99", nil)
	if err != nil {
		t.Fatal(err)
	}
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	<-gs.entered
	cancel()
	<-gone
	waitFor(t, "the abandoned simulate to finish", func() bool { return len(srv.Flight().Requests()) == 1 })

	over := `{"cells":[` + strings.Repeat(`{"benchmark":"res50_tf"},`, MaxRequestCells) + `{"benchmark":"res50_tf"}]}`
	for i, c := range []struct {
		method, path string
		tenant       string
		want         int
	}{
		{"GET", "/v1/simulate?benchmark=res50_tf&gpus=2", "a", http.StatusOK},
		{"GET", "/v1/simulate?benchmark=nope", "b", http.StatusBadRequest},
		{"POST", "/v1/sweep", "c", http.StatusRequestEntityTooLarge},
		{"GET", "/v1/simulate?benchmark=res50_tf", "noisy", http.StatusOK},
		{"GET", "/v1/simulate?benchmark=res50_tf", "noisy", http.StatusOK},
		{"GET", "/v1/simulate?benchmark=res50_tf", "noisy", http.StatusTooManyRequests},
		{"GET", "/v1/sweep/stream?benchmarks=res50_tf,ncf_py&gpus=1,2", "d", http.StatusOK},
		{"GET", "/v1/sweep?benchmarks=res50_tf&gpus=1&batches=32,99&timeout=0.3", "e", http.StatusOK},
		{"POST", "/v1/simulate", "f", http.StatusInternalServerError},
	} {
		var code int
		var body string
		if c.method == "POST" {
			code, body, _ = post(t, ts.URL+c.path, over, "X-Tenant", c.tenant)
		} else {
			code, body, _ = get(t, ts.URL+c.path, "X-Tenant", c.tenant)
		}
		if code != c.want {
			t.Fatalf("request %d %s %s = %d (%s), want %d", i, c.method, c.path, code, strings.TrimSpace(body), c.want)
		}
	}

	st := srv.Snapshot()
	m := metricSamples(t, ts.URL)
	counted := map[string]int64{} // "endpoint code" → count
	var requests, shed int64
	for name, v := range m {
		if g := requestCount.FindStringSubmatch(name); g != nil {
			counted[g[2]+" "+g[1]] += v
			requests += v
		}
		if strings.HasPrefix(name, MetricShed+"{") {
			shed += v
		}
	}
	for _, c := range []struct {
		field     string
		got, want int64
		sample    int64
	}{
		{"requests", st.Requests, 10, requests},
		{"shed", st.Shed, 1, shed},
		{"partial_responses", st.Partials, 1, m[MetricPartials]},
		{"panics", st.Panics, 1, m[MetricPanics]},
		{"streams", st.Streams, 1, m[MetricRequests+`{code="200",endpoint="sweep_stream"}`]},
		{"stream_records", st.StreamRecords, 4, m[MetricStreamRecords]},
	} {
		if c.got != c.want || c.got != c.sample {
			t.Errorf("%s: stats %d, metrics %d, want %d", c.field, c.got, c.sample, c.want)
		}
	}

	filed := map[string]int64{}
	for _, e := range srv.Flight().Requests() {
		switch ep := httpkit.Endpoint(e.Path); ep {
		case "simulate", "sweep", "sweep_stream":
			filed[fmt.Sprintf("%s %d", ep, e.Status)]++
		}
	}
	if fmt.Sprint(filed) != fmt.Sprint(counted) {
		t.Errorf("flight statuses %v, counted codes %v", filed, counted)
	}
	if filed["simulate 499"] != 1 || filed["simulate 500"] != 1 {
		t.Errorf("flight statuses %v, want one 499 and one 500 simulate", filed)
	}
}
