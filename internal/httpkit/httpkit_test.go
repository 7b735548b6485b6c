package httpkit

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"mlperf/internal/telemetry"
)

var hexTraceID = regexp.MustCompile(`^[0-9a-f]{32}$`)

func TestEndpointLabels(t *testing.T) {
	cases := []struct{ path, want string }{
		{"/healthz", "probe"},
		{"/readyz", "probe"},
		{"/metrics", "probe"},
		{"/v1/stats", "stats"},
		{"/v1/simulate", "simulate"},
		{"/v1/sweep", "sweep"},
		{"/v1/sweep/stream", "sweep_stream"},
		{"/debug/requests", "debug"},
		{"/debug/pprof/heap", "debug"},
		{"/debug", "other"},
		{"/v1/simulate/extra", "other"},
		{"/no/such/route", "other"},
		{"", "other"},
	}
	for _, c := range cases {
		if got := Endpoint(c.path); got != c.want {
			t.Errorf("Endpoint(%q) = %q, want %q", c.path, got, c.want)
		}
	}
}

func TestLevelByStatus(t *testing.T) {
	cases := []struct {
		status int
		want   telemetry.Level
	}{
		{http.StatusOK, telemetry.LevelInfo},
		{http.StatusBadRequest, telemetry.LevelWarn},
		{http.StatusTooManyRequests, telemetry.LevelWarn},
		{http.StatusServiceUnavailable, telemetry.LevelWarn}, // a shed, not a fault
		{http.StatusInternalServerError, telemetry.LevelError},
		{http.StatusBadGateway, telemetry.LevelError},
	}
	for _, c := range cases {
		if got := Level(c.status); got != c.want {
			t.Errorf("Level(%d) = %v, want %v", c.status, got, c.want)
		}
	}
}

// Retry-After is integral seconds on the wire; the hint must round UP
// and can never be 0 — a sub-second hint used to pass the <= 0 clamp
// and integer-divide to "retry immediately", defeating the shed.
func TestRetryAfterSecondsRoundsUpNeverZero(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want int
	}{
		{-time.Second, 1},
		{0, 1},
		{time.Millisecond, 1},
		{500 * time.Millisecond, 1}, // the pinned regression: 500ms is 1s, not 0
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{time.Second + time.Millisecond, 2},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2},
		{90 * time.Second, 90},
	}
	for _, c := range cases {
		if got := RetryAfterSeconds(c.in); got != c.want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

// The error envelope is part of the wire contract both processes
// share: two-space indented, one key, trailing newline.
func TestErrorEnvelopeBytes(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusBadRequest, `bad n "0": want 1..10000`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	want := "{\n  \"error\": \"bad n \\\"0\\\": want 1..10000\"\n}\n"
	if got := rec.Body.String(); got != want {
		t.Errorf("envelope bytes:\n got %q\nwant %q", got, want)
	}
}

// A shed behind the middleware carries the request ID and a
// Retry-After of at least one second, and its reason reaches the
// flight summary and the request log line.
func TestShedCarriesIdentityRetryAfterAndReason(t *testing.T) {
	reg := telemetry.New()
	flight := telemetry.NewFlightRecorder(0)
	var logBuf bytes.Buffer
	log := telemetry.NewLogger(&logBuf, telemetry.LevelDebug)
	var inner *statusWriter
	h := Observe(reg, log, flight, "test_seconds", "test_requests_total", "test_panics_total", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner, _ = w.(*statusWriter)
		Shed(w, http.StatusTooManyRequests, "quota", 100*time.Millisecond, "overloaded: quota")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/simulate", nil))

	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d", rec.Code)
	}
	id := rec.Header().Get(telemetry.RequestIDHeader)
	if !hexTraceID.MatchString(id) {
		t.Errorf("X-Request-Id %q", id)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After %q, want 1", ra)
	}
	if inner == nil || inner.reason != "quota" || inner.code != http.StatusTooManyRequests {
		t.Fatalf("writer after shed: %+v", inner)
	}
	reqs := flight.Requests()
	if len(reqs) != 1 || reqs[0].TraceID != id || reqs[0].Reason != "quota" || reqs[0].Status != http.StatusTooManyRequests {
		t.Errorf("flight summary: %+v", reqs)
	}
	if n := reg.Counter("test_requests_total", telemetry.L("endpoint", "simulate"), telemetry.L("code", "429")).Value(); n != 1 {
		t.Errorf(`test_requests_total{code="429",endpoint="simulate"} = %d, want 1`, n)
	}
	var line map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(logBuf.Bytes()), &line); err != nil {
		t.Fatalf("log line: %v\n%s", err, logBuf.String())
	}
	if line["msg"] != "request" || line["trace_id"] != id || line["reason"] != "quota" ||
		line["endpoint"] != "simulate" || line["level"] != "warn" {
		t.Errorf("log line: %v", line)
	}
}

// The middleware adopts an incoming traceparent: the request span
// carries the caller's trace and wire span, and the histogram is
// observed under the name the process passed in.
func TestObserveAdoptsTraceAndObservesHistogram(t *testing.T) {
	reg := telemetry.New()
	h := Observe(reg, nil, telemetry.NewFlightRecorder(0), "test_seconds", "test_requests_total", "test_panics_total",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	up := telemetry.NewTraceContext()
	req := httptest.NewRequest("POST", "/v1/sweep", nil)
	req.Header.Set(telemetry.TraceparentHeader, up.Traceparent())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if got := rec.Header().Get(telemetry.RequestIDHeader); got != up.TraceID {
		t.Errorf("X-Request-Id %s, want adopted %s", got, up.TraceID)
	}
	spans := reg.Tracer().Spans()
	if len(spans) != 1 {
		t.Fatalf("spans: %+v", spans)
	}
	sp := spans[0]
	if sp.Kind != telemetry.KindRequest || sp.Name != "POST /v1/sweep" ||
		sp.Trace != up.TraceID || sp.RemoteParent != up.SpanID || sp.Wire == "" {
		t.Errorf("request span: %+v", sp)
	}
	var n int64
	for _, mv := range reg.Snapshot() {
		if mv.Name == "test_seconds" && mv.Labels == `{endpoint="sweep"}` {
			n += mv.Count
		}
	}
	if n != 1 {
		t.Errorf("histogram observations %d, want 1", n)
	}
	if n := reg.Counter("test_requests_total", telemetry.L("endpoint", "sweep"), telemetry.L("code", "200")).Value(); n != 1 {
		t.Errorf(`test_requests_total{code="200",endpoint="sweep"} = %d, want 1`, n)
	}
	// A probe and an unserved path are counted under their labels but
	// are not compute requests.
	for _, p := range []string{"/healthz", "/no/such/route"} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", p, nil))
	}
	if n := Requests(reg, "test_seconds"); n != 1 {
		t.Errorf("Requests = %d, want 1", n)
	}
}

// A handler's panic is contained to a 500 that every record of the
// request agrees on: the count, the flight summary and the log line
// say 500, the span is closed, the panic is counted, logged and
// recorded, and the ring is dumped with reason "panic" to its target.
func TestObserveContainsPanic(t *testing.T) {
	reg := telemetry.New()
	flight := telemetry.NewFlightRecorder(0)
	dump := filepath.Join(t.TempDir(), "flight.json")
	flight.SetDumpTarget(dump, "mlperf-test")
	var logBuf bytes.Buffer
	log := telemetry.NewLogger(&logBuf, telemetry.LevelInfo)
	h := Observe(reg, log, flight, "test_seconds", "test_requests_total", "test_panics_total",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { panic("kaboom") }))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/simulate", nil))

	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "internal error: kaboom") {
		t.Fatalf("panic answered %d %q, want a 500 envelope", rec.Code, rec.Body.String())
	}
	id := rec.Header().Get(telemetry.RequestIDHeader)
	if !hexTraceID.MatchString(id) {
		t.Errorf("X-Request-Id %q", id)
	}
	if n := reg.Counter("test_requests_total", telemetry.L("endpoint", "simulate"), telemetry.L("code", "500")).Value(); n != 1 {
		t.Errorf(`test_requests_total{code="500",endpoint="simulate"} = %d, want 1`, n)
	}
	if n := reg.Count("test_panics_total"); n != 1 {
		t.Errorf("test_panics_total = %d, want 1", n)
	}
	if n := reg.Tracer().OpenCount(); n != 0 {
		t.Errorf("%d spans left open", n)
	}
	entries := flight.Snapshot()
	if len(entries) != 2 || entries[0].Msg != "panic: kaboom" || entries[0].TraceID != id ||
		entries[1].Kind != "request" || entries[1].Status != http.StatusInternalServerError {
		t.Errorf("flight: %+v", entries)
	}
	var panicLine, requestLine bool
	for _, l := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("log line %q: %v", l, err)
		}
		switch m["msg"] {
		case "panic contained":
			panicLine = m["level"] == "error" && m["trace_id"] == id && m["path"] == "/v1/simulate" && m["panic"] == "kaboom"
		case "request":
			requestLine = m["level"] == "error" && m["status"] == float64(500)
		}
	}
	if !panicLine || !requestLine {
		t.Errorf("logs lack an error line for the panic or the 500:\n%s", logBuf.String())
	}
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatalf("no flight dump after a panic: %v", err)
	}
	if d, err := telemetry.ParseFlightDump(data); err != nil || d.Reason != "panic" || d.Tool != "mlperf-test" || len(d.Entries) != 2 {
		t.Errorf("dump %+v, %v", d, err)
	}
}

func TestWriterFlushReachesFlusher(t *testing.T) {
	rec := httptest.NewRecorder()
	w := &statusWriter{ResponseWriter: rec, code: http.StatusOK}
	w.Flush()
	if !rec.Flushed {
		t.Error("Flush did not reach the underlying http.Flusher")
	}
	// A writer without Flush is tolerated, not a panic.
	(&statusWriter{ResponseWriter: noFlush{rec}}).Flush()
}

type noFlush struct{ http.ResponseWriter }

func TestMountRoutes(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("mounted_total").Inc()
	flight := telemetry.NewFlightRecorder(0)
	for _, pprofOn := range []bool{false, true} {
		mux := http.NewServeMux()
		Mount(mux, reg, flight, "mlperf-test", pprofOn)
		get := func(path string) (int, string) {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			return rec.Code, rec.Body.String()
		}
		if code, body := get("/healthz"); code != http.StatusOK || body != "{\n  \"status\": \"ok\"\n}\n" {
			t.Errorf("/healthz: %d %q", code, body)
		}
		if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "mounted_total") {
			t.Errorf("/metrics: %d %q", code, body)
		}
		if code, _ := get("/debug/requests"); code != http.StatusOK {
			t.Errorf("/debug/requests: %d", code)
		}
		code, body := get("/debug/flight")
		if d, err := telemetry.ParseFlightDump([]byte(body)); code != http.StatusOK || err != nil || d.Tool != "mlperf-test" {
			t.Errorf("/debug/flight: %d %v %q", code, err, body)
		}
		want := http.StatusNotFound
		if pprofOn {
			want = http.StatusOK
		}
		if code, _ := get("/debug/pprof/"); code != want {
			t.Errorf("pprof=%v: /debug/pprof/ = %d, want %d", pprofOn, code, want)
		}
	}
}

// Both daemons listen through NewServer, so a client that never
// finishes its headers cannot hold a connection forever.
func TestNewServerBoundsHeaderRead(t *testing.T) {
	srv := NewServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want positive", srv.ReadHeaderTimeout)
	}
	if srv.Handler == nil {
		t.Fatal("handler not installed")
	}
}
