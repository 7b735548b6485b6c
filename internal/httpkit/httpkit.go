// Package httpkit is the HTTP kernel the serving daemon (internal/serve)
// and the front tier (internal/front) share: the request middleware, the
// status-capturing response writer, the JSON and error writers, the one
// load-shed path, panic containment, the routes both processes expose
// and the listener both serve with. Each process
// mounts it around its own mux, so the guarantees below hold in both by
// construction rather than by two copies kept in step:
//
//   - every response carries X-Request-Id (the request's trace ID),
//     429/503 sheds included, and every shed carries Retry-After >= 1;
//   - every request gets a KindRequest span carrying wire identity
//     (trace ID, this process's wire span ID, and the caller's wire span
//     ID when a traceparent header arrived); handlers nest their spans
//     under it via the request context;
//   - every request leaves one histogram observation under a bounded
//     endpoint label, one count under that label and its final status
//     code, one flight-recorder summary and, when logging is on, one
//     structured log line quoting the same trace ID. This is the only
//     place a request is counted, so the counter, the flight entry and
//     the log line always name the same status;
//   - a handler's panic is contained to a 500 for that request, counted,
//     logged, recorded in the flight ring and dumped (Observe).
package httpkit

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"mlperf/internal/telemetry"
)

// statusWriter captures the response status for the request summary
// and carries the shed reason Shed records. It forwards Flush so
// streaming handlers keep their per-frame flushing through the wrap.
type statusWriter struct {
	http.ResponseWriter
	code   int
	reason string // shed reason, set by Shed
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// WriteJSON writes v as two-space indented JSON under status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes the {"error": msg} envelope under status.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, errorBody{Error: msg})
}

// Shed refuses a request: it sets Retry-After, records reason on the
// wrapping statusWriter (so the flight summary and request log line
// carry it) and writes the error envelope. Load shedding is deliberate and
// visible: overload produces clean, typed refusals with a retry hint.
func Shed(w http.ResponseWriter, status int, reason string, retryAfter time.Duration, msg string) {
	if sw, ok := w.(*statusWriter); ok {
		sw.reason = reason
	}
	w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds(retryAfter)))
	WriteError(w, status, msg)
}

// RetryAfterSeconds renders a retry hint as whole seconds, rounding UP
// and never below 1. Retry-After is integral on the wire, so a
// sub-second hint (a token due in 500ms) must become 1, not
// integer-divide to 0 — "Retry-After: 0" tells every shed client to
// hammer the server again immediately, which is the opposite of load
// shedding.
func RetryAfterSeconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	return max(int((d+time.Second-1)/time.Second), 1)
}

// Endpoint maps a request path to its bounded-cardinality histogram
// label — label values must enumerate, not mirror client input.
func Endpoint(path string) string {
	switch path {
	case "/healthz", "/readyz", "/metrics":
		return "probe"
	case "/v1/stats":
		return "stats"
	case "/v1/simulate":
		return "simulate"
	case "/v1/sweep":
		return "sweep"
	case "/v1/sweep/stream":
		return "sweep_stream"
	}
	if strings.HasPrefix(path, "/debug/") {
		return "debug"
	}
	return "other"
}

// Level grades a response status for the request log line: server
// errors are errors, sheds (503 included) and client errors warn, the
// rest is info.
func Level(status int) telemetry.Level {
	switch {
	case status >= 500 && status != http.StatusServiceUnavailable:
		return telemetry.LevelError
	case status >= 400:
		return telemetry.LevelWarn
	}
	return telemetry.LevelInfo
}

// Requests is how many compute requests (simulate, sweep and
// sweep_stream, whatever their status) Observe has answered, read from
// the histogram it observes: probes, stats and unserved paths stay out.
func Requests(reg *telemetry.Registry, histogram string) int64 {
	var n int64
	for _, ep := range []string{"simulate", "sweep", "sweep_stream"} {
		n += reg.Count(histogram, telemetry.L("endpoint", ep))
	}
	return n
}

// Observe is the outermost middleware: trace identity in, X-Request-Id
// out, then one span, one observation of the histogram named histogram,
// one count of the counter named requests under endpoint and code, one
// flight entry and one log line per request.
//
// It also contains a handler's panic to a 500 for that request alone,
// in both processes: the 500 envelope goes through the status writer,
// so the count, the histogram, the flight summary and the log line all
// record 500; the span ends; the counter named panics counts it; a
// "panic: <v>" flight event and an error log line carry the trace ID;
// and the flight ring is dumped with reason "panic" when it has a dump
// target.
func Observe(reg *telemetry.Registry, log *telemetry.Logger, flight *telemetry.FlightRecorder, histogram, requests, panics string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tc, remoteParent := telemetry.TraceFromRequest(r.Header)
		w.Header().Set(telemetry.RequestIDHeader, tc.TraceID)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}

		span := reg.Tracer().StartSpan(telemetry.SpanStart{
			Kind:         telemetry.KindRequest,
			Name:         r.Method + " " + r.URL.Path,
			Trace:        tc.TraceID,
			Wire:         tc.SpanID,
			RemoteParent: remoteParent,
		})
		ctx := telemetry.ContextWithTrace(r.Context(), tc)
		ctx = telemetry.ContextWithSpan(ctx, span)

		start := time.Now()
		defer func() {
			v := recover()
			if v != nil {
				reg.Counter(panics).Inc()
				flight.Record(telemetry.FlightEntry{
					Kind: "event", Msg: fmt.Sprintf("panic: %v", v), TraceID: tc.TraceID,
					Method: r.Method, Path: r.URL.Path,
				})
				log.Error("panic contained",
					telemetry.F("trace_id", tc.TraceID),
					telemetry.F("path", r.URL.Path),
					telemetry.F("panic", fmt.Sprint(v)))
				WriteError(sw, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
			}
			reg.Tracer().End(span)
			dur := time.Since(start)
			ms := float64(dur) / float64(time.Millisecond)

			ep := Endpoint(r.URL.Path)
			reg.Histogram(histogram, telemetry.LatencyBuckets,
				telemetry.L("endpoint", ep)).Observe(dur.Seconds())
			reg.Counter(requests, telemetry.L("endpoint", ep),
				telemetry.L("code", strconv.Itoa(sw.code))).Inc()

			tenant := r.Header.Get("X-Tenant")
			flight.Record(telemetry.FlightEntry{
				Kind:       "request",
				TraceID:    tc.TraceID,
				Method:     r.Method,
				Path:       r.URL.Path,
				Status:     sw.code,
				Tenant:     tenant,
				Reason:     sw.reason,
				DurationMS: ms,
			})
			if v != nil {
				DumpFlight(flight, log, "panic")
			}
			lv := Level(sw.code)
			if !log.Enabled(lv) {
				return
			}
			fields := []telemetry.Field{
				telemetry.F("trace_id", tc.TraceID),
				telemetry.F("method", r.Method),
				telemetry.F("path", r.URL.Path),
				telemetry.F("endpoint", ep),
				telemetry.F("status", sw.code),
				telemetry.F("duration_ms", ms),
			}
			if tenant != "" {
				fields = append(fields, telemetry.F("tenant", tenant))
			}
			if sw.reason != "" {
				fields = append(fields, telemetry.F("reason", sw.reason))
			}
			log.Log(lv, "request", fields...)
		}()
		next.ServeHTTP(sw, r.WithContext(ctx))
	})
}

// DumpFlight writes flight to its dump target under reason and logs the
// outcome: the one dump path of the kernel (on a contained panic) and
// the daemon shell (on drain and SIGQUIT). Best-effort: a failed dump
// is logged, not fatal.
func DumpFlight(flight *telemetry.FlightRecorder, log *telemetry.Logger, reason string) {
	path, err := flight.DumpToTarget(reason)
	switch {
	case err != nil:
		log.Warn("flight dump failed", telemetry.F("path", path), telemetry.F("err", err.Error()))
	case path != "":
		log.Info("flight dumped", telemetry.F("path", path), telemetry.F("reason", reason))
	}
}

// Mount registers the routes both processes expose: /healthz,
// /metrics from reg, the flight recorder's /debug/requests and
// /debug/flight (dumped under tool), and net/http/pprof under
// /debug/pprof/ when pprofOn — opt-in, because profiling endpoints
// reveal process internals.
func Mount(mux *http.ServeMux, reg *telemetry.Registry, flight *telemetry.FlightRecorder, tool string, pprofOn bool) {
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, flight.Requests())
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, flight.Dump(tool, "debug"))
	})
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// NewServer is the http.Server both daemons listen with. Its header
// timeout bounds how long a client that never finishes its request
// headers can hold a connection.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
}
