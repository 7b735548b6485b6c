// Package serve is the benchmark-as-a-service daemon: an HTTP/JSON
// front end over the sweep engine that answers simulate and sweep
// queries for many concurrent clients. The headline is not the
// routing — it is the robustness envelope:
//
//   - Admission control. A bounded work queue with explicit load
//     shedding: once queue depth or in-flight requests exceed configured
//     limits, requests are refused with 429 + Retry-After instead of
//     queuing without bound; a request costing more than
//     MaxRequestCells cells is a 413 before it queues. Per-tenant token
//     buckets (keyed by the X-Tenant header) keep one noisy client from
//     starving the rest.
//   - Deadline propagation. A request deadline (Request-Timeout header
//     or ?timeout=, capped at 5 minutes, 30 seconds when none is named)
//     flows into the sweep engine's per-cell context machinery, so a
//     client timeout cancels simulation work instead of orphaning it —
//     and a sweep interrupted mid-grid returns the cells it completed
//     through the engine's Partial/Report path.
//   - Dependency protection. The persistent disk cache tier is an
//     accelerator: the engine reads a failing disk as a miss, drops the
//     failed write and counts both (Cache.DiskErrors), so a bad disk
//     costs speed, never an answer. Identical concurrent cells share one
//     simulation through the engine's per-cell singleflight memo.
//     The HTTP kernel contains a per-request panic to a 500 for that
//     request.
//   - Lifecycle. Drain refuses new work and cancels admitted work when
//     the drain deadline passes, with /healthz, /readyz and /metrics
//     (Prometheus text straight from the telemetry registry) for
//     orchestration. The daemon shell (internal/telecli) owns the
//     listener and drives the drain.
//
// The wire types (SimulateResponse, SweepResponse, StreamFrame) and
// the stream protocol's one writer and one reader (StreamWriter,
// ReadStream) live here; the front tier and the load harness
// (internal/loadgen) are their other users. The package holds no HTTP
// client. The daemon binary is cmd/mlperf-serve; cmd/mlperf-loadgen
// drives it to overload, checks every answer and asserts SLOs.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"mlperf/internal/httpkit"
	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
)

// Metric names the server registers. Exported so CI assertions and
// tests share one schema.
const (
	MetricRequests      = "serve_requests_total"          // counter, endpoint= code=
	MetricShed          = "serve_shed_total"              // counter, reason=quota|queue|drain
	MetricInFlight      = "serve_inflight"                // gauge, admitted requests executing
	MetricQueueDepth    = "serve_queue_depth"             // gauge, requests waiting for a slot
	MetricPanics        = "serve_panics_total"            // counter, contained per-request panics
	MetricPartials      = "serve_partial_responses_total" // counter, sweeps answered with a partial grid
	MetricStreamRecords = "serve_stream_records_total"    // counter, record frames delivered to clients
	// MetricEndpointSeconds is observed by the request middleware for
	// every response, sheds and errors included.
	MetricEndpointSeconds = "serve_endpoint_seconds" // histogram, endpoint=
)

// MaxRequestCells is the per-request cell budget: a request costing
// more is refused with 413 before admission. Admission itself bounds
// requests, not cells. A constant, not a setting, so the front tier
// applies the budget its backends do (TooLarge) before any fan-out.
const MaxRequestCells = 4096

// The request deadline: defaultDeadline when the client names none, and
// never more than deadlineCap.
const (
	defaultDeadline = 30 * time.Second
	deadlineCap     = 5 * time.Minute
)

// TooLarge is the refusal of a request costing more than
// MaxRequestCells cells, or nil when it fits. Its message is the 413
// body both tiers send.
func TooLarge(cost int64) error {
	if cost <= MaxRequestCells {
		return nil
	}
	return fmt.Errorf("request costs %d cells, server admits at most %d", cost, MaxRequestCells)
}

// Config shapes the daemon. The zero value serves on a private engine
// with the documented defaults — every limit exists and is finite, so a
// misconfigured deployment degrades by shedding, not by growing queues.
type Config struct {
	// Engine executes the cells (nil = a private GOMAXPROCS-worker
	// engine; the process-wide sweep.Default is deliberately NOT used so
	// a daemon cannot be perturbed by library callers in the same
	// process).
	Engine *sweep.Engine
	// CacheDir, when set, attaches the persistent content-addressed cell
	// store.
	CacheDir string
	// CacheMaxBytes caps the cache directory's size; past it the oldest
	// entries are evicted on write-through (0 = unbounded; a cap needs
	// CacheDir).
	CacheMaxBytes int64

	// MaxInFlight caps concurrently executing admitted requests
	// (default 8).
	MaxInFlight int
	// MaxQueue caps requests waiting for an execution slot; beyond it
	// the server sheds with 429 (default 2*MaxInFlight).
	MaxQueue int
	// TenantRate is each tenant's sustained request rate in requests per
	// second (default 100; <0 = unlimited). A tenant's bucket holds
	// max(2*TenantRate, 1) requests.
	TenantRate float64

	// Telemetry is the registry /metrics serves and /v1/stats reads (nil
	// = a private registry; the daemon always measures itself). It
	// belongs to this one server: a registry shared with another daemon
	// would add that daemon's request counts to this one's stats, and
	// its engine cache series would read only the last engine attached.
	Telemetry *telemetry.Registry
	// Logger emits structured request/lifecycle events (nil = no
	// logging; nil is the valid no-op logger).
	Logger *telemetry.Logger
	// EnablePprof exposes net/http/pprof under /debug/pprof/ — opt-in
	// because profiling endpoints reveal process internals.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.TenantRate == 0 {
		c.TenantRate = 100
	}
	return c
}

// Server is one daemon instance. Create with New, expose with Handler,
// stop with Drain.
type Server struct {
	cfg     Config
	eng     *sweep.Engine
	reg     *telemetry.Registry
	adm     *admission
	tenants *tenantLimiter
	log     *telemetry.Logger
	flight  *telemetry.FlightRecorder

	mux *http.ServeMux

	// draining flips when Drain begins: /readyz reports 503 and new API
	// requests are refused, while in-flight ones finish.
	draining atomic.Bool
	// hardCtx ends when the drain deadline expires; admit's drain watch
	// then cancels every admitted request still running (the engine
	// returns partial results on the way out).
	hardCtx    context.Context
	hardCancel context.CancelFunc

	started time.Time
}

// New builds a server. The error is reserved for a cache setting
// sweep.Engine.AttachCache refuses: a negative CacheMaxBytes, a cap
// without a CacheDir, or an unopenable CacheDir.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	eng := cfg.Engine
	if eng == nil {
		eng = sweep.NewEngine(0)
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	eng.SetTelemetry(reg)
	s := &Server{
		cfg:     cfg,
		eng:     eng,
		reg:     reg,
		adm:     newAdmission(cfg.MaxInFlight, cfg.MaxQueue, reg),
		tenants: newTenantLimiter(cfg.TenantRate),
		log:     cfg.Logger,
		flight:  telemetry.NewFlightRecorder(telemetry.DefaultFlightSize),
		started: time.Now(),
	}
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	if err := eng.AttachCache(cfg.CacheDir, cfg.CacheMaxBytes); err != nil {
		return nil, err
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Engine returns the engine the server executes on (tests inspect its
// cache stats).
func (s *Server) Engine() *sweep.Engine { return s.eng }

// Registry returns the telemetry registry /metrics serves from.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Flight returns the server's flight recorder: the kernel dumps it on a
// contained panic, the daemon shell on drain and SIGQUIT.
func (s *Server) Flight() *telemetry.FlightRecorder { return s.flight }

// Handler returns the full HTTP surface: the kernel's request
// middleware (trace identity, X-Request-Id, flight recording, panic
// containment) around the routes, so even a panicking request leaves a
// summary with its status recorded as 500.
func (s *Server) Handler() http.Handler {
	return httpkit.Observe(s.reg, s.log, s.flight, MetricEndpointSeconds, MetricRequests, MetricPanics, s.mux)
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain begins the drain: /readyz reports 503 and new API requests are
// refused with 503 at once, while admitted ones run on. When ctx ends
// (the drain deadline), the work still admitted is cancelled, and the
// engine's Partial path answers it with the cells that completed.
func (s *Server) Drain(ctx context.Context) {
	s.draining.Store(true)
	context.AfterFunc(ctx, s.hardCancel)
}

// Stats is the /v1/stats snapshot: the admission posture and the
// engine's cache counters (disk errors included), for clients (and the
// loadgen harness) that assert on server behaviour. Coalesced is
// Cache.Joins: cell lookups that joined a simulation already in flight,
// the work identical concurrent requests shared.
type Stats struct {
	Uptime        float64          `json:"uptime_seconds"`
	Draining      bool             `json:"draining"`
	Requests      int64            `json:"requests"`
	Shed          int64            `json:"shed"`
	Coalesced     int64            `json:"coalesced"`
	Partials      int64            `json:"partial_responses"`
	Panics        int64            `json:"panics"`
	Streams       int64            `json:"streams"`
	StreamRecords int64            `json:"stream_records"`
	InFlight      int64            `json:"inflight"`
	Queued        int64            `json:"queued"`
	FlightEntries int              `json:"flight_entries"`
	Cache         sweep.CacheStats `json:"cache"`
}

// Snapshot assembles the current Stats. Every count is read from the
// registry /metrics serves, so the two cannot disagree: Requests is the
// kernel's count of compute requests, Streams the streams it answered
// 200.
func (s *Server) Snapshot() Stats {
	cache := s.eng.Stats()
	var shed int64
	for _, reason := range []shedReason{shedQueue, shedQuota, shedDrain} {
		shed += s.reg.Count(MetricShed, telemetry.L("reason", string(reason)))
	}
	return Stats{
		Uptime:    time.Since(s.started).Seconds(),
		Draining:  s.draining.Load(),
		Requests:  httpkit.Requests(s.reg, MetricEndpointSeconds),
		Shed:      shed,
		Coalesced: cache.Joins,
		Partials:  s.reg.Count(MetricPartials),
		Panics:    s.reg.Count(MetricPanics),
		Streams: s.reg.Count(MetricRequests,
			telemetry.L("endpoint", "sweep_stream"), telemetry.L("code", "200")),
		StreamRecords: s.reg.Count(MetricStreamRecords),
		InFlight:      int64(len(s.adm.slots)),
		Queued:        s.adm.queued.Load(),
		FlightEntries: s.flight.Len(),
		Cache:         cache,
	}
}

// FillManifest records the serving run into a telemetry manifest — the
// final flush a drained daemon performs.
func (s *Server) FillManifest(m *telemetry.Manifest) {
	st := s.Snapshot()
	m.Config["requests"] = fmt.Sprintf("%d", st.Requests)
	m.Config["shed"] = fmt.Sprintf("%d", st.Shed)
	m.Config["coalesced"] = fmt.Sprintf("%d", st.Coalesced)
	m.Config["partial_responses"] = fmt.Sprintf("%d", st.Partials)
	m.Config["streams"] = fmt.Sprintf("%d", st.Streams)
	m.Config["stream_records"] = fmt.Sprintf("%d", st.StreamRecords)
	if s.cfg.CacheDir != "" {
		m.Config["disk_errors"] = fmt.Sprintf("%d", st.Cache.DiskErrors)
	}
	st.Cache.FillManifest(m)
}
