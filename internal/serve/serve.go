// Package serve is the benchmark-as-a-service daemon: an HTTP/JSON
// front end over the sweep engine that answers simulate and sweep
// queries for many concurrent clients. The headline is not the
// routing — it is the robustness envelope:
//
//   - Admission control. A bounded work queue with explicit load
//     shedding: once queue depth, in-flight requests or in-flight
//     simulation cost exceed configured limits, requests are refused
//     with 429 + Retry-After instead of queuing without bound. Per-tenant
//     token buckets (keyed by the X-Tenant header) keep one noisy client
//     from starving the rest.
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
//     Per-request panics are contained to a 500 for that request.
//   - Lifecycle. Graceful drain on Shutdown (stop accepting, finish
//     in-flight under a drain deadline, then cancel the rest), with
//     /healthz, /readyz and /metrics (Prometheus text straight from the
//     telemetry registry) for orchestration.
//
// The daemon binary is cmd/mlperf-serve; cmd/mlperf-loadgen is the
// synthetic-client harness that drives it to overload and asserts SLOs.
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"mlperf/internal/httpkit"
	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
)

// Metric names the server registers. Exported so the loadgen harness,
// CI assertions and tests share one schema.
const (
	MetricRequests       = "serve_requests_total"          // counter, endpoint= code=
	MetricShed           = "serve_shed_total"              // counter, reason=quota|queue|cost|drain
	MetricInFlight       = "serve_inflight"                // gauge, admitted requests executing
	MetricQueueDepth     = "serve_queue_depth"             // gauge, requests waiting for a slot
	MetricCellsInFlight  = "serve_cells_inflight"          // gauge, admitted simulation cost units
	MetricRequestSeconds = "serve_request_seconds"         // histogram, wall time per admitted request
	MetricPanics         = "serve_panics_total"            // counter, contained per-request panics
	MetricPartials       = "serve_partial_responses_total" // counter, sweeps answered with a partial grid
	MetricStreams        = "serve_stream_requests_total"   // counter, admitted /v1/sweep/stream requests
	MetricStreamRecords  = "serve_stream_records_total"    // counter, record frames delivered to clients
	// MetricEndpointSeconds is observed by the request middleware for
	// EVERY response — sheds and errors included — unlike
	// MetricRequestSeconds, which times only admitted compute requests.
	MetricEndpointSeconds = "serve_endpoint_seconds" // histogram, endpoint=
)

// MaxRequestCells is the cell budget: the summed cell count of admitted
// requests never exceeds it, and a request costing more can never be
// admitted, so it is refused with 413 before admission. A constant, not a setting, so the front tier applies
// the budget its backends do (TooLarge) before any fan-out.
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
	// entries are evicted on write-through (0 = unbounded).
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

	// Telemetry is the registry /metrics serves from (nil = a private
	// registry; the daemon always measures itself).
	Telemetry *telemetry.Registry
	// Logger emits structured request/lifecycle events (nil = no
	// logging; nil is the valid no-op logger).
	Logger *telemetry.Logger
	// EnablePprof exposes net/http/pprof under /debug/pprof/ — opt-in
	// because profiling endpoints reveal process internals.
	EnablePprof bool
	// FlightDumpPath, when set, is where the flight ring is written on a
	// contained panic and when a drain completes (the daemon adds
	// SIGQUIT on top). Best-effort: a failed dump is logged, not fatal.
	FlightDumpPath string
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

// Server is one daemon instance. Create with New, expose with Handler
// or Serve, stop with Shutdown.
type Server struct {
	cfg     Config
	eng     *sweep.Engine
	reg     *telemetry.Registry
	adm     *admission
	tenants *tenantLimiter
	log     *telemetry.Logger
	flight  *telemetry.FlightRecorder

	mux     *http.ServeMux
	httpSrv *http.Server

	// draining flips when Shutdown begins: /readyz reports 503 and new
	// API requests are refused, while in-flight ones finish.
	draining atomic.Bool
	// hardCtx ends when the drain deadline expires; admit's drain watch
	// then cancels every admitted request still running (the engine
	// returns partial results on the way out).
	hardCtx    context.Context
	hardCancel context.CancelFunc

	started time.Time
	// requests/shed/partials mirror the registry counters as plain
	// atomics so /v1/stats and FillManifest do not depend on telemetry
	// being enabled.
	requests      atomic.Int64
	shed          atomic.Int64
	partials      atomic.Int64
	panics        atomic.Int64
	streams       atomic.Int64
	streamRecords atomic.Int64
}

// New builds a server. The error is reserved for an unopenable
// CacheDir.
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
	if cfg.CacheDir != "" {
		ds, err := sweep.OpenDiskStore(cfg.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("serve: cache dir %s: %w", cfg.CacheDir, err)
		}
		ds.SetMaxBytes(cfg.CacheMaxBytes)
		eng.SetStore(ds)
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

// Flight returns the server's flight recorder (for the daemon's
// SIGQUIT/drain dump hooks).
func (s *Server) Flight() *telemetry.FlightRecorder { return s.flight }

// Handler returns the full HTTP surface: the kernel's request
// middleware (trace identity, X-Request-Id, flight recording)
// outermost, panic containment inside it, then the routes — so even a
// panicking request leaves a summary with its status recorded as 500.
func (s *Server) Handler() http.Handler {
	return httpkit.Observe(s.reg, s.log, s.flight, MetricEndpointSeconds, s.recoverWrap(s.mux))
}

// recoverWrap contains a per-request panic to a 500 for that request —
// one poisoned query must not take the daemon down with it. The sweep
// engine already converts cell panics into typed *CellError results;
// this is the outer hull for everything else.
func (s *Server) recoverWrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				s.reg.Counter(MetricPanics).Inc()
				tc, _ := telemetry.TraceFromContext(r.Context())
				s.flight.Record(telemetry.FlightEntry{
					Kind: "event", Msg: fmt.Sprintf("panic: %v", v), TraceID: tc.TraceID,
					Method: r.Method, Path: r.URL.Path,
				})
				s.log.Error("panic contained",
					telemetry.F("trace_id", tc.TraceID),
					telemetry.F("path", r.URL.Path),
					telemetry.F("panic", fmt.Sprint(v)))
				s.DumpFlight("panic")
				httpkit.WriteError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// Serve serves on an existing listener until Shutdown. It returns nil
// after a graceful shutdown, like net/http.
func (s *Server) Serve(ln net.Listener) error {
	s.httpSrv = httpkit.NewServer(s.Handler())
	err := s.httpSrv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Addr returns the bound address once Serve is running ("" before).
func (s *Server) Addr() string {
	if s.httpSrv == nil {
		return ""
	}
	return s.httpSrv.Addr
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the server: new API requests are refused immediately
// (503 + /readyz not-ready), listeners close, and in-flight requests
// get until ctx's deadline to finish. When the deadline expires the
// remaining computations are cancelled — the engine's Partial path
// returns whatever completed — and connections are force-closed. Safe
// to call without a listener (tests drive Handler directly).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.flight.Event("drain begin", "")
	s.log.Info("drain begin")
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
		if err != nil {
			// Drain deadline expired: cancel in-flight work and force the
			// connections closed. The cancellation is what turns "killed
			// mid-sweep" into "partial report".
			s.flight.Event("drain deadline expired", "")
			s.log.Warn("drain deadline expired", telemetry.F("err", err.Error()))
			s.hardCancel()
			s.httpSrv.Close()
		}
	} else {
		<-ctx.Done()
	}
	s.hardCancel()
	s.flight.Event("drain complete", "")
	s.log.Info("drain complete")
	s.DumpFlight("drain")
	return err
}

// DumpFlight writes the flight ring to Config.FlightDumpPath (no-op
// when unset). reason lands in the dump envelope — "panic", "drain",
// "sigquit" — so a postmortem knows what triggered the snapshot.
func (s *Server) DumpFlight(reason string) {
	if s.cfg.FlightDumpPath == "" {
		return
	}
	if err := s.flight.DumpFile(s.cfg.FlightDumpPath, "mlperf-serve", reason); err != nil {
		s.log.Warn("flight dump failed",
			telemetry.F("path", s.cfg.FlightDumpPath), telemetry.F("err", err.Error()))
	} else {
		s.log.Info("flight dumped",
			telemetry.F("path", s.cfg.FlightDumpPath), telemetry.F("reason", reason))
	}
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
	CellsInFlight int64            `json:"cells_inflight"`
	FlightEntries int              `json:"flight_entries"`
	Cache         sweep.CacheStats `json:"cache"`
}

// Snapshot assembles the current Stats.
func (s *Server) Snapshot() Stats {
	cache := s.eng.Stats()
	return Stats{
		Uptime:        time.Since(s.started).Seconds(),
		Draining:      s.draining.Load(),
		Requests:      s.requests.Load(),
		Shed:          s.shed.Load(),
		Coalesced:     cache.Joins,
		Partials:      s.partials.Load(),
		Panics:        s.panics.Load(),
		Streams:       s.streams.Load(),
		StreamRecords: s.streamRecords.Load(),
		InFlight:      s.adm.inFlight.Load(),
		Queued:        s.adm.queued.Load(),
		CellsInFlight: s.adm.cells.Load(),
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
