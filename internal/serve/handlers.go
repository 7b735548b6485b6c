package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mlperf/internal/cluster"
	"mlperf/internal/experiments"
	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
)

// routes wires the HTTP surface.
func (s *Server) routes() {
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/sweep/stream", s.handleSweepStream)
	s.mux.HandleFunc("/v1/whatif", s.handleWhatIf)
	s.mux.HandleFunc("/v1/schedule", s.handleSchedule)
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// shedWith refuses a request with 429 (or 503 during drain) and a
// Retry-After hint, counting the shed under its reason. Load shedding
// is deliberate and visible: overload produces clean, typed refusals —
// never 5xx — which is what the loadgen harness asserts. Every shed
// response still carries the identity headers the middleware set
// (X-Request-Id) plus Retry-After, and the typed reason lands in the
// shed log line and the request's flight-recorder summary.
func (s *Server) shedWith(w http.ResponseWriter, r *http.Request, reason shedReason, retryAfter time.Duration) {
	s.shed.Add(1)
	s.reg.Counter(MetricShed, telemetry.Label{Key: "reason", Value: string(reason)}).Inc()
	if rs, ok := w.(reasonSetter); ok {
		rs.setReason(string(reason))
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
	status := http.StatusTooManyRequests
	if reason == shedDrain {
		status = http.StatusServiceUnavailable
	}
	tc, _ := telemetry.TraceFromContext(r.Context())
	s.log.Warn("shed",
		telemetry.F("trace_id", tc.TraceID),
		telemetry.F("reason", string(reason)),
		telemetry.F("path", r.URL.Path),
		telemetry.F("tenant", r.Header.Get("X-Tenant")),
		telemetry.F("retry_after_s", retryAfterSeconds(retryAfter)))
	writeError(w, status, fmt.Sprintf("overloaded: %s", reason))
}

// retryAfterSeconds renders a retry hint as whole seconds, rounding UP
// and never below 1. Retry-After is integral on the wire, so a
// sub-second hint (a token due in 500ms) must become 1, not
// integer-divide to 0 — "Retry-After: 0" tells every shed client to
// hammer the server again immediately, which is the opposite of load
// shedding.
func retryAfterSeconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// handleHealthz: liveness — the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz: readiness — flips not-ready the moment drain begins so
// a load balancer stops routing here while in-flight requests finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleMetrics: Prometheus text exposition from the telemetry
// registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WritePrometheus(w)
}

// handleStats: the JSON operational snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// RequestTimeout parses the client's deadline: the ?timeout= query or,
// without one, the Request-Timeout header, in positive seconds; def
// when the request names none. Exported so the front tier refuses a
// malformed deadline exactly as a backend would, even for a request it
// answers itself.
func RequestTimeout(r *http.Request, def time.Duration) (time.Duration, error) {
	raw := r.Header.Get("Request-Timeout")
	if q := r.URL.Query().Get("timeout"); q != "" {
		raw = q
	}
	if raw == "" {
		return def, nil
	}
	secs, err := strconv.ParseFloat(raw, 64)
	if err != nil || secs <= 0 {
		return 0, fmt.Errorf("bad timeout %q: want positive seconds", raw)
	}
	return time.Duration(secs * float64(time.Second)), nil
}

// deadlineFor resolves the request's execution deadline: RequestTimeout
// defaulting to DefaultTimeout, capped by MaxTimeout.
func (s *Server) deadlineFor(r *http.Request) (time.Duration, error) {
	d, err := RequestTimeout(r, s.cfg.DefaultTimeout)
	if err != nil {
		return 0, err
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// runQuery is the shared request pipeline every compute endpoint flows
// through, in the order the design doc names: admission (drain check,
// tenant quota, bounded queue + cost budget) → coalesce (identical
// in-flight queries share one computation) → simulate (fn, under the
// propagated deadline) → shed (every refusal path above exits as a
// typed 429/503 with Retry-After, never an unbounded queue).
//
// cost prices the request in cells; key is its content-digest coalesce
// key; fn computes the response payload and status under the flight's
// context.
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, endpoint string, cost int64, key string, fn func(ctx context.Context) (any, int, error)) {
	start := time.Now()
	s.requests.Add(1)

	code := func(status int) {
		s.reg.Counter(MetricRequests,
			telemetry.Label{Key: "endpoint", Value: endpoint},
			telemetry.Label{Key: "code", Value: strconv.Itoa(status)}).Inc()
	}

	if s.draining.Load() {
		s.shedWith(w, r, shedDrain, time.Second)
		code(http.StatusServiceUnavailable)
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if ok, wait := s.tenants.allow(tenant); !ok {
		s.shedWith(w, r, shedQuota, wait)
		code(http.StatusTooManyRequests)
		return
	}
	if s.adm.tooLarge(cost) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request costs %d cells, server admits at most %d", cost, s.cfg.MaxCellsInFlight))
		code(http.StatusRequestEntityTooLarge)
		return
	}

	dl, err := s.deadlineFor(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		code(http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), dl)
	defer cancel()

	release, reason, ok := s.adm.acquire(ctx, cost)
	if !ok {
		s.shedWith(w, r, reason, time.Second)
		code(http.StatusTooManyRequests)
		return
	}
	defer release()

	// The flight context descends from the server lifecycle, not the
	// request (drain cancels it, a departing caller must not); re-attach
	// the request's trace identity so the engine's run span still nests
	// under this request.
	rctx := r.Context()
	val, status, err, joined := s.coal.do(s.hardCtx, ctx, key, func(ctx context.Context) (any, int, error) {
		return fn(telemetry.WithObsContext(ctx, rctx))
	})
	if joined {
		s.coalesced.Add(1)
		s.reg.Counter(MetricCoalesced).Inc()
		tc, _ := telemetry.TraceFromContext(rctx)
		s.log.Debug("coalesced join",
			telemetry.F("trace_id", tc.TraceID),
			telemetry.F("endpoint", endpoint),
			telemetry.F("key", key))
	}
	s.reg.Histogram(MetricRequestSeconds, telemetry.LatencyBuckets).Observe(time.Since(start).Seconds())

	if err != nil {
		var pe panicError
		switch {
		case errors.As(err, &pe):
			// A contained computation panic: this request's 500. The flight
			// goroutine recovered it so joined waiters get an answer instead
			// of a hang.
			s.panics.Add(1)
			s.reg.Counter(MetricPanics).Inc()
			writeError(w, http.StatusInternalServerError, pe.Error())
			code(http.StatusInternalServerError)
		case errors.Is(err, context.DeadlineExceeded):
			// The client's own deadline expired before the (shared) flight
			// produced anything this caller could use.
			writeError(w, http.StatusRequestTimeout, "deadline exceeded")
			code(http.StatusRequestTimeout)
		case errors.Is(err, context.Canceled):
			// Client went away; the status is for the log, not the wire.
			code(499)
		default:
			writeError(w, http.StatusBadRequest, err.Error())
			code(http.StatusBadRequest)
		}
		return
	}
	writeJSON(w, status, val)
	code(status)
}

// ---- /v1/simulate ----

// SimulateResponse is one cell's result. Exported so the front tier
// encodes a cell it answers itself from the same type as one it relays.
type SimulateResponse struct {
	Record sweep.Record `json:"record"`
}

// cellKeyFrom parses the cell-addressing query parameters shared by
// /v1/simulate.
func cellKeyFrom(r *http.Request) (sweep.CellKey, error) {
	q := r.URL.Query()
	k := sweep.CellKey{
		Benchmark: q.Get("benchmark"),
		System:    q.Get("system"),
		Precision: q.Get("precision"),
	}
	if k.Benchmark == "" {
		return sweep.CellKey{}, fmt.Errorf("missing benchmark parameter")
	}
	if k.System == "" {
		k.System = "dss8440"
	}
	k.GPUs = 1
	for name, dst := range map[string]*int{"gpus": &k.GPUs, "batch": &k.Batch} {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return sweep.CellKey{}, fmt.Errorf("bad %s %q", name, v)
			}
			*dst = n
		}
	}
	if q.Get("ref") == "true" || q.Get("ref") == "1" {
		k.Ref = true
	}
	return k, nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	k, err := cellKeyFrom(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	digest, err := k.Digest()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.runQuery(w, r, "simulate", 1, "cell:"+digest, func(ctx context.Context) (any, int, error) {
		recs, rep, err := s.eng.RunCellsWithOptions(ctx, []sweep.CellKey{k}, sweep.Options{})
		if err != nil {
			if rep != nil && rep.Canceled {
				return nil, 0, context.Cause(ctx)
			}
			return nil, 0, err
		}
		return SimulateResponse{Record: recs[0]}, http.StatusOK, nil
	})
}

// ---- /v1/sweep ----

// SweepResponse is a grid's outcome. Partial reports graceful
// degradation: the run was cut short (client deadline, drain) and
// Records holds zero values at the failed indices — exactly the
// engine's Partial/Report contract, over the wire.
type SweepResponse struct {
	Records   []sweep.Record `json:"records"`
	Cells     int            `json:"cells"`
	Completed int            `json:"completed"`
	Partial   bool           `json:"partial"`
	Canceled  bool           `json:"canceled"`
	Failures  []string       `json:"failures,omitempty"`
}

// gridFrom parses the grid query parameters: comma-separated
// benchmarks=, systems=, gpus=, batches=, precisions=.
func gridFrom(r *http.Request) (sweep.Grid, error) {
	q := r.URL.Query()
	g := sweep.Grid{
		Benchmarks: splitList(q.Get("benchmarks")),
		Systems:    splitList(q.Get("systems")),
		Precisions: splitList(q.Get("precisions")),
		Faults:     q.Get("faults"),
	}
	var err error
	if g.GPUCounts, err = intList(q.Get("gpus")); err != nil {
		return sweep.Grid{}, err
	}
	if g.BatchPerGPU, err = intList(q.Get("batches")); err != nil {
		return sweep.Grid{}, err
	}
	return g, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func intList(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	// A GET carries grid parameters; a POST carries an explicit cell
	// list (the front tier's digest-partitioned sub-grids). Expanding up
	// front prices the request for admission and yields the
	// content-addressed coalesce key: the digest of the cell digests.
	keys, err := sweepKeysFrom(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := gridKey(keys)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	s.runQuery(w, r, "sweep", int64(len(keys)), key, func(ctx context.Context) (any, int, error) {
		// Partial on: a deadline mid-grid returns the completed cells with
		// the partial flag set instead of an error — the server-side form
		// of mlperf-sweep's -partial.
		recs, rep, rerr := s.eng.RunCellsWithOptions(ctx, keys, sweep.Options{Partial: true})
		if rerr != nil {
			return nil, 0, rerr
		}
		resp := SweepResponse{
			Records:   recs,
			Cells:     rep.Cells,
			Completed: rep.Completed,
			Partial:   rep.Failed(),
			Canceled:  rep.Canceled,
		}
		for _, f := range rep.Failures {
			resp.Failures = append(resp.Failures, f.Error())
		}
		if resp.Partial {
			s.partials.Add(1)
			s.reg.Counter(MetricPartials).Inc()
		}
		return resp, http.StatusOK, nil
	})
}

// ---- /v1/whatif ----

type whatIfResponse struct {
	Rows []experiments.WhatIfRow `json:"rows"`
}

// whatIfCost is the fixed cell count of the NVLink-at-8 study: every
// Table IV benchmark × two systems × two GPU widths.
var whatIfCost = int64(len(experiments.Table4Benches) * 4)

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	s.runQuery(w, r, "whatif", whatIfCost, "whatif:nvlink8", func(ctx context.Context) (any, int, error) {
		rows, err := experiments.WhatIfNVLinkAt8On(ctx, s.eng)
		if err != nil {
			if cerr := context.Cause(ctx); cerr != nil {
				return nil, 0, cerr
			}
			return nil, 0, err
		}
		return whatIfResponse{Rows: rows}, http.StatusOK, nil
	})
}

// ---- /v1/schedule ----

type scheduleResponse struct {
	Policy  string               `json:"policy"`
	Metrics cluster.Metrics      `json:"metrics"`
	Jobs    []cluster.JobOutcome `json:"jobs"`
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	policy := q.Get("policy")
	if policy == "" {
		policy = "srtf"
	}
	pol, err := cluster.PolicyByName(policy)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	n, seed, gap := 12, int64(1), 1800.0
	if v := q.Get("n"); v != "" {
		if n, err = strconv.Atoi(v); err != nil || n < 1 || n > 10000 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad n %q: want 1..10000", v))
			return
		}
	}
	if v := q.Get("seed"); v != "" {
		if seed, err = strconv.ParseInt(v, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad seed %q", v))
			return
		}
	}
	if v := q.Get("gap"); v != "" {
		if gap, err = strconv.ParseFloat(v, 64); err != nil || gap < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad gap %q", v))
			return
		}
	}
	machines := splitList(q.Get("machines"))
	if len(machines) == 0 {
		machines = []string{"dss8440"}
	}

	// The coalesce key is the canonical parameter tuple; cost is the job
	// count (each job prices a handful of duration cells, all memoized
	// after the first trace).
	key := fmt.Sprintf("sched:%s:%d:%d:%g:%s", pol.Name(), n, seed, gap, strings.Join(machines, ","))
	s.runQuery(w, r, "schedule", int64(n), key, func(ctx context.Context) (any, int, error) {
		// cluster.Run has no context plumbing — scheduler runs are
		// milliseconds once the duration cells are memoized, so the
		// deadline gates admission and queueing, not the run itself.
		fleet, ferr := cluster.Fleet(machines...)
		if ferr != nil {
			return nil, 0, ferr
		}
		res, rerr := cluster.Run(cluster.Config{
			Fleet:     fleet,
			Jobs:      cluster.SyntheticTrace(seed, n, gap),
			Policy:    pol,
			Durations: cluster.SweepDurations(s.eng),
		})
		if rerr != nil {
			return nil, 0, rerr
		}
		return scheduleResponse{Policy: res.Policy, Metrics: res.Metrics, Jobs: res.Jobs}, http.StatusOK, nil
	})
}
