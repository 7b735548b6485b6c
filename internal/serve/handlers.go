package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"mlperf/internal/httpkit"
	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
)

// routes wires the HTTP surface: the kernel's shared routes, then the
// daemon's own.
func (s *Server) routes() {
	httpkit.Mount(s.mux, s.reg, s.flight, "mlperf-serve", s.cfg.EnablePprof)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/sweep/stream", s.handleSweepStream)
}

// shedWith refuses a request with 429 (or 503 during drain) and a
// Retry-After hint, counting the shed under its reason. Overload
// produces clean, typed refusals — never 5xx — which is what the
// loadgen harness asserts. The typed reason lands in the shed log line
// and, through httpkit.Shed, in the request's flight summary.
func (s *Server) shedWith(w http.ResponseWriter, r *http.Request, reason shedReason, retryAfter time.Duration) {
	s.reg.Counter(MetricShed, telemetry.Label{Key: "reason", Value: string(reason)}).Inc()
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
		telemetry.F("retry_after_s", httpkit.RetryAfterSeconds(retryAfter)))
	httpkit.Shed(w, status, string(reason), retryAfter, fmt.Sprintf("overloaded: %s", reason))
}

// handleReadyz: readiness — flips not-ready the moment drain begins so
// a load balancer stops routing here while in-flight requests finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpkit.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleStats: the JSON operational snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	httpkit.WriteJSON(w, http.StatusOK, s.Snapshot())
}

// RequestTimeout resolves the request's execution deadline: the
// ?timeout= query or, without one, the Request-Timeout header, in
// positive finite seconds, capped at deadlineCap; defaultDeadline when
// the request names none. Exported so the front tier refuses a
// malformed deadline exactly as a backend would, even for a request it
// answers itself.
func RequestTimeout(r *http.Request) (time.Duration, error) {
	raw := r.Header.Get("Request-Timeout")
	if q := r.URL.Query().Get("timeout"); q != "" {
		raw = q
	}
	if raw == "" {
		return defaultDeadline, nil
	}
	secs, err := strconv.ParseFloat(raw, 64)
	// !(secs > 0) also catches NaN, which compares false to everything.
	if err != nil || !(secs > 0) || math.IsInf(secs, 1) {
		return 0, fmt.Errorf("bad timeout %q: want positive finite seconds", raw)
	}
	if secs >= deadlineCap.Seconds() {
		return deadlineCap, nil
	}
	return time.Duration(secs * float64(time.Second)), nil
}

// admit is the one admission prologue every compute endpoint runs on a
// request that parsed, in order: drain check, tenant quota, size,
// deadline, drain watch, then the bounded queue and cost budget. A
// refusal is answered here — a typed 429/503 with Retry-After, a 413 or
// a 400 — and ok is false. Otherwise ctx carries the request's deadline
// and is also cancelled by a drain's hard stop, and finish releases the
// slot and the context.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, cost int64) (ctx context.Context, finish func(), ok bool) {
	if s.draining.Load() {
		s.shedWith(w, r, shedDrain, time.Second)
		return nil, nil, false
	}
	if ok, wait := s.tenants.allow(r.Header.Get("X-Tenant")); !ok {
		s.shedWith(w, r, shedQuota, wait)
		return nil, nil, false
	}
	if err := TooLarge(cost); err != nil {
		httpkit.WriteError(w, http.StatusRequestEntityTooLarge, err.Error())
		return nil, nil, false
	}
	dl, err := RequestTimeout(r)
	if err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, err.Error())
		return nil, nil, false
	}
	ctx, cancel := context.WithTimeout(r.Context(), dl)
	// Drain's hard stop cancels admitted work: the engine's Partial path
	// then answers with whatever completed.
	stopDrainWatch := context.AfterFunc(s.hardCtx, cancel)
	release, reason, ok := s.adm.acquire(ctx, cost)
	if !ok {
		stopDrainWatch()
		cancel()
		s.shedWith(w, r, reason, time.Second)
		return nil, nil, false
	}
	return ctx, func() {
		release()
		stopDrainWatch()
		cancel()
	}, true
}

// runQuery is the request pipeline of the unary compute endpoints, in
// the order the design doc names: admission (admit) → simulate (fn,
// under the request's deadline; identical concurrent cells share one
// simulation in the engine's memo) → respond. cost prices the request
// in cells; fn computes the response payload and status. A panic in fn
// unwinds to the kernel (httpkit.Observe), which answers this request
// with a 500.
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, cost int64, fn func(ctx context.Context) (any, int, error)) {
	ctx, finish, ok := s.admit(w, r, cost)
	if !ok {
		return
	}
	defer finish()

	val, status, err := fn(ctx)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			httpkit.WriteError(w, http.StatusRequestTimeout, "deadline exceeded")
		case errors.Is(err, context.Canceled):
			// Client went away: 499 reaches no one, but the kernel's
			// count, flight entry and log line record it.
			w.WriteHeader(499)
		default:
			httpkit.WriteError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	httpkit.WriteJSON(w, status, val)
}

// ---- /v1/simulate ----

// SimulateResponse is one cell's result. Exported so the front tier
// encodes a cell it answers itself from the same type as one it relays.
type SimulateResponse struct {
	Record sweep.Record `json:"record"`
}

// CellKeyFromRequest parses /v1/simulate's cell-addressing query
// parameters into a normalized key, so an impossible cell is a 400
// before admission. Exported for the front tier's digest routing and
// the load harness's answer check.
func CellKeyFromRequest(r *http.Request) (sweep.CellKey, error) {
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
	// A fixed order, so a request with two bad parameters always names
	// the same one.
	for _, p := range []struct {
		name string
		dst  *int
	}{{"gpus", &k.GPUs}, {"batch", &k.Batch}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return sweep.CellKey{}, fmt.Errorf("bad %s %q", p.name, v)
			}
			*p.dst = n
		}
	}
	if q.Get("ref") == "true" || q.Get("ref") == "1" {
		k.Ref = true
	}
	return k.Normalize()
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	k, err := CellKeyFromRequest(r)
	if err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.runQuery(w, r, 1, func(ctx context.Context) (any, int, error) {
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
// benchmarks=, systems=, gpus=, batches=, precisions=, and a faults=
// plan applied to every cell.
func gridFrom(r *http.Request) (sweep.Grid, error) {
	q := r.URL.Query()
	g, err := sweep.GridLists{
		Benchmarks: q.Get("benchmarks"),
		Systems:    q.Get("systems"),
		GPUs:       q.Get("gpus"),
		Batches:    q.Get("batches"),
		Precisions: q.Get("precisions"),
	}.Grid()
	if err != nil {
		return sweep.Grid{}, err
	}
	g.Faults = q.Get("faults")
	return g, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	// A GET carries grid parameters; a POST carries an explicit cell
	// list (the front tier's digest-partitioned sub-grids). Resolving up
	// front prices the request for admission.
	keys, cost, err := SweepKeysFromRequest(r)
	if err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	s.runQuery(w, r, cost, func(ctx context.Context) (any, int, error) {
		// Partial on: a deadline mid-grid returns the completed cells with
		// the partial flag set instead of an error — the server-side form
		// of mlperf-sweep's -partial.
		recs, rep, rerr := s.eng.RunCellsWithOptions(ctx, keys, sweep.Options{Partial: true})
		if rerr != nil {
			return nil, 0, rerr
		}
		sum := s.summarize(ctx, rep)
		return sum.Response(recs), http.StatusOK, nil
	})
}
