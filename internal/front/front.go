// Package front is the multi-process serving tier: one HTTP front
// fanning requests across N mlperf-serve backends that share a single
// content-addressed cache directory. Placement is by cell digest: a cell
// goes to backend FNV-1a-64(digest) mod N, so the same cell always lands
// on the same backend — its memory tier stays hot and concurrent
// identical cells share one simulation inside one process instead of
// simulating twice — while the shared disk CAS makes every backend's
// results visible to all of them. The backend list is fixed for the
// front's life, so plain modulo placement never has to re-home a cell.
//
// Grid sweeps are digest-partitioned and take one path: the front
// expands the request to its cell list (the exact expansion the backends
// use), slices it by owner, and streams each slice from its owner's
// /v1/sweep/stream as an explicit {"cells": [...]} sub-grid. Each record
// frame is checked, re-indexed from its slice-local index to the global
// one and delivered as it arrives: the stream endpoint forwards it, the
// unary endpoint collects the frames into one SweepResponse. Either
// answer is byte-identical to a single process running the whole grid.
// A slice whose stream breaks fails over with only the cells it has not
// delivered, and the summary's completed count is the frames delivered.
// A grid over the backends' per-request cell cap (serve.MaxRequestCells) is
// refused with a backend's own 413 before any fan-out.
//
// Cell cache: the front keeps a bounded normalized-key → record map (a
// memo.Map, like the backends' cell memo) filled from every record it
// delivers, never from an undelivered cell. A held cell is answered
// without a backend hop — no backend admission, no tenant bucket, even
// with every backend draining or down — and a grid fans out only its
// unheld cells; only those are digested, to route them. A normalized
// key is the cell's content, as its digest is, so entries never need
// invalidation.
//
// Failover: a health loop polls each backend's /readyz; a draining or
// dead backend drops out of the preferred-routing set, and an in-flight
// attempt that hits a connection error or a 503 (drain) retries on the
// next healthy backend in the owner's rotation. 429s do NOT fail over —
// a shed is a backend-local admission decision, and bouncing shed
// traffic to the next backend would defeat load shedding exactly when it
// matters.
package front

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlperf/internal/httpkit"
	"mlperf/internal/memo"
	"mlperf/internal/serve"
	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
)

// Metric names the front registers.
const (
	MetricRequests       = "front_requests_total"                  // counter by endpoint/code
	MetricFailovers      = "front_failovers_total"                 // counter, attempts moved to another backend
	MetricFanouts        = "front_fanouts_total"                   // counter, sweep sub-requests issued
	MetricUnhealthy      = "front_backend_down"                    // gauge per backend, 1 = failing /readyz
	MetricRequestSeconds = "front_request_seconds"                 // histogram by endpoint=, wall time per request
	MetricTransitions    = "front_backend_transitions_total"       // counter per backend, health flips (up<->down)
	MetricLastTransition = "front_backend_last_transition_seconds" // gauge per backend, unix time of the last flip
	MetricCellCache      = "front_cell_cache_total"                // counter by result=hit|miss, one per cell looked up
	MetricPanics         = "front_panics_total"                    // counter, handler panics the kernel contained
)

// Config shapes the front tier.
type Config struct {
	// Backends are the mlperf-serve base URLs (e.g. http://127.0.0.1:8081).
	// At least one is required; all should share one -cache-dir for the
	// cross-process cache story to hold.
	Backends []string
	// HealthInterval is the /readyz poll cadence (0 = 500ms).
	HealthInterval time.Duration
	// Telemetry is the registry /metrics serves and /v1/stats reads (nil
	// = private). It belongs to this one front: a registry shared with
	// another daemon would add that daemon's counts to this one's stats.
	Telemetry *telemetry.Registry
	// Logger emits structured request/failover/health events (nil = no
	// logging).
	Logger *telemetry.Logger
}

// Stats is the front's operational snapshot (/v1/stats).
type Stats struct {
	Backends  []BackendStatus `json:"backends"`
	Requests  int64           `json:"requests"`
	Failovers int64           `json:"failovers"`
	Fanouts   int64           `json:"fanouts"`
	// Cells answered from the front's cell cache vs. asked of a backend.
	CellHits   int64 `json:"cell_hits"`
	CellMisses int64 `json:"cell_misses"`
}

// BackendStatus is one backend's view from the front. Transitions and
// LastTransition reconstruct flap windows: how often a backend's health
// flipped and when it last did.
type BackendStatus struct {
	URL            string `json:"url"`
	Healthy        bool   `json:"healthy"`
	Transitions    int64  `json:"transitions"`
	LastTransition string `json:"last_transition,omitempty"` // RFC3339Nano, empty = never flipped
}

// Front is one front-tier instance. Create with New, expose with
// Handler, stop with Close (stops the health loop).
type Front struct {
	cfg      Config
	backends []string
	client   *http.Client
	reg      *telemetry.Registry
	mux      *http.ServeMux

	// health holds each backend's published health, replaced whole on
	// every flip.
	health []atomic.Pointer[health]

	log    *telemetry.Logger
	flight *telemetry.FlightRecorder

	stopHealth context.CancelFunc
	healthDone chan struct{}

	cells cellCache
}

// health is one backend's health as one value: the last probe's verdict
// and the flips that led to it. A flip builds a new value and stores it
// once, so a reader never sees a verdict without its flip counted.
type health struct {
	healthy     bool
	transitions int64
	last        time.Time // zero = never flipped
}

// isHealthy reports backend i's last verdict.
func (f *Front) isHealthy(i int) bool { return f.health[i].Load().healthy }

// cellCacheCap bounds the cell cache: at most 8192 records, about 5 MB
// with their keys. A constant, not a knob.
const cellCacheCap = 8192

// cellCache holds records the fleet already computed, keyed by
// normalized cell key. The key is the cell's content (its digest is a
// pure function of it), so an entry never goes stale and is never
// invalidated; only the bound drops entries.
type cellCache struct {
	mu sync.Mutex
	m  *memo.Map[sweep.CellKey, sweep.Record]
}

func (c *cellCache) get(k sweep.CellKey) (sweep.Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Get(k)
}

// put stores a record. Callers pass only validated backend answers:
// whatever is put here is served without a backend hop.
func (c *cellCache) put(k sweep.CellKey, r sweep.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m.Put(k, r)
}

// New builds a front over cfg.Backends and starts its health loop.
func New(cfg Config) (*Front, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("front: no backends configured")
	}
	backends := make([]string, len(cfg.Backends))
	for i, b := range cfg.Backends {
		b = strings.TrimRight(strings.TrimSpace(b), "/")
		if !strings.HasPrefix(b, "http://") && !strings.HasPrefix(b, "https://") {
			return nil, fmt.Errorf("front: backend %q is not an http(s) URL", cfg.Backends[i])
		}
		backends[i] = b
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 500 * time.Millisecond
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	f := &Front{
		cfg:      cfg,
		backends: backends,
		client:   &http.Client{}, // no Timeout: streams are long-lived
		reg:      reg,
		mux:      http.NewServeMux(),
		health:   make([]atomic.Pointer[health], len(backends)),
		log:      cfg.Logger,
		flight:   telemetry.NewFlightRecorder(telemetry.DefaultFlightSize),
		cells:    cellCache{m: memo.New[sweep.CellKey, sweep.Record](cellCacheCap)},
	}
	// Optimistic start: every backend is presumed healthy until a probe
	// says otherwise, so the front serves immediately and per-request
	// failover covers the window before the first poll completes.
	for i := range f.health {
		f.health[i].Store(&health{healthy: true})
	}
	f.routes()
	ctx, cancel := context.WithCancel(context.Background())
	f.stopHealth = cancel
	f.healthDone = make(chan struct{})
	go f.healthLoop(ctx)
	return f, nil
}

// Close stops the health loop. In-flight backend requests finish on
// their own; the HTTP server owning the handler drains separately.
func (f *Front) Close() {
	f.stopHealth()
	<-f.healthDone
}

// Drain does nothing: the front admits no work of its own. Each request
// it holds is waiting on a backend (which drains its own admitted work)
// or on its cell cache, so the HTTP server's Shutdown, which waits for
// every request to finish, is the whole drain.
func (f *Front) Drain(context.Context) {}

// Handler returns the front's HTTP surface, the kernel's request
// middleware (panic containment included) outermost. The front is the
// fleet's ingress, so this is where a trace is usually born; propagate
// carries it to the backends.
func (f *Front) Handler() http.Handler {
	return httpkit.Observe(f.reg, f.log, f.flight, MetricRequestSeconds, MetricRequests, MetricPanics, f.mux)
}

func (f *Front) routes() {
	httpkit.Mount(f.mux, f.reg, f.flight, "mlperf-front", false)
	f.mux.HandleFunc("/readyz", f.handleReadyz)
	f.mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		httpkit.WriteJSON(w, http.StatusOK, f.Snapshot())
	})
	f.mux.HandleFunc("/v1/sweep", f.handleSweep)
	f.mux.HandleFunc("/v1/sweep/stream", f.handleSweepStream)
	f.mux.HandleFunc("/v1/simulate", f.handleSimulate)
}

// ---- health ----

func (f *Front) healthLoop(ctx context.Context) {
	defer close(f.healthDone)
	f.probeAll(ctx)
	t := time.NewTicker(f.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			f.probeAll(ctx)
		}
	}
}

func (f *Front) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for i := range f.backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.publish(i, f.probe(ctx, i))
		}(i)
	}
	wg.Wait()
}

// publish records backend i's probe verdict. A flip is one new health
// value, counted and timestamped before any reader can load it, then
// metered and logged — flap windows must be reconstructable after the
// fact. The down gauge is set last, once the verdict is readable.
func (f *Front) publish(i int, ok bool) {
	bl := telemetry.Label{Key: "backend", Value: strconv.Itoa(i)}
	if prev := f.health[i].Load(); prev.healthy != ok {
		h := &health{healthy: ok, transitions: prev.transitions + 1, last: time.Now()}
		f.health[i].Store(h)
		f.reg.Counter(MetricTransitions, bl).Inc()
		f.reg.Gauge(MetricLastTransition, bl).Set(float64(h.last.UnixNano()) / 1e9)
		dir := "down -> up"
		lv := telemetry.LevelInfo
		if !ok {
			dir = "up -> down"
			lv = telemetry.LevelWarn
		}
		f.log.Log(lv, "backend health transition",
			telemetry.F("backend", f.backends[i]),
			telemetry.F("index", i),
			telemetry.F("healthy", ok))
		f.flight.Record(telemetry.FlightEntry{
			Kind: "event", Msg: "backend " + dir, Backend: f.backends[i],
		})
	}
	v := 0.0
	if !ok {
		v = 1.0
	}
	f.reg.Gauge(MetricUnhealthy, bl).Set(v)
}

func (f *Front) probe(ctx context.Context, i int) bool {
	pctx, cancel := context.WithTimeout(ctx, f.cfg.HealthInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, f.backends[i]+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// owner places a routing key, a cell digest, on backend
// FNV-1a-64(key) mod len(backends). The hash has no seed, so every
// front over the same backend list agrees.
func (f *Front) owner(key string) int {
	h := fnv.New64a()
	io.WriteString(h, key) // a hash.Hash write never returns an error
	return int(h.Sum64() % uint64(len(f.backends)))
}

// order returns backend indices to try for a routing key: the owner's
// rotation with healthy backends first. Unhealthy ones stay at the tail
// as a last resort — a stale health view must not turn into a refusal
// when the backend is actually back.
func (f *Front) order(key string) []int {
	n := len(f.backends)
	owner := f.owner(key)
	rot := make([]int, 0, n)
	var down []int
	for s := 0; s < n; s++ {
		i := (owner + s) % n
		if f.isHealthy(i) {
			rot = append(rot, i)
		} else {
			down = append(down, i)
		}
	}
	return append(rot, down...)
}

// ---- backend requests ----

// forwardHeaders are the request headers that carry semantics the
// backends act on.
var forwardHeaders = []string{"X-Tenant", "Request-Timeout"}

// tryBackends walks the routing order issuing attempt(i) until one
// succeeds. attempt reports retriable=true for failures worth moving to
// the next backend (connection refused, 503 drain); any other outcome
// ends the walk.
func (f *Front) tryBackends(key string, attempt func(i int) (done bool, retriable bool)) bool {
	for n, i := range f.order(key) {
		if n > 0 {
			f.reg.Counter(MetricFailovers).Inc()
			f.log.Warn("failover",
				telemetry.F("backend", f.backends[i]),
				telemetry.F("attempt", n+1))
			f.flight.Record(telemetry.FlightEntry{
				Kind: "event", Msg: "failover", Backend: f.backends[i],
			})
		}
		done, retriable := attempt(i)
		if done {
			return true
		}
		if !retriable {
			return false
		}
	}
	return false
}

// handleSimulate answers one cell from the cell cache or forwards it,
// routed by its digest so repeated and concurrent misses for the same
// cell hit the same backend's memory tier.
func (f *Front) handleSimulate(w http.ResponseWriter, r *http.Request) {
	k, err := serve.CellKeyFromRequest(r)
	if err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if _, err := serve.RequestTimeout(r); err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if rec, ok := f.cells.get(k); ok {
		f.countCells(1, 0)
		httpkit.WriteJSON(w, http.StatusOK, serve.SimulateResponse{Record: rec})
		return
	}
	digest, err := k.Digest()
	if err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	f.countCells(0, 1)
	if !f.tryBackends(digest, func(i int) (bool, bool) {
		resp, err := f.send(r, i)
		if err != nil {
			return false, true
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusServiceUnavailable:
			io.Copy(io.Discard, resp.Body)
			return false, true
		case http.StatusOK:
			var sim serve.SimulateResponse
			if err := json.NewDecoder(resp.Body).Decode(&sim); err != nil {
				return false, true // a garbled answer is a broken backend
			}
			f.cells.put(k, sim.Record)
			httpkit.WriteJSON(w, http.StatusOK, sim)
			return true, false
		}
		relay(w, resp)
		return true, false
	}) {
		f.shedNoBackend(w, r)
	}
}

// send issues a bodiless backend request mirroring the client's method,
// path and semantic headers.
func (f *Front) send(r *http.Request, i int) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, f.backends[i]+r.URL.RequestURI(), nil)
	if err != nil {
		return nil, err
	}
	for _, h := range forwardHeaders {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	finish := f.propagate(r.Context(), req, i)
	resp, err := f.client.Do(req)
	finish()
	return resp, err
}

// relay copies a backend response through to the client.
func relay(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// shedNoBackend refuses a request no backend can take: 503 with
// Retry-After and the typed reason no_backend, which the request's
// flight summary and log line carry like a backend's sheds.
func (f *Front) shedNoBackend(w http.ResponseWriter, r *http.Request) {
	tc, _ := telemetry.TraceFromContext(r.Context())
	f.log.Warn("shed",
		telemetry.F("trace_id", tc.TraceID),
		telemetry.F("reason", "no_backend"),
		telemetry.F("path", r.URL.Path))
	httpkit.Shed(w, http.StatusServiceUnavailable, "no_backend", time.Second, "no backend available")
}

// countCells records one request's cell cache lookups.
func (f *Front) countCells(hits, misses int) {
	f.reg.Counter(MetricCellCache, telemetry.L("result", "hit")).Add(int64(hits))
	f.reg.Counter(MetricCellCache, telemetry.L("result", "miss")).Add(int64(misses))
}

// ---- sweep fan-out ----

// partition is one owner's slice of a grid, remembering each
// cell's global index so sub-results merge back into the exact order a
// single process would have returned.
type partition struct {
	indices []int
	keys    []sweep.CellKey
	route   string // the first cell's digest: its owner is the slice's
}

// gridPlan is a grid split for fan-out: records is the whole grid in
// global order with the held cells filled in, and parts slices the rest
// by owner.
type gridPlan struct {
	records []sweep.Record
	held    []int // global indices answered from the cell cache
	parts   []partition
}

// planGrid resolves a sweep request's cells, answers the held ones from
// the cell cache and slices the rest by owner, digesting only those to
// route them. It refuses, before any fan-out and
// held cells or not, what a backend refuses before admission, in the
// backend's order: a malformed grid (400), a grid over the backends'
// cell budget (413, the backend's own body) and a malformed deadline
// (400).
func (f *Front) planGrid(w http.ResponseWriter, r *http.Request) (*gridPlan, bool) {
	keys, cost, err := serve.SweepKeysFromRequest(r)
	if err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	if err := serve.TooLarge(cost); err != nil {
		httpkit.WriteError(w, http.StatusRequestEntityTooLarge, err.Error())
		return nil, false
	}
	if _, err := serve.RequestTimeout(r); err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	g := &gridPlan{records: make([]sweep.Record, len(keys))}
	byOwner := make([]*partition, len(f.backends))
	for i, k := range keys {
		if rec, ok := f.cells.get(k); ok {
			g.records[i] = rec
			g.held = append(g.held, i)
			continue
		}
		d, err := k.Digest()
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, err.Error())
			return nil, false
		}
		o := f.owner(d)
		p := byOwner[o]
		if p == nil {
			p = &partition{route: d}
			byOwner[o] = p
		}
		p.indices = append(p.indices, i)
		p.keys = append(p.keys, k)
	}
	f.countCells(len(g.held), len(keys)-len(g.held))
	for _, p := range byOwner {
		if p != nil {
			g.parts = append(g.parts, *p)
		}
	}
	return g, true
}

// timeoutQuery propagates an explicit ?timeout= to sub-requests (the
// Request-Timeout header travels with them too).
func timeoutQuery(r *http.Request) string {
	if v := r.URL.Query().Get("timeout"); v != "" {
		return "?timeout=" + v
	}
	return ""
}

// handleSweep answers a grid as one body: the fan-out's record frames
// fill the plan's records in global cell order around the held ones.
func (f *Front) handleSweep(w http.ResponseWriter, r *http.Request) {
	g, ok := f.planGrid(w, r)
	if !ok {
		return
	}
	sum := f.fanOut(r, g, func(fr *serve.StreamFrame) { g.records[fr.Index] = *fr.Record })
	httpkit.WriteJSON(w, http.StatusOK, sum.Response(g.records))
}

// handleSweepStream answers a grid as a frame stream: held cells'
// frames first, then the backends' frames as they arrive, then the
// merged summary. Per-backend cache detail stays on the backends' own
// /v1/stats.
func (f *Front) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	g, ok := f.planGrid(w, r)
	if !ok {
		return
	}
	sw := serve.NewStreamWriter(w, r)
	clientGone := false
	sum := f.fanOut(r, g, func(fr *serve.StreamFrame) {
		// A gone client stops the writes, not the fan-out: the backend
		// readers run to the end and every frame they validated is cached.
		clientGone = clientGone || sw.Frame(fr) != nil
	})
	if !clientGone {
		_ = sw.Frame(&sum) // last write: a client gone now needs nothing more
	}
}

// fanOut is the one grid path through the fleet. It streams every
// unheld slice from its owner (subStream, one goroutine each) and
// calls deliver on the caller's goroutine once per cell that arrives,
// held cells first, each frame carrying its global index. It returns
// the merged summary, whose Completed is the number of frames
// delivered.
func (f *Front) fanOut(r *http.Request, g *gridPlan, deliver func(*serve.StreamFrame)) serve.StreamFrame {
	// Buffered to every unheld cell: no cell is delivered twice, so the
	// backend readers never block on deliver.
	frames := make(chan serve.StreamFrame, len(g.records)-len(g.held))
	sums := make([]serve.StreamFrame, len(g.parts))
	errs := make([]error, len(g.parts))
	var wg sync.WaitGroup
	for pi, p := range g.parts {
		wg.Add(1)
		go func(pi int, p partition) {
			defer wg.Done()
			sums[pi], errs[pi] = f.subStream(r, p, frames)
		}(pi, p)
	}
	if len(g.parts) == 0 {
		close(frames) // every cell is held: nothing to wait for
	} else {
		go func() { wg.Wait(); close(frames) }()
	}

	sum := serve.StreamFrame{Type: "summary", Cells: len(g.records)}
	for _, gi := range g.held {
		deliver(&serve.StreamFrame{Type: "record", Index: gi, Record: &g.records[gi]})
		sum.Completed++
	}
	for fr := range frames {
		deliver(&fr)
		sum.Completed++
	}
	for pi, s := range sums {
		if errs[pi] != nil {
			// The slice's undelivered cells stay zero-valued — the shape a
			// single-process partial run gives failed cells.
			sum.Partial = true
			sum.Failures = append(sum.Failures, errs[pi].Error())
			continue
		}
		sum.Partial = sum.Partial || s.Partial
		sum.Canceled = sum.Canceled || s.Canceled
		if sum.Reason == "" {
			sum.Reason = s.Reason
		}
		sum.Failures = append(sum.Failures, s.Failures...)
	}
	return sum
}

// subStream streams one partition from /v1/sweep/stream on its owner,
// keyed by the partition's route (the first cell's owner IS the slice's
// owner, so attempt 0 goes there). Each record frame fills
// the cell cache and goes to frames re-indexed from slice-local to
// global; the backend's summary is returned.
//
// A backend's answer is broken when serve.ReadStream finds it breaks
// the protocol or its body fails to read. A broken answer fails over to
// the next backend with only the cells not delivered yet, so a
// delivered cell never travels twice. A well-formed partial summary
// (deadline, drain) is the backend's answer and is not retried.
func (f *Front) subStream(r *http.Request, p partition, frames chan<- serve.StreamFrame) (serve.StreamFrame, error) {
	todo := make([]int, len(p.keys)) // partition-local indices not yet delivered
	for j := range todo {
		todo[j] = j
	}
	var summary *serve.StreamFrame
	var lastErr error
	f.tryBackends(p.route, func(i int) (bool, bool) {
		f.reg.Counter(MetricFanouts).Inc()
		keys := make([]sweep.CellKey, len(todo))
		for n, j := range todo {
			keys[n] = p.keys[j]
		}
		body, err := serve.CellsBody(keys)
		if err != nil {
			lastErr = err
			return false, false
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
			f.backends[i]+"/v1/sweep/stream"+timeoutQuery(r), bytes.NewReader(body))
		if err != nil {
			lastErr = err
			return false, false
		}
		req.Header.Set("Content-Type", "application/json")
		for _, h := range forwardHeaders {
			if v := r.Header.Get(h); v != "" {
				req.Header.Set(h, v)
			}
		}
		// The RPC span covers the whole stream read, not just the dial —
		// the hop's duration in the stitched trace is the slice's wall
		// time on that backend.
		finish := f.propagate(r.Context(), req, i)
		defer finish()
		resp, err := f.client.Do(req)
		if err != nil {
			lastErr = err
			return false, true
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			io.Copy(io.Discard, resp.Body)
			lastErr = fmt.Errorf("backend %s draining", f.backends[i])
			return false, true
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			lastErr = fmt.Errorf("backend %s: %d %s", f.backends[i], resp.StatusCode, strings.TrimSpace(string(b)))
			return false, false
		}
		seen := make([]bool, len(todo))
		sum, err := serve.ReadStream(resp.Body, len(todo), func(n int, rec *sweep.Record) {
			seen[n] = true
			j := todo[n]
			f.cells.put(p.keys[j], *rec)
			frames <- serve.StreamFrame{Type: "record", Index: p.indices[j], Record: rec} // slice-local -> global index
		})
		if err == nil {
			summary = &sum
			return true, false
		}
		if !errors.Is(err, serve.ErrBadStream) {
			err = fmt.Errorf("stream broke: %v", err)
		}
		lastErr = fmt.Errorf("backend %s: %v", f.backends[i], err)
		left := todo[:0:0]
		for n, j := range todo {
			if !seen[n] {
				left = append(left, j)
			}
		}
		todo = left
		if len(todo) == 0 {
			summary = &serve.StreamFrame{Type: "summary"} // every cell arrived
			return true, false
		}
		return false, r.Context().Err() == nil
	})
	if summary == nil {
		if lastErr == nil {
			lastErr = fmt.Errorf("no backend available")
		}
		return serve.StreamFrame{}, fmt.Errorf("backend slice (%d cells undelivered): %v", len(todo), lastErr)
	}
	return *summary, nil
}

// ---- observability ----

func (f *Front) handleReadyz(w http.ResponseWriter, r *http.Request) {
	for i := range f.health {
		if f.isHealthy(i) {
			httpkit.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
	}
	httpkit.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no healthy backends"})
}

// Snapshot returns the operational stats, every count read from the
// registry /metrics serves. Requests is the kernel's count of compute
// requests.
func (f *Front) Snapshot() Stats {
	st := Stats{
		Requests:   httpkit.Requests(f.reg, MetricRequestSeconds),
		Failovers:  f.reg.Count(MetricFailovers),
		Fanouts:    f.reg.Count(MetricFanouts),
		CellHits:   f.reg.Count(MetricCellCache, telemetry.L("result", "hit")),
		CellMisses: f.reg.Count(MetricCellCache, telemetry.L("result", "miss")),
	}
	for i, b := range f.backends {
		h := f.health[i].Load()
		bs := BackendStatus{URL: b, Healthy: h.healthy, Transitions: h.transitions}
		if !h.last.IsZero() {
			bs.LastTransition = h.last.UTC().Format(time.RFC3339Nano)
		}
		st.Backends = append(st.Backends, bs)
	}
	return st
}

// FillManifest records the front's run into a telemetry manifest.
func (f *Front) FillManifest(m *telemetry.Manifest) {
	st := f.Snapshot()
	m.Config["backends"] = strconv.Itoa(len(st.Backends))
	m.Config["requests"] = strconv.FormatInt(st.Requests, 10)
	m.Config["failovers"] = strconv.FormatInt(st.Failovers, 10)
	m.Config["fanouts"] = strconv.FormatInt(st.Fanouts, 10)
	m.Config["cell_hits"] = strconv.FormatInt(st.CellHits, 10)
	m.Config["cell_misses"] = strconv.FormatInt(st.CellMisses, 10)
	for i, b := range st.Backends {
		pfx := "backend" + strconv.Itoa(i) + "_"
		m.Config[pfx+"transitions"] = strconv.FormatInt(b.Transitions, 10)
		if b.LastTransition != "" {
			m.Config[pfx+"last_transition"] = b.LastTransition
		}
	}
}
