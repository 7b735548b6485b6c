// Package front is the multi-process serving tier: one HTTP front
// fanning requests across N mlperf-serve backends that share a single
// content-addressed cache directory. Routing is by cell digest over a
// consistent-hash ring, so the same cell always lands on the same
// backend — its memory tier stays hot and concurrent identical cells
// share one simulation inside one process instead of simulating twice —
// while the shared disk CAS makes every backend's results visible to
// all of them.
//
// Grid sweeps are digest-partitioned: the front expands the request to
// its cell list (the exact expansion the backends use), slices it by
// ring owner, POSTs each slice as an explicit {"cells": [...]} sub-grid,
// and merges the sub-results back into the global cell order — byte-
// identical to a single process running the whole grid. Streaming
// sweeps merge the backends' frame streams the same way, re-indexing
// each record frame from its slice-local index to the global one as it
// arrives.
//
// Cell cache: the front keeps a bounded digest → record map (a
// memo.Map, like the backends' cell memo) filled only from validated,
// complete backend answers. A held cell is answered
// without a backend hop — no backend admission, no tenant bucket, even
// with every backend draining or down — and a grid fans out only its
// unheld cells. The digest is the cell's content, so entries never need
// invalidation.
//
// Failover: a health loop polls each backend's /readyz; a draining or
// dead backend drops out of the preferred-routing set, and an in-flight
// attempt that hits a connection error or a 503 (drain) retries on the
// next healthy ring member. 429s do NOT fail over — a shed is a
// backend-local admission decision, and bouncing shed traffic to the
// next backend would defeat load shedding exactly when it matters.
package front

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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
	"mlperf/internal/shard"
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
)

// Config shapes the front tier.
type Config struct {
	// Backends are the mlperf-serve base URLs (e.g. http://127.0.0.1:8081).
	// At least one is required; all should share one -cache-dir for the
	// cross-process cache story to hold.
	Backends []string
	// Replicas is the ring's virtual nodes per backend
	// (0 = shard.DefaultReplicas).
	Replicas int
	// HealthInterval is the /readyz poll cadence (0 = 500ms).
	HealthInterval time.Duration
	// Client performs backend requests (nil = a client with no overall
	// timeout — streams are long-lived — and sane connect behavior).
	Client *http.Client
	// Telemetry is the registry /metrics serves from (nil = private).
	Telemetry *telemetry.Registry
	// Logger emits structured request/failover/health events (nil = no
	// logging).
	Logger *telemetry.Logger
	// Flight is the ring behind /debug/requests and /debug/flight
	// (nil = a private default-size ring).
	Flight *telemetry.FlightRecorder
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
	ring     *shard.Ring
	client   *http.Client
	reg      *telemetry.Registry
	mux      *http.ServeMux

	healthy []atomic.Bool
	// transitions / lastTransition record health flips per backend; the
	// timestamp is unix nanoseconds (0 = never flipped).
	transitions    []atomic.Int64
	lastTransition []atomic.Int64

	log    *telemetry.Logger
	flight *telemetry.FlightRecorder

	stopHealth context.CancelFunc
	healthDone chan struct{}
	// firstProbe closes after the startup health round completes —
	// until then the optimistic all-healthy view is in effect.
	firstProbe chan struct{}

	cells cellCache

	requests   atomic.Int64
	failovers  atomic.Int64
	fanouts    atomic.Int64
	cellHits   atomic.Int64
	cellMisses atomic.Int64
}

// cellCacheCap bounds the cell cache: at most 8192 records, about 5 MB
// with their digests. A constant, not a knob.
const cellCacheCap = 8192

// cellCache holds records the fleet already computed, keyed by cell
// digest. A digest addresses the cell's content under the KeySchema, so
// an entry never goes stale and is never invalidated; only the bound
// drops entries.
type cellCache struct {
	mu sync.Mutex
	m  *memo.Map[string, sweep.Record]
}

func (c *cellCache) get(digest string) (sweep.Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Get(digest)
}

// put stores a record. Callers pass only validated, complete backend
// answers: whatever is put here is served without a backend hop.
func (c *cellCache) put(digest string, r sweep.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m.Put(digest, r)
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
	client := cfg.Client
	if client == nil {
		client = &http.Client{} // no Timeout: streams are long-lived
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	flight := cfg.Flight
	if flight == nil {
		flight = telemetry.NewFlightRecorder(0)
	}
	f := &Front{
		cfg:            cfg,
		backends:       backends,
		ring:           shard.NewRing(len(backends), cfg.Replicas),
		client:         client,
		reg:            reg,
		mux:            http.NewServeMux(),
		healthy:        make([]atomic.Bool, len(backends)),
		transitions:    make([]atomic.Int64, len(backends)),
		lastTransition: make([]atomic.Int64, len(backends)),
		log:            cfg.Logger,
		flight:         flight,
		cells:          cellCache{m: memo.New[string, sweep.Record](cellCacheCap)},
	}
	// Optimistic start: every backend is presumed healthy until a probe
	// says otherwise, so the front serves immediately and per-request
	// failover covers the window before the first poll completes.
	for i := range f.healthy {
		f.healthy[i].Store(true)
	}
	f.routes()
	ctx, cancel := context.WithCancel(context.Background())
	f.stopHealth = cancel
	f.healthDone = make(chan struct{})
	f.firstProbe = make(chan struct{})
	go f.healthLoop(ctx)
	return f, nil
}

// Close stops the health loop. In-flight proxied requests finish on
// their own; the HTTP server owning the handler drains separately.
func (f *Front) Close() {
	f.stopHealth()
	<-f.healthDone
}

// Handler returns the front's HTTP surface, the kernel's request
// middleware outermost. The front is the fleet's ingress, so this is
// where a trace is usually born; propagate carries it to the backends.
func (f *Front) Handler() http.Handler {
	return httpkit.Observe(f.reg, f.log, f.flight, MetricRequestSeconds, f.mux)
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
	// Everything else (whatif, schedule, ...) proxies whole to one
	// backend, routed by its request line for cache affinity.
	f.mux.HandleFunc("/", f.handleProxy)
}

// ---- health ----

func (f *Front) healthLoop(ctx context.Context) {
	defer close(f.healthDone)
	f.probeAll(ctx)
	close(f.firstProbe)
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
			ok := f.probe(ctx, i)
			prev := f.healthy[i].Load()
			f.healthy[i].Store(ok)
			v := 0.0
			if !ok {
				v = 1.0
			}
			f.reg.Gauge(MetricUnhealthy,
				telemetry.Label{Key: "backend", Value: strconv.Itoa(i)}).Set(v)
			if prev != ok {
				// A health flip is timestamped, counted and logged — flap
				// windows must be reconstructable after the fact.
				now := time.Now()
				f.transitions[i].Add(1)
				f.lastTransition[i].Store(now.UnixNano())
				bl := telemetry.Label{Key: "backend", Value: strconv.Itoa(i)}
				f.reg.Counter(MetricTransitions, bl).Inc()
				f.reg.Gauge(MetricLastTransition, bl).Set(float64(now.UnixNano()) / 1e9)
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
		}(i)
	}
	wg.Wait()
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

// order returns backend indices to try for a routing key: the ring
// owner's rotation with healthy backends first. Unhealthy ones stay at
// the tail as a last resort — a stale health view must not turn into a
// refusal when the backend is actually back.
func (f *Front) order(key string) []int {
	n := len(f.backends)
	owner := f.ring.Owner(key)
	rot := make([]int, 0, n)
	var down []int
	for s := 0; s < n; s++ {
		i := (owner + s) % n
		if f.healthy[i].Load() {
			rot = append(rot, i)
		} else {
			down = append(down, i)
		}
	}
	return append(rot, down...)
}

// ---- generic proxy ----

// forwardHeaders are the request headers that carry semantics the
// backends act on.
var forwardHeaders = []string{"X-Tenant", "Request-Timeout", "Accept"}

// tryBackends walks the routing order issuing attempt(i) until one
// succeeds. attempt reports retriable=true for failures worth moving to
// the next backend (connection refused, 503 drain); any other outcome
// ends the walk.
func (f *Front) tryBackends(key string, attempt func(i int) (done bool, retriable bool)) bool {
	for n, i := range f.order(key) {
		if n > 0 {
			f.failovers.Add(1)
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

// handleProxy forwards the whole request to one backend, failing over
// on connection errors and drain 503s.
func (f *Front) handleProxy(w http.ResponseWriter, r *http.Request) {
	f.count("proxy")
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<26))
	if err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := r.Method + " " + r.URL.RequestURI()
	if !f.tryBackends(key, func(i int) (bool, bool) {
		resp, err := f.send(r, i, r.URL.RequestURI(), body)
		if err != nil {
			return false, true
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			io.Copy(io.Discard, resp.Body)
			return false, true
		}
		relay(w, resp)
		return true, false
	}) {
		f.shedNoBackend(w, r)
	}
}

// handleSimulate answers one cell from the cell cache or proxies it,
// routed by its digest so repeated and concurrent misses for the same
// cell hit the same backend's memory tier.
func (f *Front) handleSimulate(w http.ResponseWriter, r *http.Request) {
	f.count("simulate")
	k, err := serve.CellKeyFromRequest(r)
	if err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	digest, err := k.Digest()
	if err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if _, err := serve.RequestTimeout(r, 0); err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if rec, ok := f.cells.get(digest); ok {
		f.countCells(1, 0)
		httpkit.WriteJSON(w, http.StatusOK, serve.SimulateResponse{Record: rec})
		return
	}
	f.countCells(0, 1)
	if !f.tryBackends(digest, func(i int) (bool, bool) {
		resp, err := f.send(r, i, r.URL.RequestURI(), nil)
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
			f.cells.put(digest, sim.Record)
			httpkit.WriteJSON(w, http.StatusOK, sim)
			return true, false
		}
		relay(w, resp)
		return true, false
	}) {
		f.shedNoBackend(w, r)
	}
}

// send issues a backend request mirroring the client's method, path and
// semantic headers. body nil = no body.
func (f *Front) send(r *http.Request, i int, uri string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, f.backends[i]+uri, rd)
	if err != nil {
		return nil, err
	}
	for _, h := range forwardHeaders {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	if body != nil && r.Header.Get("Content-Type") != "" {
		req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
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

func (f *Front) count(endpoint string) {
	f.requests.Add(1)
	f.reg.Counter(MetricRequests, telemetry.Label{Key: "endpoint", Value: endpoint}).Inc()
}

// countCells records one request's cell cache lookups.
func (f *Front) countCells(hits, misses int) {
	f.cellHits.Add(int64(hits))
	f.cellMisses.Add(int64(misses))
	f.reg.Counter(MetricCellCache, telemetry.L("result", "hit")).Add(int64(hits))
	f.reg.Counter(MetricCellCache, telemetry.L("result", "miss")).Add(int64(misses))
}

// ---- sweep fan-out ----

// partition is one ring owner's slice of a grid, remembering each
// cell's global index so sub-results merge back into the exact order a
// single process would have returned.
type partition struct {
	indices []int
	keys    []sweep.CellKey
	digests []string
}

// gridPlan is a grid split for fan-out: records is the whole grid in
// global order with the held cells filled in, and parts slices the rest
// by ring owner.
type gridPlan struct {
	records []sweep.Record
	held    []int // global indices answered from the cell cache
	parts   []partition
}

// planGrid resolves a sweep request's cells, answers the held ones from
// the cell cache and slices the rest by ring owner, hashing each cell
// once for lookup, routing and fill. It writes the 400 itself for a
// malformed grid or deadline — held cells or not, as a backend would.
func (f *Front) planGrid(w http.ResponseWriter, r *http.Request) (*gridPlan, bool) {
	keys, err := serve.SweepKeysFromRequest(r)
	if err == nil {
		_, err = serve.RequestTimeout(r, 0)
	}
	if err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	g := &gridPlan{records: make([]sweep.Record, len(keys))}
	byOwner := make([]*partition, len(f.backends))
	for i, k := range keys {
		d, err := k.Digest()
		if err != nil {
			httpkit.WriteError(w, http.StatusBadRequest, err.Error())
			return nil, false
		}
		if rec, ok := f.cells.get(d); ok {
			g.records[i] = rec
			g.held = append(g.held, i)
			continue
		}
		o := f.ring.Owner(d)
		p := byOwner[o]
		if p == nil {
			p = &partition{}
			byOwner[o] = p
		}
		p.indices = append(p.indices, i)
		p.keys = append(p.keys, k)
		p.digests = append(p.digests, d)
	}
	f.countCells(len(g.held), len(keys)-len(g.held))
	for _, p := range byOwner {
		if p != nil {
			g.parts = append(g.parts, *p)
		}
	}
	return g, true
}

// subSweep runs one partition's unary sub-sweep with failover, keyed by
// the partition's first cell digest (any stable key rotates from the
// owner; the first cell's owner IS the slice's owner, so attempt 0 goes
// there). A complete answer fills the cell cache.
func (f *Front) subSweep(r *http.Request, p partition) (*serve.SweepResponse, error) {
	body, err := serve.CellsBody(p.keys)
	if err != nil {
		return nil, err
	}
	var got *serve.SweepResponse
	var lastErr error
	f.tryBackends(p.digests[0], func(i int) (bool, bool) {
		f.fanouts.Add(1)
		f.reg.Counter(MetricFanouts).Inc()
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
			f.backends[i]+"/v1/sweep"+timeoutQuery(r), bytes.NewReader(body))
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
		finish := f.propagate(r.Context(), req, i)
		resp, err := f.client.Do(req)
		finish()
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
		// A body that does not decode or does not carry one record per
		// cell is a broken backend, like a malformed stream line: nothing
		// reached the client yet, so fail over.
		var sub serve.SweepResponse
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			lastErr = fmt.Errorf("backend %s: bad body: %v", f.backends[i], err)
			return false, true
		}
		if len(sub.Records) != len(p.keys) {
			lastErr = fmt.Errorf("backend %s: %d records for %d cells", f.backends[i], len(sub.Records), len(p.keys))
			return false, true
		}
		got = &sub
		return true, false
	})
	if got == nil {
		if lastErr == nil {
			lastErr = fmt.Errorf("no backend available")
		}
		return nil, lastErr
	}
	if !got.Partial && got.Completed == len(p.keys) {
		for j, d := range p.digests {
			f.cells.put(d, got.Records[j])
		}
	}
	return got, nil
}

// timeoutQuery propagates an explicit ?timeout= to sub-requests (the
// Request-Timeout header travels via forwardHeaders).
func timeoutQuery(r *http.Request) string {
	if v := r.URL.Query().Get("timeout"); v != "" {
		return "?timeout=" + v
	}
	return ""
}

// handleSweep fans a grid's unheld cells out across the backends and
// merges the sub-responses around the held ones, in global cell order.
func (f *Front) handleSweep(w http.ResponseWriter, r *http.Request) {
	f.count("sweep")
	g, ok := f.planGrid(w, r)
	if !ok {
		return
	}
	merged := serve.SweepResponse{
		Records:   g.records,
		Cells:     len(g.records),
		Completed: len(g.held),
	}
	type subResult struct {
		part partition
		resp *serve.SweepResponse
		err  error
	}
	results := make([]subResult, len(g.parts))
	var wg sync.WaitGroup
	for pi, p := range g.parts {
		wg.Add(1)
		go func(pi int, p partition) {
			defer wg.Done()
			resp, err := f.subSweep(r, p)
			results[pi] = subResult{part: p, resp: resp, err: err}
		}(pi, p)
	}
	wg.Wait()

	for _, res := range results {
		if res.err != nil {
			// The slice's cells stay zero-valued — the same shape a
			// single-process partial run gives failed cells.
			merged.Partial = true
			merged.Failures = append(merged.Failures,
				fmt.Sprintf("backend slice (%d cells): %v", len(res.part.keys), res.err))
			continue
		}
		for j, gi := range res.part.indices {
			merged.Records[gi] = res.resp.Records[j]
		}
		merged.Completed += res.resp.Completed
		merged.Partial = merged.Partial || res.resp.Partial
		merged.Canceled = merged.Canceled || res.resp.Canceled
		merged.Failures = append(merged.Failures, res.resp.Failures...)
	}
	httpkit.WriteJSON(w, http.StatusOK, merged)
}

// ---- streaming fan-out ----

// handleSweepStream streams a grid: held cells' frames first, then the
// unheld cells' backend streams interleaved onto one client stream,
// each record frame re-indexed from its slice-local index to the global
// one. The terminal summary counts both; per-backend cache detail stays
// on the backends' own /v1/stats.
func (f *Front) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	f.count("sweep_stream")
	g, ok := f.planGrid(w, r)
	if !ok {
		return
	}

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("X-Accel-Buffering", "no")
	flusher, _ := w.(http.Flusher)

	// Frames funnel through one channel (buffered to the grid plus one
	// summary per partition) so backend readers never block on the
	// client writer. Held cells are queued before any reader starts.
	frames := make(chan serve.StreamFrame, len(g.records)+len(g.parts))
	for _, gi := range g.held {
		frames <- serve.StreamFrame{Type: "record", Index: gi, Record: &g.records[gi]}
	}
	type subSummary struct {
		frame serve.StreamFrame
		err   error
		cells int
	}
	summaries := make([]subSummary, len(g.parts))
	var wg sync.WaitGroup
	for pi, p := range g.parts {
		wg.Add(1)
		go func(pi int, p partition) {
			defer wg.Done()
			sum, err := f.subStream(r, p, frames)
			summaries[pi] = subSummary{frame: sum, err: err, cells: len(p.keys)}
		}(pi, p)
	}
	go func() { wg.Wait(); close(frames) }()

	emit := func(fr *serve.StreamFrame) bool {
		data, err := json.Marshal(fr)
		if err != nil {
			return false
		}
		if sse {
			_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", fr.Type, data)
		} else {
			_, err = w.Write(append(data, '\n'))
		}
		if err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	clientGone := false
	for fr := range frames {
		if clientGone {
			continue // keep draining so sub-readers finish
		}
		if !emit(&fr) {
			clientGone = true
		}
	}
	if clientGone {
		return
	}

	sum := serve.StreamFrame{Type: "summary", Cells: len(g.records), Completed: len(g.held)}
	for _, s := range summaries {
		if s.err != nil {
			sum.Partial = true
			sum.Failures = append(sum.Failures,
				fmt.Sprintf("backend slice (%d cells): %v", s.cells, s.err))
			continue
		}
		sum.Completed += s.frame.Completed
		sum.Partial = sum.Partial || s.frame.Partial
		sum.Canceled = sum.Canceled || s.frame.Canceled
		if sum.Reason == "" {
			sum.Reason = s.frame.Reason
		}
		sum.Failures = append(sum.Failures, s.frame.Failures...)
	}
	emit(&sum)
}

// subStream runs one partition's backend stream, forwarding re-indexed
// record frames (each also filling the cell cache) and returning the
// backend's summary frame. A frame that does not parse, or whose index
// is out of the slice or repeated, breaks the slice. Failover only
// applies before the first frame is forwarded: once frames flowed, a
// broken backend stream is a partial slice, not a retry (the cells
// already forwarded must not stream twice).
func (f *Front) subStream(r *http.Request, p partition, frames chan<- serve.StreamFrame) (serve.StreamFrame, error) {
	body, err := serve.CellsBody(p.keys)
	if err != nil {
		return serve.StreamFrame{}, err
	}
	var summary *serve.StreamFrame
	var lastErr error
	f.tryBackends(p.digests[0], func(i int) (bool, bool) {
		f.fanouts.Add(1)
		f.reg.Counter(MetricFanouts).Inc()
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
			f.backends[i]+"/v1/sweep/stream"+timeoutQuery(r), bytes.NewReader(body))
		if err != nil {
			lastErr = err
			return false, false
		}
		req.Header.Set("Content-Type", "application/json")
		for _, h := range []string{"X-Tenant", "Request-Timeout"} {
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
		forwarded := false
		seen := make([]bool, len(p.keys))
		broken := func(format string, args ...any) (bool, bool) {
			lastErr = fmt.Errorf("backend %s: "+format, append([]any{f.backends[i]}, args...)...)
			return forwarded, !forwarded
		}
		var sum *serve.StreamFrame
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var fr serve.StreamFrame
			if err := json.Unmarshal(line, &fr); err != nil {
				return broken("bad frame: %v", err)
			}
			switch fr.Type {
			case "record":
				if fr.Index < 0 || fr.Index >= len(seen) || seen[fr.Index] || fr.Record == nil {
					return broken("bad record frame: index %d of %d cells", fr.Index, len(seen))
				}
				seen[fr.Index] = true
				f.cells.put(p.digests[fr.Index], *fr.Record)
				fr.Index = p.indices[fr.Index] // slice-local -> global
				frames <- fr
				forwarded = true
			case "summary":
				sum = &fr
			}
		}
		if err := sc.Err(); err != nil {
			return broken("stream broke: %v", err)
		}
		if sum == nil {
			return broken("stream ended without summary")
		}
		summary = sum
		return true, false
	})
	if summary == nil {
		if lastErr == nil {
			lastErr = fmt.Errorf("no backend available")
		}
		return serve.StreamFrame{}, lastErr
	}
	return *summary, nil
}

// ---- observability ----

func (f *Front) handleReadyz(w http.ResponseWriter, r *http.Request) {
	for i := range f.healthy {
		if f.healthy[i].Load() {
			httpkit.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
	}
	httpkit.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no healthy backends"})
}

// Snapshot returns the operational stats.
func (f *Front) Snapshot() Stats {
	st := Stats{
		Requests:   f.requests.Load(),
		Failovers:  f.failovers.Load(),
		Fanouts:    f.fanouts.Load(),
		CellHits:   f.cellHits.Load(),
		CellMisses: f.cellMisses.Load(),
	}
	for i, b := range f.backends {
		bs := BackendStatus{
			URL:         b,
			Healthy:     f.healthy[i].Load(),
			Transitions: f.transitions[i].Load(),
		}
		if ns := f.lastTransition[i].Load(); ns != 0 {
			bs.LastTransition = time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
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
