// Package loadgen is the synthetic-client harness: an open-loop
// generator that drives a serve daemon (or a front over several)
// through its public HTTP surface and checks every admitted answer, not
// just its status. Bodies decode with serve's wire types and streams
// read through serve.ReadStream; the cells a query asks for come from
// the daemons' own parsers; and after the load window each delivered
// record is compared with a fresh engine's for the same cell.
package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"mlperf/internal/serve"
	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
)

// LoadOptions shapes a synthetic-client run against a serve daemon.
// The generator is open-loop: arrivals follow an exponential
// interarrival clock regardless of how the server is coping, which is
// what makes overload real — a closed loop would politely slow down
// exactly when we want to measure shedding.
type LoadOptions struct {
	// BaseURL is the daemon ("http://127.0.0.1:8080").
	BaseURL string
	// Duration is how long to generate load.
	Duration time.Duration
	// Rate is the arrival rate in requests/second.
	Rate float64
	// Tenants is how many distinct X-Tenant identities rotate through
	// the stream (0 = anonymous only).
	Tenants int
	// HotFraction is the share of requests drawn from a small fixed set
	// of queries (memo hits, or joins while in flight); the rest are
	// cache-cold unique cells (0 = every request a unique cell).
	HotFraction float64
	// StreamFraction is the share of sweep requests issued against
	// /v1/sweep/stream as NDJSON-reading clients instead of unary
	// /v1/sweep (0 = unary only). Streaming clients hold their
	// connection until the terminal summary frame, which is what makes
	// thousands of concurrent open streams a distinct load shape.
	StreamFraction float64
	// RequestTimeout is each request's propagated deadline (default 10s).
	RequestTimeout time.Duration
	// Seed drives arrivals and query choice.
	Seed int64
	// Telemetry, when non-nil, receives client-side latency histograms
	// (loadgen_request_seconds) and outcome counters.
	Telemetry *telemetry.Registry
}

// LoadReport is the outcome of one load run: what the client saw. The
// target's own counts (simulations, memo hits) are in its drained
// manifest, whichever tier it is.
type LoadReport struct {
	// Sent is the number of requests issued.
	Sent int `json:"sent"`
	// OK counts 2xx responses; Partial of those had the partial flag.
	OK      int `json:"ok"`
	Partial int `json:"partial"`
	// Shed counts 429s — deliberate load shedding.
	Shed int `json:"shed"`
	// Unavailable counts 503s (drain window).
	Unavailable int `json:"unavailable"`
	// ClientErrors counts other 4xx; ServerErrors counts 5xx — the
	// never-under-overload class.
	ClientErrors int `json:"client_errors"`
	ServerErrors int `json:"server_errors"`
	// TransportErrors counts requests that failed before an HTTP status
	// (connection refused, client timeout).
	TransportErrors int `json:"transport_errors"`
	// MissingRequestID counts responses (any status — sheds included)
	// that arrived without an X-Request-Id header. The serving stack
	// promises identity on every response; this is the client-side audit
	// of that promise.
	MissingRequestID int `json:"missing_request_id"`
	// Streamed counts 2xx responses read as /v1/sweep/stream clients;
	// StreamRecords is the total record frames they received.
	Streamed      int `json:"streamed"`
	StreamRecords int `json:"stream_records"`
	// Checked counts the 2xx answers checked after the load window, and
	// Wrong those that are a broken stream, a body that does not decode
	// or add up, or a record differing from a fresh engine's (a partial
	// answer's failed cells are zero records, not wrong). CheckSeconds
	// is the check's wall time.
	Checked      int     `json:"checked"`
	Wrong        int     `json:"wrong"`
	CheckSeconds float64 `json:"check_seconds"`
	// P50/P95/P99/Max are latency quantiles in seconds over admitted
	// (2xx) responses.
	P50, P95, P99, Max float64
}

// SLO is the service-level gate the harness asserts after a run. A
// wrong answer, a response without X-Request-Id, a transport error and
// a run that checked no answer always violate it.
type SLO struct {
	// MaxP99 bounds p99 latency of admitted requests (0 = no bound).
	MaxP99 time.Duration
	// MaxShedRate bounds Shed/Sent (0..1; <0 = no bound). Overload sheds
	// — but not everything.
	MaxShedRate float64
	// MinShedRate asserts the run actually drove the server into
	// shedding (0 = no bound) — a vacuous overload test is a bug.
	MinShedRate float64
	// MaxServerErrors bounds 5xx count (usually 0: overload must shed,
	// never break).
	MaxServerErrors int
}

// Violations checks the report against the gate, returning one line per
// violated bound (empty = pass).
func (s SLO) Violations(r *LoadReport) []string {
	var v []string
	if s.MaxP99 > 0 && r.P99 > s.MaxP99.Seconds() {
		v = append(v, fmt.Sprintf("p99 %.3fs exceeds SLO %.3fs", r.P99, s.MaxP99.Seconds()))
	}
	if r.Sent > 0 {
		rate := float64(r.Shed) / float64(r.Sent)
		if s.MaxShedRate > 0 && rate > s.MaxShedRate {
			v = append(v, fmt.Sprintf("shed rate %.2f exceeds bound %.2f", rate, s.MaxShedRate))
		}
		if s.MinShedRate > 0 && rate < s.MinShedRate {
			v = append(v, fmt.Sprintf("shed rate %.2f below required %.2f (overload not reached)", rate, s.MinShedRate))
		}
	}
	if r.ServerErrors > s.MaxServerErrors {
		v = append(v, fmt.Sprintf("%d server errors exceed bound %d", r.ServerErrors, s.MaxServerErrors))
	}
	if r.Wrong > 0 {
		v = append(v, fmt.Sprintf("%d of %d answers wrong", r.Wrong, r.Checked))
	}
	if r.MissingRequestID > 0 {
		v = append(v, fmt.Sprintf("%d responses missing X-Request-Id", r.MissingRequestID))
	}
	if r.TransportErrors > 0 {
		v = append(v, fmt.Sprintf("%d of %d requests got no HTTP response", r.TransportErrors, r.Sent))
	}
	if r.Checked == 0 {
		v = append(v, "no answer checked: the run proved nothing about the target")
	}
	return v
}

// RunLoad drives the daemon with the configured open-loop stream, then
// checks every answer, and reports what came back. ctx cancels the run
// early (the report covers what was sent).
func RunLoad(ctx context.Context, opts LoadOptions) (*LoadReport, error) {
	if opts.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	opts.BaseURL = strings.TrimRight(opts.BaseURL, "/")
	if opts.Rate <= 0 {
		opts.Rate = 20
	}
	if opts.Duration <= 0 {
		opts.Duration = 5 * time.Second
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 10 * time.Second
	}
	client := &http.Client{Timeout: opts.RequestTimeout + time.Second}
	rng := rand.New(rand.NewSource(opts.Seed))
	rep := &LoadReport{}

	var (
		mu        sync.Mutex
		latencies []float64
		answers   []reqResult
		wg        sync.WaitGroup
	)
	reg := opts.Telemetry
	record := func(res reqResult, dur time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if res.err == nil && !res.hasRequestID {
			rep.MissingRequestID++
		}
		class := "4xx"
		switch {
		case res.err != nil:
			class = "transport"
			rep.TransportErrors++
		case res.status >= 200 && res.status < 300:
			class = "ok"
			rep.OK++
			if res.partial {
				rep.Partial++
			}
			if res.stream {
				rep.Streamed++
				rep.StreamRecords += res.records
			}
			answers = append(answers, res)
			latencies = append(latencies, dur.Seconds())
			reg.Histogram("loadgen_request_seconds", telemetry.LatencyBuckets).Observe(dur.Seconds())
		case res.status == http.StatusTooManyRequests:
			class = "shed"
			rep.Shed++
		case res.status == http.StatusServiceUnavailable:
			class = "5xx"
			rep.Unavailable++
		case res.status >= 500:
			class = "5xx"
			rep.ServerErrors++
		default:
			rep.ClientErrors++
		}
		reg.Counter("loadgen_responses_total", telemetry.Label{Key: "class", Value: class}).Inc()
	}

	deadline := time.Now().Add(opts.Duration)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		// Exponential interarrival: open-loop Poisson process.
		gap := time.Duration(rng.ExpFloat64() / opts.Rate * float64(time.Second))
		select {
		case <-ctx.Done():
		case <-time.After(gap):
		}
		if ctx.Err() != nil || !time.Now().Before(deadline) {
			break
		}
		url, tenant := nextQuery(rng, opts)
		rep.Sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			record(issue(ctx, client, url, tenant, opts.RequestTimeout), time.Since(start))
		}()
	}
	wg.Wait()

	sort.Float64s(latencies)
	rep.P50 = quantile(latencies, 0.50)
	rep.P95 = quantile(latencies, 0.95)
	rep.P99 = quantile(latencies, 0.99)
	if n := len(latencies); n > 0 {
		rep.Max = latencies[n-1]
	}
	start := time.Now()
	rep.Checked, rep.Wrong = len(answers), check(answers)
	rep.CheckSeconds = time.Since(start).Seconds()
	return rep, nil
}

// nextQuery picks the next request: hot queries repeat a small fixed
// set (exercising the memo and its in-flight joins), cold ones explore
// unique batch sizes (forcing fresh simulations).
func nextQuery(rng *rand.Rand, opts LoadOptions) (url, tenant string) {
	if opts.Tenants > 0 {
		tenant = fmt.Sprintf("tenant-%d", rng.Intn(opts.Tenants))
	}
	hot := rng.Float64() < opts.HotFraction
	if hot {
		hotSet := []string{
			"/v1/simulate?benchmark=res50_tf&gpus=4",
			"/v1/simulate?benchmark=ncf_py&gpus=2",
			"/v1/sweep?benchmarks=res50_tf,ncf_py&gpus=1,2",
		}
		u := hotSet[rng.Intn(len(hotSet))]
		// Some sweep clients read the streaming endpoint instead: they
		// hold the connection open until the summary frame, a different
		// load shape from one bulk body.
		if strings.HasPrefix(u, "/v1/sweep?") && rng.Float64() < opts.StreamFraction {
			u = "/v1/sweep/stream?" + strings.TrimPrefix(u, "/v1/sweep?")
		}
		return opts.BaseURL + u, tenant
	}
	// Cold: a unique batch size makes a never-before-seen cell.
	return fmt.Sprintf("%s/v1/simulate?benchmark=res50_tf&gpus=1&batch=%d",
		opts.BaseURL, 1+rng.Intn(1<<20)), tenant
}

// reqResult classifies one finished request. For a 2xx, recs[i]
// answers keys[i] and is zero where the answer delivered no record, and
// bad marks a body that broke the protocol or did not decode.
type reqResult struct {
	status       int
	partial      bool
	stream       bool // read as a /v1/sweep/stream client
	records      int  // record frames received (stream clients only)
	keys         []sweep.CellKey
	recs         []sweep.Record
	bad          bool
	hasRequestID bool
	err          error
}

// issue sends one request and classifies the response, reading a 2xx
// body as the answer it must be.
func issue(ctx context.Context, client *http.Client, url, tenant string, timeout time.Duration) reqResult {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return reqResult{err: err}
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	req.Header.Set("Request-Timeout", fmt.Sprintf("%g", timeout.Seconds()))
	resp, err := client.Do(req)
	if err != nil {
		return reqResult{err: err}
	}
	defer resp.Body.Close()
	res := reqResult{
		status:       resp.StatusCode,
		hasRequestID: resp.Header.Get(telemetry.RequestIDHeader) != "",
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		_, _ = io.Copy(io.Discard, resp.Body)
	} else if err := res.read(req, resp.Body); err != nil {
		res.bad = true
	}
	return res
}

// read decodes a 2xx body for req into res with the wire types,
// the cells asked for worked out by the daemons' own parsers. An error
// is a body that is not that answer.
func (res *reqResult) read(req *http.Request, body io.Reader) error {
	var sum serve.StreamFrame
	if req.URL.Path == "/v1/simulate" {
		k, err := serve.CellKeyFromRequest(req)
		var sr serve.SimulateResponse
		if err == nil {
			err = decodeStrict(body, &sr)
		}
		if err != nil {
			return err
		}
		res.keys, res.recs = []sweep.CellKey{k}, []sweep.Record{sr.Record}
		sum = serve.StreamFrame{Cells: 1, Completed: 1}
	} else {
		keys, _, err := serve.SweepKeysFromRequest(req)
		if err != nil {
			return err
		}
		res.keys, res.recs = keys, make([]sweep.Record, len(keys))
		if res.stream = req.URL.Path == "/v1/sweep/stream"; res.stream {
			sum, err = serve.ReadStream(body, len(keys), func(i int, rec *sweep.Record) {
				res.recs[i] = *rec
				res.records++
			})
		} else {
			var sr serve.SweepResponse
			if err = decodeStrict(body, &sr); err == nil && len(sr.Records) != len(keys) {
				err = fmt.Errorf("%d records for %d cells", len(sr.Records), len(keys))
			}
			copy(res.recs, sr.Records)
			sum = serve.StreamFrame{Cells: sr.Cells, Completed: sr.Completed, Partial: sr.Partial}
		}
		if err != nil {
			return err
		}
	}
	res.partial = sum.Partial
	delivered := 0
	for _, rec := range res.recs {
		if rec != (sweep.Record{}) {
			delivered++
		}
	}
	if sum.Cells != len(res.keys) || sum.Completed != delivered || !sum.Partial && delivered != len(res.keys) {
		return fmt.Errorf("%d of %d cells delivered, answer says %d of %d (partial %v)",
			delivered, len(res.keys), sum.Completed, sum.Cells, sum.Partial)
	}
	return nil
}

// decodeStrict decodes one JSON value into v: no unknown field, nothing
// after it.
func decodeStrict(body io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(body, 1<<22))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if _, end := dec.Token(); err == nil && end != io.EOF {
		err = errors.New("data after the answer")
	}
	return err
}

// check counts the wrong answers: bad ones, and those with a record
// that is not the one a fresh engine (no registry, no store) computes
// for its cell. The engine simulates each distinct cell once; a cell it
// cannot simulate makes any record delivered for it wrong.
func check(answers []reqResult) (wrong int) {
	ref := sweep.NewEngine(0)
	for _, a := range answers {
		ok := !a.bad
		for i := 0; ok && i < len(a.recs); i++ {
			if a.recs[i] != (sweep.Record{}) {
				want, err := ref.Cell(a.keys[i])
				ok = err == nil && a.recs[i] == want
			}
		}
		if !ok {
			wrong++
		}
	}
	return wrong
}

// quantile reads the q-quantile from sorted samples (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// RenderLoadReport renders the report for terminals.
func RenderLoadReport(r *LoadReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sent %d: %d ok (%d partial), %d shed, %d unavailable, %d client-err, %d server-err, %d transport-err\n",
		r.Sent, r.OK, r.Partial, r.Shed, r.Unavailable, r.ClientErrors, r.ServerErrors, r.TransportErrors)
	if r.Streamed > 0 {
		fmt.Fprintf(&b, "streams: %d completed, %d record frames\n", r.Streamed, r.StreamRecords)
	}
	fmt.Fprintf(&b, "answers: %d checked, %d wrong (check took %.3fs)\n", r.Checked, r.Wrong, r.CheckSeconds)
	fmt.Fprintf(&b, "latency (admitted): p50 %.3fs  p95 %.3fs  p99 %.3fs  max %.3fs\n", r.P50, r.P95, r.P99, r.Max)
	return b.String()
}
