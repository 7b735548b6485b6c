package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

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
	// cache-cold unique cells. Default 0.8.
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
	// Client overrides the HTTP client (tests inject a Transport that
	// short-circuits the network).
	Client *http.Client
}

// LoadReport is the outcome of one load run.
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
	// StreamRecords is the total record frames they received. A stream
	// that died mid-body after a 200 still counts as Streamed — the
	// records it kept are the point of streaming.
	Streamed      int `json:"streamed"`
	StreamRecords int `json:"stream_records"`
	// P50/P95/P99/Max are latency quantiles in seconds over admitted
	// (2xx) responses.
	P50, P95, P99, Max float64
	// SheddingStats from the server, fetched after the run (zero if the
	// fetch failed).
	Server Stats `json:"server"`
	// ServerBefore is the same snapshot taken before the run.
	ServerBefore Stats `json:"server_before"`
}

// SLO is the service-level gate the harness asserts after a run.
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
	// RequireCoalescing asserts the server ran fewer simulations than it
	// admitted requests during the run (simulations < admitted): memo
	// hits and joins on in-flight cells answered the rest.
	RequireCoalescing bool
	// RequireRequestIDs asserts every response carried X-Request-Id.
	RequireRequestIDs bool
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
	if s.RequireRequestIDs && r.MissingRequestID > 0 {
		v = append(v, fmt.Sprintf("%d responses missing X-Request-Id", r.MissingRequestID))
	}
	if s.RequireCoalescing {
		admitted := r.Server.Requests - r.ServerBefore.Requests - (r.Server.Shed - r.ServerBefore.Shed)
		sims := r.Server.Cache.Simulations - r.ServerBefore.Cache.Simulations
		if admitted > 0 && sims >= admitted {
			v = append(v, fmt.Sprintf("no coalescing: %d simulations for %d admitted requests", sims, admitted))
		}
	}
	return v
}

// RunLoad drives the daemon with the configured open-loop stream and
// reports what came back. ctx cancels the run early (the report covers
// what was sent).
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
	if opts.HotFraction <= 0 {
		opts.HotFraction = 0.8
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 10 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: opts.RequestTimeout + time.Second}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	rep := &LoadReport{}
	fetchStats(client, opts.BaseURL, &rep.ServerBefore)

	var (
		mu        sync.Mutex
		latencies []float64
		wg        sync.WaitGroup
	)
	reg := opts.Telemetry
	record := func(res reqResult, dur time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if res.err == nil && !res.hasRequestID {
			rep.MissingRequestID++
		}
		switch {
		case res.err != nil:
			rep.TransportErrors++
		case res.status >= 200 && res.status < 300:
			rep.OK++
			if res.partial {
				rep.Partial++
			}
			if res.stream {
				rep.Streamed++
				rep.StreamRecords += res.records
			}
			latencies = append(latencies, dur.Seconds())
			reg.Histogram("loadgen_request_seconds", telemetry.LatencyBuckets).Observe(dur.Seconds())
		case res.status == http.StatusTooManyRequests:
			rep.Shed++
		case res.status == http.StatusServiceUnavailable:
			rep.Unavailable++
		case res.status >= 500:
			rep.ServerErrors++
		default:
			rep.ClientErrors++
		}
		reg.Counter("loadgen_responses_total", telemetry.Label{Key: "class", Value: classOf(res.status, res.err)}).Inc()
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
	fetchStats(client, opts.BaseURL, &rep.Server)
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

// reqResult classifies one finished request.
type reqResult struct {
	status       int
	partial      bool
	stream       bool // read as a /v1/sweep/stream client
	records      int  // record frames received (stream clients only)
	hasRequestID bool
	err          error
}

// issue sends one request and classifies the response.
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
	switch {
	case resp.StatusCode == http.StatusOK && strings.Contains(url, "/v1/sweep/stream"):
		// Streaming client: read NDJSON frames as they arrive, keeping
		// the record count and the summary's partial flag.
		res.stream = true
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var fr StreamFrame
			if json.Unmarshal([]byte(line), &fr) != nil {
				continue
			}
			switch fr.Type {
			case "record":
				res.records++
			case "summary":
				res.partial = fr.Partial
			}
		}
	case resp.StatusCode == http.StatusOK && strings.Contains(url, "/v1/sweep"):
		// Sniff the partial flag from unary sweep responses.
		var body struct {
			Partial bool `json:"partial"`
		}
		if data, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<22)); rerr == nil {
			_ = json.Unmarshal(data, &body)
			res.partial = body.Partial
		}
	default:
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return res
}

func classOf(status int, err error) string {
	switch {
	case err != nil:
		return "transport"
	case status >= 200 && status < 300:
		return "ok"
	case status == 429:
		return "shed"
	case status >= 500:
		return "5xx"
	default:
		return "4xx"
	}
}

// fetchStats best-effort reads /v1/stats into dst.
func fetchStats(client *http.Client, base string, dst *Stats) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return
	}
	_ = json.Unmarshal(data, dst)
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
	if r.MissingRequestID > 0 {
		fmt.Fprintf(&b, "WARNING: %d responses missing X-Request-Id\n", r.MissingRequestID)
	}
	if r.Streamed > 0 {
		fmt.Fprintf(&b, "streams: %d completed, %d record frames\n", r.Streamed, r.StreamRecords)
	}
	fmt.Fprintf(&b, "latency (admitted): p50 %.3fs  p95 %.3fs  p99 %.3fs  max %.3fs\n", r.P50, r.P95, r.P99, r.Max)
	admitted := r.Server.Requests - r.ServerBefore.Requests - (r.Server.Shed - r.ServerBefore.Shed)
	sims := r.Server.Cache.Simulations - r.ServerBefore.Cache.Simulations
	coal := r.Server.Coalesced - r.ServerBefore.Coalesced
	fmt.Fprintf(&b, "server: %d admitted, %d simulations, %d coalesced joins\n", admitted, sims, coal)
	return b.String()
}
