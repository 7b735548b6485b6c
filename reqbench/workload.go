package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	"mlperf/internal/sweep"
)

// plan is one workload: a traffic mix and the state a stack is brought
// to before it is measured.
type plan struct {
	// rate is the mean arrival rate in requests per second. Arrivals
	// form a Poisson process, as serve.RunLoad's do: each request is due
	// at its time whether or not earlier ones have been answered.
	rate float64
	// memoryOnly runs the backends without a cache directory.
	memoryOnly bool
	// warm lists requests each stack answers during set-up, one at a
	// time, before anything is measured.
	warm []request
	// next draws the next request from the run's generator.
	next func(rng *rand.Rand) request
}

// workloads are the traffic mixes. Each draws a run's inputs from the
// seed; the program under test only sees the generated requests. Why
// each was chosen is in BENCHMARK.json and README.md.
var workloads = map[string]func() (*plan, error){
	"serve_mix": serveMix,
	"front_mix": frontMix,
}

// The hot query set and the cold query shape are serve.RunLoad's (see
// nextQuery in internal/serve/loadgen.go): three fixed queries that the
// memory tier and the coalescer answer after their first run, and
// single cells at a unique batch that always simulate.
var hotQueries = []string{
	"/v1/simulate?benchmark=res50_tf&gpus=4",
	"/v1/simulate?benchmark=ncf_py&gpus=2",
	"/v1/sweep?benchmarks=res50_tf,ncf_py&gpus=1,2",
}

// loadMix is serve.RunLoad's query mix: a hot share over hotQueries,
// with a stream share of the hot sweeps sent to /v1/sweep/stream, and
// the rest cold cells.
func loadMix(rate, hot, stream float64) (*plan, error) {
	hotReqs := make([]request, len(hotQueries))
	for i, q := range hotQueries {
		req, err := parseQuery(q)
		if err != nil {
			return nil, err
		}
		hotReqs[i] = req
	}
	streamed, err := parseQuery(strings.Replace(hotQueries[2], "/v1/sweep?", "/v1/sweep/stream?", 1))
	if err != nil {
		return nil, err
	}
	p := &plan{rate: rate, warm: hotReqs}
	if stream > 0 {
		p.warm = append(p.warm, streamed)
	}
	p.next = func(rng *rand.Rand) request {
		if rng.Float64() < hot {
			i := rng.Intn(len(hotReqs))
			if hotReqs[i].kind == kindSweep && rng.Float64() < stream {
				return streamed
			}
			return hotReqs[i]
		}
		req, err := parseQuery(fmt.Sprintf("/v1/simulate?benchmark=res50_tf&gpus=1&batch=%d", 1+rng.Intn(1<<20)))
		if err != nil {
			req.err = err
		}
		return req
	}
	return p, nil
}

// serveMix is the serve-smoke CI job's load: 200 requests per second,
// 80% hot, no streaming clients. Its backends run without a cache
// directory: each of its 40 cold cells a second would create a file, and
// file creation on the host this was tuned on swings from run to run
// (over four seeds, p50 1.57-1.65 ms and p95 3.1-3.8 ms with the disk
// tier, 1.44-1.50 ms and 2.3-2.5 ms without). front_mix keeps the tier.
func serveMix() (*plan, error) {
	p, err := loadMix(200, 0.8, 0)
	if p != nil {
		p.memoryOnly = true
	}
	return p, err
}

// frontMix is the front-smoke CI job's load: 80 requests per second,
// 90% hot, half of the hot sweeps read as NDJSON streams.
func frontMix() (*plan, error) { return loadMix(80, 0.9, 0.5) }

// parseQuery turns a query in the serving API into a request with the
// normalized cells its answer must list, read from the query the way the
// server reads the parameters the mixes send: a simulate names one cell
// (on the default system, dss8440, and one GPU unless given), a sweep
// names a grid of benchmarks and GPU counts.
func parseQuery(uri string) (request, error) {
	path, raw, _ := strings.Cut(uri, "?")
	q, err := url.ParseQuery(raw)
	if err != nil {
		return request{}, err
	}
	var g sweep.Grid
	kind := kindSweep
	switch path {
	case "/v1/simulate":
		kind = kindSimulate
		g = sweep.Grid{Benchmarks: []string{q.Get("benchmark")}, Systems: []string{"dss8440"}, GPUCounts: []int{1}}
		if v := q.Get("gpus"); v != "" {
			if g.GPUCounts[0], err = strconv.Atoi(v); err != nil {
				return request{}, err
			}
		}
		if v := q.Get("batch"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return request{}, err
			}
			g.BatchPerGPU = []int{n}
		}
	case "/v1/sweep/stream":
		kind = kindStream
		fallthrough
	case "/v1/sweep":
		g = sweep.Grid{Benchmarks: splitList(q.Get("benchmarks"))}
		if g.GPUCounts, err = intList(q.Get("gpus")); err != nil {
			return request{}, err
		}
	default:
		return request{}, fmt.Errorf("no cells for %s", path)
	}
	keys, err := g.Cells()
	if err != nil {
		return request{}, fmt.Errorf("%s: %w", uri, err)
	}
	return request{uri: uri, keys: keys, kind: kind}, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func intList(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
