package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	// setupRuns is how many times a run builds its starting state; the
	// median is reported as setup_s and the last one is measured.
	setupRuns = 31
	// warmupShare is the share of --seconds the load runs unmeasured
	// before the measured window: connections open, lazy state settles.
	warmupShare = 0.1
)

func bench(o options) (*result, error) {
	p, err := workloads[o.workload]()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	casDir := filepath.Join(dir, "cas")
	if p.memoryOnly {
		casDir = ""
	}

	var tr *tracer
	var clock func() float64
	if o.trace {
		tr = newTracer()
		clock = tr.now
	}
	d := newDriver(o.seed, clock)

	// Every set-up after the first restarts the stack over the cache
	// directory the earlier ones left, if the workload has one, as a
	// daemon restart would.
	var st *stack
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		// Each set-up starts on a collected heap, so garbage the
		// previous one left is not collected inside the next one's time.
		runtime.GC()
		start := time.Now()
		if st, err = setup(casDir, tr, d, p); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	measureFrom := start.Add(time.Duration(warmupShare * float64(window)))
	until := measureFrom.Add(window)
	// The counters' baselines are read when the measured window opens;
	// requests in flight across it count in it.
	opened := make(chan counters, 1)
	go func() {
		time.Sleep(time.Until(measureFrom))
		opened <- st.counters()
	}()
	d.drive(st.url, p, rand.New(rand.NewSource(o.seed)), start, measureFrom, until)
	m := st.counters().sub(<-opened)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	checked, verr := d.answers.verify(ctx)

	res := &result{Attempted: d.attempted, Failed: d.failed, Metrics: map[string]metric{}}
	res.Correct = d.failed == 0 && d.attempted > 0 && verr == nil
	if d.firstErr != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "reqbench: first failure:", d.firstErr)
	}
	if verr != nil {
		fmt.Fprintln(os.Stderr, "reqbench: reference check:", verr)
	}

	lat := d.lat
	sortDurations(lat)
	sortDurations(d.late)
	p50 := ms(quantile(lat, 0.5))
	fmt.Fprintf(os.Stderr, "reqbench: %s seed=%d requests=%d failed=%d p50=%.3fms p95=%.3fms p99=%.3fms late p50=%.3fms p99=%.3fms setup=%.4fs checked=%d answers\n",
		o.workload, o.seed, len(lat), d.failed, p50, ms(quantile(lat, 0.95)), ms(quantile(lat, 0.99)),
		ms(quantile(d.late, 0.5)), ms(quantile(d.late, 0.99)), median(setups), checked)

	if !o.trace {
		res.Metrics["p50_ms"] = metric{p50, "ms"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		return res, nil
	}

	lt := tr.attribute(d.spans)
	n := float64(max(lt.requests, 1))
	fmt.Fprintf(os.Stderr, "reqbench: joined %d of %d measured requests to their spans\n", lt.requests, len(d.spans))
	for name, v := range map[string]float64{
		"client_ms": lt.client, "client_self_ms": lt.clientSelf, "front_self_ms": lt.frontSelf,
		"hop_self_ms": lt.hopSelf, "serve_self_ms": lt.serveSelf, "cell_ms": lt.cell,
	} {
		res.Metrics[name] = metric{v * 1000, "ms"}
	}
	res.Metrics["late_ms"] = metric{ms(mean(d.late)), "ms"}
	res.Metrics["mem_hit_ratio"] = metric{ratio(m.memHits, m.memHits+m.memMisses), "ratio"}
	res.Metrics["simulations_per_req"] = metric{float64(m.simulations) / n, "1/req"}
	res.Metrics["coalesced_per_req"] = metric{float64(m.coalesced) / n, "1/req"}
	res.Metrics["fanouts_per_req"] = metric{float64(m.fanouts) / n, "1/req"}
	return res, nil
}

// setup builds a run's starting state: a stack over the cache
// directory, ready, with the warm requests answered one at a time.
func setup(casDir string, tr *tracer, d *driver, p *plan) (*stack, error) {
	st, err := startStack(casDir, tr)
	if err != nil {
		return nil, err
	}
	if err := ready(d.client, st.url); err != nil {
		st.close()
		return nil, err
	}
	for _, req := range p.warm {
		d.send(st.url, req, time.Now(), false)
	}
	if d.firstErr != nil {
		st.close()
		return nil, d.firstErr
	}
	return st, nil
}

// ready waits for the front to answer its readiness probe.
func ready(c *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("front not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func mean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum / time.Duration(len(d))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
