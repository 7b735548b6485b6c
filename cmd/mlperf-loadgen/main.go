// Command mlperf-loadgen drives a running mlperf-serve daemon (or an
// mlperf-front over several) with a synthetic open-loop client stream
// and asserts service-level objectives on what came back. Open-loop
// means arrivals follow an exponential clock regardless of server
// backpressure — the only way to genuinely overload a server and
// observe its shedding behaviour.
//
//	mlperf-loadgen -url http://127.0.0.1:8080 -rate 50 -duration 10s
//	mlperf-loadgen -url ... -rate 200 -tenants 4 -hot 0.9 \
//	    -slo-p99 2s -min-shed 0.01 -max-5xx 0
//
// The report and the gate cover only what the client saw: statuses,
// request IDs, answers, stream frames and latency. Every admitted
// answer is checked (internal/loadgen): it must decode as the daemon's
// wire type, and after the load window each delivered record must
// equal a fresh in-process engine's; the report's "answers: N checked,
// M wrong" line counts them. How much work the target shared
// (simulations against requests) is read from the target's own drained
// manifest (-manifest on mlperf-serve or mlperf-front).
//
// The exit status is the SLO verdict: 0 when every asserted bound
// holds, 1 when any is violated — which is what makes it a CI gate. A
// wrong answer and a response without X-Request-Id always violate it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"mlperf/internal/loadgen"
	"mlperf/internal/telecli"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "base URL of the serve daemon")
	duration := flag.Duration("duration", 5*time.Second, "how long to generate load")
	rate := flag.Float64("rate", 20, "open-loop arrival rate, requests/second")
	tenants := flag.Int("tenants", 0, "distinct X-Tenant identities to rotate (0 = anonymous)")
	hot := flag.Float64("hot", 0.8, "fraction of requests from the hot (cacheable) query set")
	stream := flag.Float64("stream", 0, "fraction of sweep requests issued as streaming /v1/sweep/stream clients")
	reqTimeout := flag.Duration("timeout", 10*time.Second, "per-request propagated deadline")
	seed := flag.Int64("seed", 1, "arrival and query-mix seed")
	sloP99 := flag.Duration("slo-p99", 0, "SLO: max p99 latency of admitted requests (0 = unchecked)")
	maxShed := flag.Float64("max-shed", 0, "SLO: max shed fraction of sent requests (0 = unchecked)")
	minShed := flag.Float64("min-shed", 0, "SLO: min shed fraction — asserts overload was actually reached (0 = unchecked)")
	max5xx := flag.Int("max-5xx", 0, "SLO: max tolerated 5xx responses")
	sink := telecli.Register("mlperf-loadgen", nil)
	flag.Parse()

	os.Exit(sink.RunContext(nil, func(ctx context.Context) error {
		sink.Config("url", *url)
		sink.Config("rate", fmt.Sprintf("%g", *rate))
		sink.Config("duration", duration.String())
		if sink.Enabled() {
			sink.Manifest.Seed = *seed
		}
		rep, err := loadgen.RunLoad(ctx, loadgen.LoadOptions{
			BaseURL:        *url,
			Duration:       *duration,
			Rate:           *rate,
			Tenants:        *tenants,
			HotFraction:    *hot,
			StreamFraction: *stream,
			RequestTimeout: *reqTimeout,
			Seed:           *seed,
			Telemetry:      sink.Reg,
		})
		if err != nil {
			return err
		}
		fmt.Print(loadgen.RenderLoadReport(rep))
		if sink.Enabled() {
			sink.Manifest.Cells = rep.Sent
		}
		slo := loadgen.SLO{
			MaxP99:          *sloP99,
			MaxShedRate:     *maxShed,
			MinShedRate:     *minShed,
			MaxServerErrors: *max5xx,
		}
		violations := slo.Violations(rep)
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "mlperf-loadgen: SLO violation:", v)
		}
		if len(violations) > 0 {
			return errors.New("SLO: fail")
		}
		fmt.Println("SLO: pass")
		return nil
	}))
}
