package loadgen

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"mlperf/internal/telecli"
)

// Main is the mlperf-loadgen command: it parses args (the command line
// without the program name), runs the load and returns the exit status,
// the SLO verdict (a bad flag exits 2, as flag.Parse does).
// cmd/mlperf-loadgen calls it with os.Args[1:]; the smoke tests
// re-execute their test binary into it.
func Main(args []string) int {
	fs := flag.NewFlagSet("mlperf-loadgen", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "base URL of the serve daemon")
	duration := fs.Duration("duration", 5*time.Second, "how long to generate load")
	rate := fs.Float64("rate", 20, "open-loop arrival rate, requests/second")
	tenants := fs.Int("tenants", 0, "distinct X-Tenant identities to rotate (0 = anonymous)")
	hot := fs.Float64("hot", 0.8, "fraction of requests from the hot (cacheable) query set")
	stream := fs.Float64("stream", 0, "fraction of sweep requests issued as streaming /v1/sweep/stream clients")
	reqTimeout := fs.Duration("timeout", 10*time.Second, "per-request propagated deadline")
	seed := fs.Int64("seed", 1, "arrival and query-mix seed")
	sloP99 := fs.Duration("slo-p99", 0, "SLO: max p99 latency of admitted requests (0 = unchecked)")
	maxShed := fs.Float64("max-shed", 0, "SLO: max shed fraction of sent requests (0 = unchecked)")
	minShed := fs.Float64("min-shed", 0, "SLO: min shed fraction — asserts overload was actually reached (0 = unchecked)")
	max5xx := fs.Int("max-5xx", 0, "SLO: max tolerated 5xx responses")
	sink := telecli.Register("mlperf-loadgen", fs)
	fs.Parse(args)

	return sink.RunContext(nil, func(ctx context.Context) error {
		sink.Config("url", *url)
		sink.Config("rate", fmt.Sprintf("%g", *rate))
		sink.Config("duration", duration.String())
		if sink.Enabled() {
			sink.Manifest.Seed = *seed
		}
		rep, err := RunLoad(ctx, LoadOptions{
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
		fmt.Print(RenderLoadReport(rep))
		if sink.Enabled() {
			sink.Manifest.Cells = rep.Sent
		}
		slo := SLO{
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
	})
}
