// Command mlperf-serve runs the benchmark-as-a-service daemon: the
// simulator, sweep engine and cluster scheduler behind an HTTP/JSON
// API with admission control, per-tenant quotas, a bounded cell memo
// that shares each simulation among identical concurrent requests, a
// persistent cache tier whose failures cost speed, not answers, and
// graceful drain.
//
//	mlperf-serve                              serve on :8080
//	mlperf-serve -addr :9000
//	mlperf-serve -cache-dir /var/cache/mlperf
//	mlperf-serve -max-inflight 16 -max-queue 64 -tenant-rate 50
//
// Endpoints:
//
//	GET /v1/simulate?benchmark=res50_tf&system=dss8440&gpus=4   one cell
//	GET /v1/sweep?benchmarks=res50_tf,ncf_py&gpus=1,2,4         a grid
//	GET /v1/whatif                                            the NVLink-at-8 study
//	GET /v1/schedule?policy=srtf&n=12&seed=1                  an online scheduling run
//	GET /healthz /readyz /metrics /v1/stats                   operations
//
// Clients set X-Tenant for quota accounting and Request-Timeout (or
// ?timeout=) in seconds for deadline propagation: the deadline flows
// into the engine's per-cell context machinery, so an expired client
// gets back whatever completed (a partial sweep) and the rest is
// cancelled, not orphaned.
//
// On SIGTERM/SIGINT the daemon drains: /readyz flips not-ready, new
// API requests are refused with 503, in-flight requests get
// -drain-timeout to finish (then their work is cancelled and partial
// results returned), and the final manifest is flushed.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"mlperf/internal/serve"
	"mlperf/internal/telecli"
	"mlperf/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache-dir", "", "persistent cell cache directory (a failing disk reads as misses, counted in /v1/stats cache.DiskErrors)")
	cacheMax := flag.Int64("cache-max-bytes", 0, "cap the cache directory's size in bytes, evicting oldest entries on overflow (0 = unbounded)")
	maxInflight := flag.Int("max-inflight", 8, "max concurrently executing requests")
	maxQueue := flag.Int("max-queue", 0, "max requests waiting for a slot before shedding (0 = 2*max-inflight)")
	tenantRate := flag.Float64("tenant-rate", 100, "per-tenant sustained requests/second (negative = unlimited)")
	drain := flag.Duration("drain-timeout", 15*time.Second, "how long in-flight requests get to finish on SIGTERM")
	flightDump := flag.String("flight-dump", "", "write the flight ring here on panic, SIGQUIT and drain")
	pprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	sink := telecli.Register("mlperf-serve", nil)
	flag.Parse()

	os.Exit(sink.Serve(*addr, *drain, func(reg *telemetry.Registry, ln net.Listener) (telecli.Daemon, error) {
		srv, err := serve.New(serve.Config{
			CacheDir:       *cacheDir,
			CacheMaxBytes:  *cacheMax,
			MaxInFlight:    *maxInflight,
			MaxQueue:       *maxQueue,
			TenantRate:     *tenantRate,
			Telemetry:      reg,
			Logger:         sink.Logger,
			FlightDumpPath: *flightDump,
			EnablePprof:    *pprof,
		})
		if err != nil {
			return nil, err
		}
		sink.Config("addr", *addr)
		sink.Config("cache-dir", *cacheDir)
		sink.Config("cache-max-bytes", strconv.FormatInt(*cacheMax, 10))
		sink.Config("max-inflight", strconv.Itoa(*maxInflight))
		sink.Config("max-cells", strconv.Itoa(serve.MaxRequestCells))
		fmt.Printf("mlperf-serve: listening on %s\n", ln.Addr())
		return srv, nil
	}))
}
