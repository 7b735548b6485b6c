package serve

import (
	"flag"
	"fmt"
	"net"
	"strconv"

	"mlperf/internal/telecli"
	"mlperf/internal/telemetry"
)

// Main is the mlperf-serve command: it parses args (the command line
// without the program name), serves until SIGTERM/SIGINT drains it, and
// returns the exit status (a bad flag exits 2, as flag.Parse does).
// cmd/mlperf-serve calls it with os.Args[1:]; the smoke tests
// re-execute their test binary into it.
func Main(args []string) int {
	fs := flag.NewFlagSet("mlperf-serve", flag.ExitOnError)
	cacheDir := fs.String("cache-dir", "", "persistent cell cache directory (a failing disk reads as misses, counted in /v1/stats cache.DiskErrors)")
	cacheMax := fs.Int64("cache-max-bytes", 0, "cap the cache directory's size in bytes, evicting oldest entries on overflow (0 = unbounded)")
	maxInflight := fs.Int("max-inflight", 8, "max concurrently executing requests")
	maxQueue := fs.Int("max-queue", 0, "max requests waiting for a slot before shedding (0 = 2*max-inflight)")
	tenantRate := fs.Float64("tenant-rate", 100, "per-tenant sustained requests/second (negative = unlimited)")
	pprof := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	sink := telecli.RegisterDaemon("mlperf-serve", fs)
	fs.Parse(args)

	return sink.Serve(func(reg *telemetry.Registry, ln net.Listener) (telecli.Daemon, error) {
		srv, err := New(Config{
			CacheDir:      *cacheDir,
			CacheMaxBytes: *cacheMax,
			MaxInFlight:   *maxInflight,
			MaxQueue:      *maxQueue,
			TenantRate:    *tenantRate,
			Telemetry:     reg,
			Logger:        sink.Logger,
			EnablePprof:   *pprof,
		})
		if err != nil {
			return nil, telecli.Usage(err) // the cache flags, checked as mlperf-sweep checks them
		}
		sink.Config("cache-dir", *cacheDir)
		sink.Config("cache-max-bytes", strconv.FormatInt(*cacheMax, 10))
		sink.Config("max-inflight", strconv.Itoa(*maxInflight))
		sink.Config("max-cells", strconv.Itoa(MaxRequestCells))
		fmt.Printf("mlperf-serve: listening on %s\n", ln.Addr())
		return srv, nil
	})
}
