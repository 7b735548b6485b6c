package front

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"strings"
	"time"

	"mlperf/internal/sweep"
	"mlperf/internal/telecli"
	"mlperf/internal/telemetry"
)

// Main is the mlperf-front command: it parses args (the command line
// without the program name), serves until SIGTERM/SIGINT drains it, and
// returns the exit status (a bad flag exits 2, as flag.Parse does).
// cmd/mlperf-front calls it with os.Args[1:]; the smoke tests
// re-execute their test binary into it.
func Main(args []string) int {
	fs := flag.NewFlagSet("mlperf-front", flag.ExitOnError)
	backends := fs.String("backends", "", "comma-separated mlperf-serve base URLs (required)")
	healthInterval := fs.Duration("health-interval", 500*time.Millisecond, "backend /readyz poll cadence")
	sink := telecli.RegisterDaemon("mlperf-front", fs)
	fs.Parse(args)

	return sink.Serve(func(reg *telemetry.Registry, ln net.Listener) (telecli.Daemon, error) {
		urls := sweep.SplitList(*backends)
		if len(urls) == 0 {
			return nil, telecli.Usage(errors.New("-backends is required (comma-separated URLs)"))
		}
		f, err := New(Config{
			Backends:       urls,
			HealthInterval: *healthInterval,
			Telemetry:      reg,
			Logger:         sink.Logger,
		})
		if err != nil {
			return nil, err
		}
		sink.Config("backends", strings.Join(urls, ","))
		fmt.Printf("mlperf-front: listening on %s, %d backends\n", ln.Addr(), len(urls))
		return f, nil
	})
}
