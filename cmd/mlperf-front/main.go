// Command mlperf-front runs the multi-process serving front tier: one
// HTTP endpoint fanning requests across N mlperf-serve backends that
// share a single -cache-dir content-addressed cache.
//
//	mlperf-front -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//	mlperf-front -addr :8080 -backends ... -health-interval 250ms
//
// Cells are placed on backends by their content digest (FNV-1a-64 of
// the digest modulo the -backends list, which is fixed for the
// process's life), so repeated and concurrent queries for the same cell
// always hit the same backend's hot memory tier, where concurrent
// misses share one simulation. Grid sweeps
// (unary /v1/sweep and streaming /v1/sweep/stream) are digest-
// partitioned across all healthy backends and merged back into global
// cell order — byte-identical to a single process running the grid.
// Every other endpoint proxies whole to one backend. Cells a backend
// answered completely stay in the front's bounded cell cache, and a
// repeat is answered there without a backend hop.
//
// A health loop polls each backend's /readyz; draining or dead
// backends drop out of routing, and an attempt that hits a connection
// error or drain 503 fails over to the next healthy backend.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"mlperf/internal/front"
	"mlperf/internal/httpkit"
	"mlperf/internal/sweep"
	"mlperf/internal/telecli"
	"mlperf/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	backends := flag.String("backends", "", "comma-separated mlperf-serve base URLs (required)")
	healthInterval := flag.Duration("health-interval", 500*time.Millisecond, "backend /readyz poll cadence")
	drain := flag.Duration("drain-timeout", 15*time.Second, "how long in-flight requests get to finish on SIGTERM")
	flightDump := flag.String("flight-dump", "", "write the flight ring here on SIGQUIT and drain")
	sink := telecli.Register("mlperf-front", nil)
	flag.Parse()

	os.Exit(sink.Serve(*addr, *drain, func(reg *telemetry.Registry, ln net.Listener) (telecli.Daemon, error) {
		urls := sweep.SplitList(*backends)
		if len(urls) == 0 {
			return nil, telecli.Usage(errors.New("-backends is required (comma-separated URLs)"))
		}
		f, err := front.New(front.Config{
			Backends:       urls,
			HealthInterval: *healthInterval,
			Telemetry:      reg,
			Logger:         sink.Logger,
		})
		if err != nil {
			return nil, err
		}
		sink.Config("addr", *addr)
		sink.Config("backends", strings.Join(urls, ","))
		fmt.Printf("mlperf-front: listening on %s, %d backends\n", ln.Addr(), len(urls))
		return daemon{httpkit.NewServer(f.Handler()), f, *flightDump}, nil
	}))
}

// daemon is the front behind its HTTP server; a drain also dumps the
// flight ring.
type daemon struct {
	*http.Server
	*front.Front
	dump string
}

func (d daemon) Shutdown(ctx context.Context) error {
	err := d.Server.Shutdown(ctx)
	d.DumpFlight("drain")
	return err
}

func (d daemon) DumpFlight(reason string) {
	if d.dump == "" {
		return
	}
	if err := d.Flight().DumpFile(d.dump, "mlperf-front", reason); err != nil {
		fmt.Fprintln(os.Stderr, "mlperf-front: flight dump:", err)
	}
}
