// Command mlperf-front runs the multi-process serving front tier: one
// HTTP endpoint fanning requests across N mlperf-serve backends that
// share a single -cache-dir content-addressed cache.
//
//	mlperf-front -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//	mlperf-front -addr :8080 -backends ... -health-interval 250ms
//
// Cells route to backends by consistent hash of their content digest,
// so repeated and concurrent queries for the same cell always hit the
// same backend's hot memory tier, where concurrent misses share one
// simulation. Grid sweeps
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
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"mlperf/internal/front"
	"mlperf/internal/telecli"
	"mlperf/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	backends := flag.String("backends", "", "comma-separated mlperf-serve base URLs (required)")
	healthInterval := flag.Duration("health-interval", 500*time.Millisecond, "backend /readyz poll cadence")
	replicas := flag.Int("replicas", 0, "consistent-hash virtual nodes per backend (0 = default)")
	drain := flag.Duration("drain-timeout", 15*time.Second, "how long in-flight requests get to finish on SIGTERM")
	flightSize := flag.Int("flight-size", 0, "flight recorder ring capacity (0 = default)")
	flightDump := flag.String("flight-dump", "", "write the flight ring here on SIGQUIT and drain")
	sink := telecli.Register("mlperf-front", nil)
	flag.Parse()

	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "mlperf-front: -backends is required (comma-separated URLs)")
		os.Exit(2)
	}

	reg := sink.Activate()
	f, err := front.New(front.Config{
		Backends:       urls,
		Replicas:       *replicas,
		HealthInterval: *healthInterval,
		Telemetry:      reg,
		Logger:         sink.Log(),
		Flight:         telemetry.NewFlightRecorder(*flightSize),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlperf-front:", err)
		os.Exit(1)
	}
	defer f.Close()
	dump := func(reason string) {
		if *flightDump == "" {
			return
		}
		if derr := f.Flight().DumpFile(*flightDump, "mlperf-front", reason); derr != nil {
			fmt.Fprintln(os.Stderr, "mlperf-front: flight dump:", derr)
		}
	}
	stopQuit := telecli.OnSIGQUIT(func() { dump("sigquit") })
	defer stopQuit()
	if sink.Enabled() {
		sink.Config("addr", *addr)
		sink.Config("backends", strings.Join(urls, ","))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlperf-front:", err)
		os.Exit(1)
	}
	fmt.Printf("mlperf-front: listening on %s, %d backends\n", ln.Addr(), len(urls))

	srv := &http.Server{Handler: f.Handler()}
	ctx, stop := telecli.InterruptContext()
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case err = <-done:
	case <-ctx.Done():
		fmt.Fprintf(os.Stderr, "mlperf-front: signal received, draining (up to %v)\n", *drain)
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		if serr := srv.Shutdown(dctx); serr != nil {
			fmt.Fprintf(os.Stderr, "mlperf-front: drain deadline expired: %v\n", serr)
		}
		cancel()
		err = <-done
		if err == http.ErrServerClosed {
			err = nil
		}
		dump("drain")
	}

	if sink.Enabled() {
		f.FillManifest(sink.Manifest)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlperf-front:", err)
		sink.MustFlush()
		os.Exit(1)
	}
	sink.MustFlush()
}
