// Package telecli is the one way a command-line tool or daemon of this
// repository runs and ends. Every binary registers the same
// observability flags (Register), then hands its body to Run or
// RunContext, or its server to Serve. Each activates one telemetry registry when
// -metrics/-manifest/-trace-out is set, build one structured logger
// when -log-json is set, run the body under one SIGINT/SIGTERM context,
// fill the run manifest with the counts of the engine the tool drove,
// flush the Prometheus text file, the JSON run manifest and the Chrome
// span trace once, and return the exit status: 0 ok, 1 error (a failed
// flush included), 2 a Usage error, 130 interrupted. Every exit after
// the flags parse writes the manifest. With every flag unset no
// registry or logger exists and every instrumented code path runs its
// nil no-op branch, preserving byte-identical output.
package telecli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
)

// ErrInterrupted is the error of a run cut short by SIGINT/SIGTERM; a
// body that salvages a partial result wraps it. Run maps it to exit
// status 130, the shell convention for death by SIGINT.
var ErrInterrupted = errors.New("interrupted")

// usageError marks a bad flag value found after parsing.
type usageError struct{ error }

// Usage marks err as a bad flag value: Run exits 2 on it, the status
// flag.Parse gives its own errors. Usage(nil) is nil.
func Usage(err error) error {
	if err == nil {
		return nil
	}
	return usageError{err}
}

// interruptContext returns a context cancelled on SIGINT or SIGTERM.
// Signal delivery is unregistered at the first signal, so a second
// Ctrl-C during a wedged drain kills the process the default way
// instead of being swallowed. Tests replace it to interrupt without a
// signal.
var interruptContext = func() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}

// Sink owns a tool's telemetry lifecycle: flag values, the registry
// handed to instrumented layers, the structured logger, and the run
// manifest flushed at exit.
type Sink struct {
	// MetricsPath and ManifestPath are the -metrics/-manifest values.
	MetricsPath  string
	ManifestPath string
	// TracePath is the -trace-out value: the per-process Chrome span
	// trace written at exit, the input `mlperf-telemetry stitch` joins.
	TracePath string
	// LogLevel and LogJSON are the -log-level/-log-json values.
	LogLevel string
	LogJSON  bool
	// Reg is the active registry (nil before the run starts, and nil
	// forever when no telemetry flag was given).
	Reg *telemetry.Registry
	// Manifest is the run manifest under construction; bodies record
	// their configuration and results into it.
	Manifest *telemetry.Manifest
	// Logger is the structured logger (nil unless -log-json was given —
	// nil is a valid no-op logger everywhere).
	Logger *telemetry.Logger

	tool  string
	start time.Time
	// fill copies the driven engine's or daemon's counts into the
	// manifest at exit (nil = nothing to copy).
	fill func(*telemetry.Manifest)
	// mu orders Config against the flush: a body Run stops waiting for
	// at an interrupt may still be recording.
	mu sync.Mutex
}

// Register declares the observability flags on fs (nil = the default
// flag set) and returns the sink to run the tool through after
// parsing.
func Register(tool string, fs *flag.FlagSet) *Sink {
	if fs == nil {
		fs = flag.CommandLine
	}
	s := &Sink{tool: tool}
	fs.StringVar(&s.MetricsPath, "metrics", "",
		"write metrics in Prometheus text format to this file at exit")
	fs.StringVar(&s.ManifestPath, "manifest", "",
		"write a JSON run manifest to this file at exit")
	fs.StringVar(&s.TracePath, "trace-out", "",
		"write this process's spans as a Chrome trace to this file at exit (stitchable)")
	fs.StringVar(&s.LogLevel, "log-level", "info",
		"structured log level: debug|info|warn|error")
	fs.BoolVar(&s.LogJSON, "log-json", false,
		"emit structured JSON logs on stderr")
	return s
}

// Run runs a tool's body and returns the process exit status; see
// RunContext. body cannot observe an interrupt, so Run stops waiting
// for it at the first SIGINT/SIGTERM and the status is 130.
func (s *Sink) Run(e *sweep.Engine, body func() error) int {
	return s.RunContext(e, func(ctx context.Context) error {
		done := make(chan error, 1)
		go func() { done <- body() }()
		select {
		case err := <-done:
			return err
		case <-ctx.Done():
			return ErrInterrupted
		}
	})
}

// RunContext runs a tool's body and returns the process exit status.
// It activates telemetry, attaches the registry to e (the sweep engine
// the tool drives; nil for none) and runs body under the interrupt
// context: an interrupt cancels ctx and RunContext waits for body,
// which returns what it salvaged (wrapping ErrInterrupted for status
// 130). It then fills the manifest with e's cache statistics and
// flushes once.
func (s *Sink) RunContext(e *sweep.Engine, body func(ctx context.Context) error) int {
	if reg := s.activate(); reg != nil && e != nil {
		e.SetTelemetry(reg)
		s.fill = func(m *telemetry.Manifest) { e.Stats().FillManifest(m) }
	}
	ctx, stop := interruptContext()
	defer stop()
	return s.exit(body(ctx))
}

// exit reports err, flushes once and maps the outcome to a status.
func (s *Sink) exit(err error) int {
	status := 0
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", s.tool, err)
		status = 1
		if errors.Is(err, ErrInterrupted) {
			status = 130
		} else if errors.As(err, new(usageError)) {
			status = 2
		}
	}
	if ferr := s.flush(); ferr != nil {
		fmt.Fprintf(os.Stderr, "%s: telemetry: %v\n", s.tool, ferr)
		if status == 0 {
			status = 1
		}
	}
	return status
}

// Daemon is a server Serve drives: it serves a listener until Shutdown
// drains it, records its counters into the run manifest, and dumps its
// flight ring on request.
type Daemon interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
	FillManifest(*telemetry.Manifest)
	DumpFlight(reason string)
}

// Serve is RunContext for a daemon. It listens on addr and builds the
// daemon with open, which gets the registry and the listener (to
// announce its address). It serves until the listener fails or the
// first SIGINT/SIGTERM, which drains in-flight requests for up to
// drain; a drained daemon exits 0. The manifest is filled from the
// daemon.
func (s *Sink) Serve(addr string, drain time.Duration, open func(*telemetry.Registry, net.Listener) (Daemon, error)) int {
	return s.RunContext(nil, func(ctx context.Context) error {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return err
		}
		d, err := open(s.Reg, ln)
		if err != nil {
			ln.Close()
			return err
		}
		s.fill = d.FillManifest
		// SIGQUIT is a forensic request, not a kill: unlike the runtime's
		// default (goroutine dump + exit), the daemon keeps serving.
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		defer func() { signal.Stop(quit); close(quit) }()
		go func() {
			for range quit {
				d.DumpFlight("sigquit")
			}
		}()
		done := make(chan error, 1)
		go func() { done <- d.Serve(ln) }()
		select {
		case err := <-done:
			return err // the listener failed: nothing to drain
		case <-ctx.Done():
		}
		fmt.Fprintf(os.Stderr, "%s: signal received, draining (up to %v)\n", s.tool, drain)
		dctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := d.Shutdown(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "%s: drain deadline expired: %v\n", s.tool, err)
		}
		if err := <-done; err != http.ErrServerClosed {
			return err
		}
		return nil
	})
}

// activate builds the registry and manifest when a telemetry flag was
// set, and the logger when -log-json was set, returning the registry —
// nil when telemetry is disabled, which every instrumented layer
// accepts as a no-op. A bad -log-level is reported and downgraded to
// info rather than failing the run.
func (s *Sink) activate() *telemetry.Registry {
	if s.LogJSON {
		lv, err := telemetry.ParseLevel(s.LogLevel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v (using info)\n", s.tool, err)
		}
		s.Logger = telemetry.NewLogger(os.Stderr, lv).With(telemetry.F("tool", s.tool))
	}
	if s.MetricsPath == "" && s.ManifestPath == "" && s.TracePath == "" {
		return nil
	}
	s.Reg = telemetry.New()
	s.Manifest = telemetry.NewManifest(s.tool)
	s.start = time.Now()
	return s.Reg
}

// Enabled reports whether telemetry was requested.
func (s *Sink) Enabled() bool { return s.Reg != nil }

// Config records one configuration pair into the manifest (no-op when
// disabled or value is empty).
func (s *Sink) Config(key, value string) {
	if s.Manifest != nil && value != "" {
		s.mu.Lock()
		s.Manifest.Config[key] = value
		s.mu.Unlock()
	}
}

// flush fills the manifest, finalizes it against the registry snapshot
// and writes the requested files. Safe to call when disabled.
func (s *Sink) flush() error {
	if !s.Enabled() {
		return nil
	}
	if s.fill != nil {
		s.fill(s.Manifest)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Manifest.Finish(s.Reg, time.Since(s.start))
	if s.MetricsPath != "" {
		if err := writeFile(s.MetricsPath, s.Reg.WritePrometheus); err != nil {
			return err
		}
	}
	if s.ManifestPath != "" {
		if err := s.Manifest.WriteFile(s.ManifestPath); err != nil {
			return err
		}
	}
	if s.TracePath != "" {
		spans := s.Reg.Tracer().Spans()
		return writeFile(s.TracePath, func(w io.Writer) error {
			return telemetry.WriteSpansChromeTrace(w, spans)
		})
	}
	return nil
}

// writeFile creates path and writes it with write, reporting the first
// error including the close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
