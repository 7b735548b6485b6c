package telecli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
)

// newSink registers a sink on a private flag set and parses args.
func newSink(t *testing.T, args ...string) *Sink {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := Register("test-tool", fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return s
}

// readManifest parses the manifest at path through the strict parser.
func readManifest(t *testing.T, path string) *telemetry.Manifest {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := telemetry.ParseManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// interruptAfter makes the next run's interrupt context fire once
// fire is closed, as a first SIGINT would.
func interruptAfter(t *testing.T, fire <-chan struct{}) {
	t.Helper()
	prev := interruptContext
	interruptContext = func() (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-fire
			cancel()
		}()
		return ctx, cancel
	}
	t.Cleanup(func() { interruptContext = prev })
}

// TestSinkRoundTrip drives the full lifecycle: register flags, run a
// body that records, exit — then re-reads both artifacts through the
// strict parsers.
func TestSinkRoundTrip(t *testing.T) {
	dir := t.TempDir()
	prom := filepath.Join(dir, "out.prom")
	manifest := filepath.Join(dir, "run.json")
	s := newSink(t, "-metrics", prom, "-manifest", manifest)
	status := s.Run(nil, func() error {
		if s.Reg == nil || !s.Enabled() {
			t.Error("Run did not activate telemetry with both flags set")
		}
		s.Reg.Counter("test_total", telemetry.L("k", "v")).Add(3)
		s.Reg.Gauge("test_gauge").Set(1.5)
		s.Config("bench", "res50_tf")
		s.Config("empty", "") // dropped
		s.Manifest.Cells = 4
		return nil
	})
	if status != 0 {
		t.Fatalf("status %d, want 0", status)
	}

	m := readManifest(t, manifest)
	if m.Tool != "test-tool" || m.Cells != 4 || m.Config["bench"] != "res50_tf" {
		t.Errorf("manifest round-trip lost fields: %+v", m)
	}
	if _, ok := m.Config["empty"]; ok {
		t.Error("empty config value should be dropped")
	}
	if len(m.Metrics) != 2 {
		t.Errorf("manifest has %d metrics, want 2", len(m.Metrics))
	}

	pf, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParsePrometheus(strings.NewReader(string(pf)))
	if err != nil {
		t.Fatalf("metrics file rejected by the strict parser: %v", err)
	}
	if len(fams) != 2 {
		t.Errorf("prometheus file has %d families, want 2", len(fams))
	}
}

// TestSinkDisabledIsNoOp pins the default path: no flags, no registry,
// no files, and the body's status passes through.
func TestSinkDisabledIsNoOp(t *testing.T) {
	s := newSink(t)
	status := s.Run(sweep.NewEngine(1), func() error {
		if s.Enabled() || s.Reg != nil || s.Manifest != nil {
			t.Error("Run built a registry with no flags set")
		}
		s.Config("k", "v") // must not panic on the nil manifest
		return nil
	})
	if status != 0 {
		t.Errorf("disabled run exited %d, want 0", status)
	}
}

// TestExitStatuses pins the status of each way a body can end, and
// that every one of them still writes the manifest.
func TestExitStatuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"ok", nil, 0},
		{"error", errors.New("boom"), 1},
		{"usage", Usage(errors.New("bad -workers")), 2},
		{"interrupted", fmt.Errorf("%w: wrote 3 of 9 cells", ErrInterrupted), 130},
	} {
		t.Run(tc.name, func(t *testing.T) {
			manifest := filepath.Join(t.TempDir(), "run.json")
			s := newSink(t, "-manifest", manifest)
			status := s.RunContext(nil, func(context.Context) error {
				s.Config("path", tc.name)
				return tc.err
			})
			if status != tc.want {
				t.Errorf("status %d, want %d", status, tc.want)
			}
			if m := readManifest(t, manifest); m.Config["path"] != tc.name {
				t.Errorf("manifest config %v, want path=%s", m.Config, tc.name)
			}
		})
	}
	if Usage(nil) != nil {
		t.Error("Usage(nil) should be nil")
	}
}

// TestRunInterruptDoesNotWait: a body that cannot observe the
// interrupt is abandoned at once with status 130, and the manifest
// still records what the engine did before it.
func TestRunInterruptDoesNotWait(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "run.json")
	fire := make(chan struct{})
	interruptAfter(t, fire)
	s := newSink(t, "-manifest", manifest)
	e := sweep.NewEngine(1)
	block := make(chan struct{})
	defer close(block)
	status := s.Run(e, func() error {
		if _, err := e.Run(sweep.Grid{Benchmarks: []string{"res50_tf"}, GPUCounts: []int{1, 2}}); err != nil {
			return err
		}
		close(fire)
		<-block // an experiment that never looks at the context
		return nil
	})
	if status != 130 {
		t.Fatalf("status %d, want 130", status)
	}
	if m := readManifest(t, manifest); m.CacheMisses != 2 || m.Simulations != 2 {
		t.Errorf("interrupted manifest has %d misses, %d simulations; want 2, 2", m.CacheMisses, m.Simulations)
	}
}

// TestRunContextWaitsForSalvage: an interrupt cancels the body's
// context and RunContext waits for what the body salvages.
func TestRunContextWaitsForSalvage(t *testing.T) {
	fire := make(chan struct{})
	interruptAfter(t, fire)
	s := newSink(t)
	salvaged := false
	status := s.RunContext(nil, func(ctx context.Context) error {
		close(fire)
		<-ctx.Done()
		salvaged = true
		return fmt.Errorf("%w: partial result written", ErrInterrupted)
	})
	if status != 130 || !salvaged {
		t.Errorf("status %d, salvaged %v; want 130 after the body returned", status, salvaged)
	}
}

// TestManifestCacheFieldsFromEngine: the cache fields come from the
// engine the tool drove and agree with the manifest's own metric
// snapshot, without the body copying anything.
func TestManifestCacheFieldsFromEngine(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "run.json")
	s := newSink(t, "-manifest", manifest)
	e := sweep.NewEngine(2)
	g := sweep.Grid{Benchmarks: []string{"res50_tf", "ncf_py"}, GPUCounts: []int{1, 2}}
	status := s.Run(e, func() error {
		if _, err := e.Run(g); err != nil {
			return err
		}
		_, err := e.Run(g) // every cell a memory hit
		return err
	})
	if status != 0 {
		t.Fatalf("status %d", status)
	}
	m := readManifest(t, manifest)
	if m.CacheMisses != 4 || m.CacheHits != 4 || m.Simulations != 4 || m.CacheSchema == 0 {
		t.Errorf("cache fields %+v, want 4 misses, 4 hits, 4 simulations and a schema", m)
	}
	samples := map[string]float64{}
	for _, mv := range m.Metrics {
		if mv.Name == sweep.MetricCacheTotal {
			samples[mv.Labels] = mv.Value
		}
	}
	if samples[`{result="miss"}`] != float64(m.CacheMisses) || samples[`{result="hit"}`] != float64(m.CacheHits) {
		t.Errorf("manifest cache fields (%d hits, %d misses) disagree with its metrics %v",
			m.CacheHits, m.CacheMisses, samples)
	}
}

// TestFlushFailureExitsOne: a manifest that cannot be written turns a
// successful run into status 1, and never masks a worse status.
func TestFlushFailureExitsOne(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing-dir", "run.json")
	if got := newSink(t, "-manifest", bad).Run(nil, func() error { return nil }); got != 1 {
		t.Errorf("flush failure after success: status %d, want 1", got)
	}
	if got := newSink(t, "-manifest", bad).Run(nil, func() error { return Usage(errors.New("x")) }); got != 2 {
		t.Errorf("flush failure after a usage error: status %d, want 2", got)
	}
}

// fakeDaemon answers every request with hold (200 at once when nil)
// and hands each Drain context to drained.
type fakeDaemon struct {
	hold    http.HandlerFunc
	drained chan context.Context
	flight  *telemetry.FlightRecorder
}

func newFakeDaemon(hold http.HandlerFunc) *fakeDaemon {
	return &fakeDaemon{hold: hold, drained: make(chan context.Context, 1), flight: telemetry.NewFlightRecorder(0)}
}

func (d *fakeDaemon) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d.hold != nil {
			d.hold(w, r)
		}
	})
}

func (d *fakeDaemon) Drain(ctx context.Context)          { d.drained <- ctx }
func (d *fakeDaemon) FillManifest(m *telemetry.Manifest) { m.Config["requests"] = "7" }
func (d *fakeDaemon) Flight() *telemetry.FlightRecorder  { return d.flight }

// newDaemonSink registers a daemon sink listening on a free loopback
// port and parses args.
func newDaemonSink(t *testing.T, args ...string) *Sink {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := RegisterDaemon("test-tool", fs)
	if err := fs.Parse(append([]string{"-addr", "127.0.0.1:0"}, args...)); err != nil {
		t.Fatal(err)
	}
	return s
}

// serveInBackground runs s.Serve over d and returns the listener's
// address (once open has run) and the exit status channel.
func serveInBackground(s *Sink, d Daemon) (string, <-chan int) {
	addr := make(chan string, 1)
	status := make(chan int, 1)
	go func() {
		status <- s.Serve(func(reg *telemetry.Registry, ln net.Listener) (Daemon, error) {
			addr <- ln.Addr().String()
			return d, nil
		})
	}()
	return <-addr, status
}

// awaitStatus waits for Serve's exit status.
func awaitStatus(t *testing.T, what string, status <-chan int) int {
	t.Helper()
	select {
	case st := <-status:
		return st
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: Serve still running 5s after the interrupt", what)
		return 0
	}
}

// TestServeDrainsAndFills: Serve listens, opens the daemon with the
// registry, serves its handler until the interrupt, drains, exits 0 and
// fills the manifest from the daemon.
func TestServeDrainsAndFills(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "serve.json")
	fire := make(chan struct{})
	interruptAfter(t, fire)
	s := newDaemonSink(t, "-manifest", manifest)
	d := newFakeDaemon(nil)
	addr, status := serveInBackground(s, d)
	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon handler answered %d", resp.StatusCode)
	}
	close(fire)
	if st := awaitStatus(t, "drain", status); st != 0 {
		t.Fatalf("status %d, want 0 after a drain", st)
	}
	select {
	case <-d.drained:
	default:
		t.Error("daemon was never drained")
	}
	m := readManifest(t, manifest)
	if m.Config["requests"] != "7" || m.Config["addr"] != "127.0.0.1:0" {
		t.Errorf("manifest not filled from the daemon and the shell: %v", m.Config)
	}
}

// TestServeDrainDeadline: a request still running at the drain
// deadline holds Shutdown until then. The daemon's Drain context ends at
// that deadline, not before, the connections are closed, Serve exits 0,
// and the drain dump at -flight-dump records the drain's phases.
func TestServeDrainDeadline(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "flight.json")
	fire := make(chan struct{})
	interruptAfter(t, fire)
	const drain = 100 * time.Millisecond
	s := newDaemonSink(t, "-drain-timeout", drain.String(), "-flight-dump", dump)
	entered, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	d := newFakeDaemon(func(http.ResponseWriter, *http.Request) {
		close(entered)
		<-release
	})
	addr, status := serveInBackground(s, d)
	go func() {
		if resp, err := http.Get("http://" + addr + "/"); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	began := time.Now()
	close(fire)
	if st := awaitStatus(t, "drain deadline", status); st != 0 {
		t.Fatalf("status %d, want 0 after a drain", st)
	}
	ctx := <-d.drained
	if ctx.Err() != context.DeadlineExceeded {
		t.Errorf("Drain context ended with %v, want the drain deadline", ctx.Err())
	}
	if dl, ok := ctx.Deadline(); !ok || dl.Sub(began) < drain || dl.Sub(began) > drain+time.Second {
		t.Errorf("Drain context deadline %v after the interrupt, want %v", dl.Sub(began), drain)
	}
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatalf("no drain dump: %v", err)
	}
	fd, err := telemetry.ParseFlightDump(data)
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	for _, e := range fd.Entries {
		events = append(events, e.Msg)
	}
	if fd.Reason != "drain" || fd.Tool != "test-tool" ||
		strings.Join(events, ", ") != "drain begin, drain deadline expired, drain complete" {
		t.Errorf("dump %s/%s with events %q", fd.Tool, fd.Reason, events)
	}
}

// TestInterruptBeforeServeEndsServe: an interrupt that arrives before
// the listener is served, or while Serve is starting to serve it, still
// ends Serve with status 0 and closes the listener, instead of serving
// until the process is killed.
func TestInterruptBeforeServeEndsServe(t *testing.T) {
	for _, c := range []struct {
		name   string
		inOpen bool // fire inside open, racing the start of serving
	}{{"before Serve", false}, {"while serving", true}} {
		t.Run(c.name, func(t *testing.T) {
			fire := make(chan struct{})
			interruptAfter(t, fire)
			if !c.inOpen {
				close(fire)
			}
			s := newDaemonSink(t)
			var addr string
			status := make(chan int, 1)
			go func() {
				status <- s.Serve(func(_ *telemetry.Registry, ln net.Listener) (Daemon, error) {
					addr = ln.Addr().String()
					if c.inOpen {
						close(fire)
					}
					return newFakeDaemon(nil), nil
				})
			}()
			if st := awaitStatus(t, c.name, status); st != 0 {
				t.Fatalf("status %d, want 0", st)
			}
			if conn, err := net.Dial("tcp", addr); err == nil {
				conn.Close()
				t.Error("listener still accepting after Serve returned")
			}
		})
	}
}

// TestServeOpenFailure: a daemon that cannot start exits with its
// error's status and still writes the manifest.
func TestServeOpenFailure(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "serve.json")
	s := newDaemonSink(t, "-manifest", manifest)
	status := s.Serve(func(*telemetry.Registry, net.Listener) (Daemon, error) {
		return nil, Usage(errors.New("-backends is required"))
	})
	if status != 2 {
		t.Errorf("status %d, want 2", status)
	}
	readManifest(t, manifest)
}
