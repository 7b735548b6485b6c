package telecli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
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

// fakeDaemon records the drive sequence Serve puts it through.
type fakeDaemon struct {
	served, drained chan struct{}
	stop            chan error
}

func (d *fakeDaemon) Serve(ln net.Listener) error {
	close(d.served)
	return <-d.stop
}

func (d *fakeDaemon) Shutdown(context.Context) error {
	close(d.drained)
	d.stop <- nil
	return nil
}

func (d *fakeDaemon) FillManifest(m *telemetry.Manifest) { m.Config["requests"] = "7" }
func (d *fakeDaemon) DumpFlight(string)                  {}

// TestServeDrainsAndFills: Serve listens, opens the daemon with the
// registry, serves until the interrupt, drains, exits 0 and fills the
// manifest from the daemon.
func TestServeDrainsAndFills(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "serve.json")
	fire := make(chan struct{})
	interruptAfter(t, fire)
	s := newSink(t, "-manifest", manifest)
	d := &fakeDaemon{served: make(chan struct{}), drained: make(chan struct{}), stop: make(chan error, 1)}
	go func() {
		<-d.served
		close(fire)
	}()
	status := s.Serve("127.0.0.1:0", time.Second, func(reg *telemetry.Registry, ln net.Listener) (Daemon, error) {
		if reg == nil || ln == nil {
			t.Error("open got no registry or listener")
		}
		return d, nil
	})
	if status != 0 {
		t.Fatalf("status %d, want 0 after a drain", status)
	}
	select {
	case <-d.drained:
	default:
		t.Error("daemon was never drained")
	}
	if m := readManifest(t, manifest); m.Config["requests"] != "7" {
		t.Errorf("manifest not filled from the daemon: %v", m.Config)
	}
}

// TestServeOpenFailure: a daemon that cannot start exits with its
// error's status and still writes the manifest.
func TestServeOpenFailure(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "serve.json")
	s := newSink(t, "-manifest", manifest)
	status := s.Serve("127.0.0.1:0", time.Second, func(*telemetry.Registry, net.Listener) (Daemon, error) {
		return nil, Usage(errors.New("-backends is required"))
	})
	if status != 2 {
		t.Errorf("status %d, want 2", status)
	}
	readManifest(t, manifest)
}
