package smoke

import (
	"strings"
	"testing"
	"time"

	"mlperf/internal/loadgen"
)

// TestServeSmoke is the serving contract: a daemon with tight limits,
// driven well past its admission budget by the open-loop harness,
// sheds with 429s (never 5xx), keeps the p99 of admitted requests
// bounded and answers every admitted request right. SIGTERM then drains
// it with exit 0 and a valid manifest whose counts equal its own
// samples and show identical queries sharing simulations.
func TestServeSmoke(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	d := start(t, dir, "serve", "mlperf-serve", "-cache-dir", "cells",
		"-max-inflight", "4", "-max-queue", "4", "-tenant-rate", "25", "-manifest", "serve.json")
	runLoad(t, d.url, loadgen.LoadOptions{
		Rate: 200, Duration: 3 * time.Second, HotFraction: 0.8, RequestTimeout: 5 * time.Second, Seed: 1,
	}, loadgen.SLO{MaxP99: 3 * time.Second, MinShedRate: 0.2, MaxShedRate: 0.999})

	// A closed port: every request is a transport error and no answer
	// is checked, so the command's SLO gate itself fails.
	if status := exitStatus(t, dir, "loadgen-closed", "mlperf-loadgen",
		"-url", "http://127.0.0.1:1", "-duration", "200ms"); status != 1 {
		t.Errorf("mlperf-loadgen against a closed port: exit status %d, want 1", status)
	}

	d.drain(t)
	m := manifest(t, dir, "serve.json")
	if m.Tool != "mlperf-serve" {
		t.Errorf("manifest tool %q, want mlperf-serve", m.Tool)
	}
	requests, shed := config(t, m, "requests"), config(t, m, "shed")
	if requests <= 0 || shed <= 0 {
		t.Errorf("manifest requests %d, shed %d; want both > 0", requests, shed)
	}
	// A healthy -cache-dir makes no store errors (DESIGN §9,
	// "Dependency protection").
	if got := m.Config["disk_errors"]; got != "0" {
		t.Errorf("manifest disk_errors %q, want \"0\"", got)
	}
	// One count per event: the config counts are read from the registry
	// the manifest's own samples snapshot.
	if n := total(m, "serve_requests_total", computeEndpoints...); requests != n {
		t.Errorf("manifest requests %d, its serve_requests_total samples %d", requests, n)
	}
	if n := total(m, "serve_shed_total"); shed != n {
		t.Errorf("manifest shed %d, its serve_shed_total samples %d", shed, n)
	}
	// Work was shared: memo hits and joins on in-flight cells answered
	// part of the admitted requests without simulating.
	if admitted := requests - shed; m.Simulations >= admitted {
		t.Errorf("no reuse: %d simulations for %d admitted requests", m.Simulations, admitted)
	}
	t.Logf("drained after %d requests, %d shed, %d simulations, %s disk errors",
		requests, shed, m.Simulations, m.Config["disk_errors"])
	if t.Failed() {
		t.Logf("daemon stderr:\n%s", strings.TrimSpace(d.stderr(t)))
	}
}
