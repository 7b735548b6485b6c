// Package smoke holds the serving contracts end to end: each test boots
// mlperf-serve and mlperf-front as their users do, as separate
// processes on 127.0.0.1:0, drives them over HTTP and with signals, and
// asserts on what the program's own typed readers make of the
// artifacts (telemetry.ParseManifest, ParseFlightDump, StitchSpans,
// serve.ReadStream). The daemons are this test binary re-executed
// (TestMain), so `go test ./...` checks what the commands do.
package smoke

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"mlperf/internal/front"
	"mlperf/internal/loadgen"
	"mlperf/internal/serve"
	"mlperf/internal/telemetry"
)

// asEnv, when set to a command's name, turns the test binary into that
// command: it runs the command's Main on its own arguments.
const asEnv = "MLPERF_SMOKE_AS"

var commands = map[string]func([]string) int{
	"mlperf-serve":   serve.Main,
	"mlperf-front":   front.Main,
	"mlperf-loadgen": loadgen.Main,
}

func TestMain(m *testing.M) {
	if name := os.Getenv(asEnv); name != "" {
		os.Exit(commands[name](os.Args[1:]))
	}
	os.Exit(m.Run())
}

// waitFor bounds every wait on a child: boot, readiness, a dump, a drain.
const waitFor = 20 * time.Second

// command starts the named command in dir with args. Its stdout goes
// to dir/<log>.out and its stderr to dir/<log>.log.
func command(t *testing.T, dir, log, name string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), asEnv+"="+name)
	stdout, err := os.Create(filepath.Join(dir, log+".out"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close() // the child holds its own descriptors
	stderr, err := os.Create(filepath.Join(dir, log+".log"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// daemon is one running mlperf-serve or mlperf-front.
type daemon struct {
	name string // the log prefix: dir/<name>.out and dir/<name>.log
	dir  string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed when the process has exited
}

// start boots a daemon on 127.0.0.1:0 in dir, reads its address from
// its "listening on" line and waits until /readyz answers 200. The
// process is killed, if it still runs, when the test ends.
func start(t *testing.T, dir, name, tool string, args ...string) *daemon {
	t.Helper()
	d := &daemon{name: name, dir: dir, done: make(chan struct{})}
	d.cmd = command(t, dir, name, tool, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	go func() {
		d.cmd.Wait() // the exit status is read from ProcessState
		close(d.done)
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill() // fails only when the process has already exited
		<-d.done
	})
	deadline := time.Now().Add(waitFor)
	for d.url == "" {
		out, _ := os.ReadFile(filepath.Join(dir, name+".out"))
		if _, rest, ok := strings.Cut(string(out), " listening on "); ok {
			if addr, _, ok := strings.Cut(rest, "\n"); ok {
				addr, _, _ = strings.Cut(addr, ",") // the front adds ", N backends"
				d.url = "http://" + addr
			}
		}
		d.poll(t, deadline, "announce its address")
	}
	for get(t, d.url+"/readyz").status != http.StatusOK {
		d.poll(t, deadline, "become ready")
	}
	return d
}

// poll sleeps a beat, failing the test when the daemon has exited or
// the deadline has passed.
func (d *daemon) poll(t *testing.T, deadline time.Time, what string) {
	t.Helper()
	select {
	case <-d.done:
		t.Fatalf("%s exited (status %d) before it could %s; stderr:\n%s",
			d.name, d.cmd.ProcessState.ExitCode(), what, d.stderr(t))
	case <-time.After(20 * time.Millisecond):
	}
	if time.Now().After(deadline) {
		t.Fatalf("%s did not %s within %v", d.name, what, waitFor)
	}
}

// running reports whether the process has not exited.
func (d *daemon) running() bool {
	select {
	case <-d.done:
		return false
	default:
		return true
	}
}

func (d *daemon) signal(t *testing.T, sig os.Signal) {
	t.Helper()
	if err := d.cmd.Process.Signal(sig); err != nil {
		t.Fatalf("%s: %v", d.name, err)
	}
}

// drain sends SIGTERM and requires the daemon to exit 0 within waitFor.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	d.signal(t, syscall.SIGTERM)
	d.awaitDrained(t)
}

// awaitDrained requires the daemon to exit 0 within waitFor.
func (d *daemon) awaitDrained(t *testing.T) {
	t.Helper()
	select {
	case <-d.done:
	case <-time.After(waitFor):
		t.Fatalf("%s did not drain within %v", d.name, waitFor)
	}
	if code := d.cmd.ProcessState.ExitCode(); code != 0 {
		t.Fatalf("%s drained with exit status %d; stderr:\n%s", d.name, code, d.stderr(t))
	}
}

func (d *daemon) stderr(t *testing.T) string {
	t.Helper()
	b, _ := os.ReadFile(filepath.Join(d.dir, d.name+".log"))
	return string(b)
}

// reply is one HTTP exchange as a client sees it.
type reply struct {
	status int
	header http.Header
	body   []byte
}

var client = &http.Client{Timeout: waitFor}

func get(t *testing.T, url string) reply {
	t.Helper()
	return do(t, http.MethodGet, url, nil)
}

func do(t *testing.T, method, url string, body []byte) reply {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return reply{} // status 0: the caller's check names the URL
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return reply{resp.StatusCode, resp.Header, b}
}

// mustGet is get that requires a 200.
func mustGet(t *testing.T, url string) reply {
	t.Helper()
	r := get(t, url)
	if r.status != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %s", url, r.status, r.body)
	}
	return r
}

// stats reads a serve daemon's /v1/stats.
func stats(t *testing.T, d *daemon) serve.Stats {
	t.Helper()
	var st serve.Stats
	if err := json.Unmarshal(mustGet(t, d.url+"/v1/stats").body, &st); err != nil {
		t.Fatalf("%s /v1/stats: %v", d.name, err)
	}
	return st
}

// manifest reads and validates dir/name.
func manifest(t *testing.T, dir, name string) *telemetry.Manifest {
	t.Helper()
	m, err := telemetry.ParseManifest(read(t, dir, name))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return m
}

func read(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// config reads an integer count the daemon recorded in m.Config.
func config(t *testing.T, m *telemetry.Manifest, key string) int64 {
	t.Helper()
	n, err := strconv.ParseInt(m.Config[key], 10, 64)
	if err != nil {
		t.Fatalf("%s manifest config %q = %q: %v", m.Tool, key, m.Config[key], err)
	}
	return n
}

// total sums the manifest's own samples of metric name whose labels
// contain any of labels (every sample when none is given).
func total(m *telemetry.Manifest, name string, labels ...string) int64 {
	var n float64
	for _, v := range m.Metrics {
		if v.Name != name {
			continue
		}
		match := len(labels) == 0
		for _, l := range labels {
			match = match || strings.Contains(v.Labels, l)
		}
		if match {
			n += v.Value
		}
	}
	return int64(n)
}

// computeEndpoints selects the request counters' compute endpoints,
// every status code included.
var computeEndpoints = []string{`endpoint="simulate"`, `endpoint="sweep"`, `endpoint="sweep_stream"`}

// runLoad drives url with opts and requires slo to pass with at least
// one answer checked and none wrong. It may run on its own goroutine.
func runLoad(t *testing.T, url string, opts loadgen.LoadOptions, slo loadgen.SLO) *loadgen.LoadReport {
	t.Helper()
	opts.BaseURL = url
	rep, err := loadgen.RunLoad(context.Background(), opts)
	if err != nil {
		t.Error(err)
		return &loadgen.LoadReport{}
	}
	t.Logf("load on %s:\n%s", url, loadgen.RenderLoadReport(rep))
	if v := slo.Violations(rep); len(v) > 0 {
		t.Errorf("SLO violated: %s", strings.Join(v, "; "))
	}
	if rep.Checked == 0 || rep.Wrong != 0 {
		t.Errorf("answers: %d checked, %d wrong; want at least 1 checked and 0 wrong", rep.Checked, rep.Wrong)
	}
	return rep
}

// exitStatus runs a command to completion and returns its status.
func exitStatus(t *testing.T, dir, log, name string, args ...string) int {
	t.Helper()
	cmd := command(t, dir, log, name, args...)
	err := cmd.Wait()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("%s %q: %v", name, args, err)
	}
	return cmd.ProcessState.ExitCode()
}
