package smoke

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mlperf/internal/telemetry"
)

// TestObsSmoke is the observability contract: a front over two
// backends with JSON logging, span tracing and flight recorders. A
// request through the front comes back with an X-Request-Id that
// appears in the structured logs of the front and of a backend; SIGQUIT
// dumps a valid flight recording without stopping a backend or the
// front; and after the drain every artifact is whole, no writer temp
// file is left, and the three per-process traces stitch into one
// end-to-end trace with cross-process links and no orphans.
func TestObsSmoke(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	obs := func(name string) []string {
		return []string{"-log-json", "-trace-out", name + "-trace.json",
			"-flight-dump", name + "-flight.json", "-manifest", name + "-manifest.json"}
	}
	backend := func(name string) *daemon {
		return start(t, dir, name, "mlperf-serve", append([]string{"-cache-dir", "cells", "-tenant-rate", "-1"}, obs(name)...)...)
	}
	b1, b2 := backend("b1"), backend("b2")
	f := start(t, dir, "front", "mlperf-front", append([]string{"-backends", b1.url + "," + b2.url,
		"-health-interval", "100ms"}, obs("front")...)...)

	// The request id crosses processes and lands in the logs.
	rid := mustGet(t, f.url+"/v1/sweep?benchmarks=res50_tf,ncf_py&gpus=1,2").header.Get(telemetry.RequestIDHeader)
	if rid == "" {
		t.Fatal("no X-Request-Id on a sweep through the front")
	}
	if !strings.Contains(f.stderr(t), rid) {
		t.Errorf("request id %s is not in the front's log", rid)
	}
	if !strings.Contains(b1.stderr(t)+b2.stderr(t), rid) {
		t.Errorf("request id %s is in neither backend's log", rid)
	}
	// An unknown route's 404 through the front still carries an id.
	if r := get(t, f.url+"/no/such/route"); r.header.Get(telemetry.RequestIDHeader) == "" {
		t.Errorf("404 (status %d) through the front has no X-Request-Id", r.status)
	}

	// Every log line is one JSON object with the schema's keys.
	lines := 0
	for _, d := range []*daemon{f, b1, b2} {
		for _, line := range strings.Split(d.stderr(t), "\n") {
			if strings.TrimSpace(line) == "" {
				continue
			}
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Errorf("%s log line %q: %v", d.name, line, err)
				continue
			}
			for _, k := range []string{"ts", "level", "msg"} {
				if _, ok := m[k]; !ok {
					t.Errorf("%s log line %q has no %q", d.name, line, k)
				}
			}
			lines++
		}
	}
	if lines == 0 {
		t.Error("no structured log line")
	}

	// SIGQUIT dumps the flight ring, and the process keeps serving.
	for _, d := range []*daemon{b1, f} {
		path := filepath.Join(dir, d.name+"-flight.json")
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		d.signal(t, syscall.SIGQUIT)
		var data []byte
		for deadline := time.Now().Add(waitFor); len(data) == 0; {
			data, _ = os.ReadFile(path)
			if len(data) == 0 {
				d.poll(t, deadline, "dump its flight ring on SIGQUIT")
			}
		}
		if dump, err := telemetry.ParseFlightDump(data); err != nil {
			t.Errorf("%s SIGQUIT dump: %v", d.name, err)
		} else if dump.Reason != "sigquit" {
			t.Errorf("%s SIGQUIT dump has reason %q", d.name, dump.Reason)
		}
		if !d.running() {
			t.Fatalf("%s exited on SIGQUIT", d.name)
		}
		mustGet(t, d.url+"/healthz")
	}

	for _, d := range []*daemon{f, b1, b2} {
		d.signal(t, syscall.SIGTERM)
	}
	for _, d := range []*daemon{f, b1, b2} {
		d.awaitDrained(t)
	}

	// Manifests, traces, flight dumps and cache entries all go through
	// one temp-file-and-rename writer (internal/atomicfile), so a
	// drained fleet leaves none of its .tmp-* files behind.
	if err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("writer temp file left behind: %s", path)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var docs []telemetry.NamedTrace
	for _, name := range []string{"front", "b1", "b2"} {
		manifest(t, dir, name+"-manifest.json")
		flight := read(t, dir, name+"-flight.json")
		if _, err := telemetry.ParseFlightDump(flight); err != nil {
			t.Errorf("%s-flight.json: %v", name, err)
		}
		trace := read(t, dir, name+"-trace.json")
		if _, err := telemetry.ValidateChromeTrace(trace); err != nil {
			t.Errorf("%s-trace.json: %v", name, err)
		}
		spans, err := telemetry.ParseSpansChromeTrace(bytes.NewReader(trace))
		if err != nil {
			t.Fatalf("%s-trace.json: %v", name, err)
		}
		docs = append(docs, telemetry.NamedTrace{Name: name + "-trace", Spans: spans})
	}

	// The three traces stitch into one validated timeline.
	var fleet bytes.Buffer
	rep, err := telemetry.WriteStitchedChromeTrace(&fleet, docs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Processes != 3 || len(rep.Orphans) != 0 || rep.CrossLinks == 0 {
		t.Errorf("stitched %d processes: %d cross-process links, orphans %q; want 3 processes, links, no orphans",
			rep.Processes, rep.CrossLinks, rep.Orphans)
	}
	if _, err := telemetry.ValidateChromeTrace(fleet.Bytes()); err != nil {
		t.Errorf("stitched trace: %v", err)
	}
	t.Logf("%d structured log lines; stitched %d processes: %d spans, %d traces, %d cross-process links, %d orphans",
		lines, rep.Processes, rep.Spans, rep.Traces, rep.CrossLinks, len(rep.Orphans))
}
