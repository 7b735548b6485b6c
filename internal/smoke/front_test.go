package smoke

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"mlperf/internal/loadgen"
	"mlperf/internal/serve"
	"mlperf/internal/sweep"
)

// TestFrontSmoke is multi-process serving: two backends share one
// content-addressed cache dir behind the front. A load with streaming
// clients goes through the front while one backend drains mid-load:
// no 5xx, every answer right, the front stays ready. A fresh backend on
// the same dir answers the hot grid from entries other processes
// wrote; a cold grid through the front equals a backend's answer byte
// for byte, unary and stream; an oversized grid is the same 413
// everywhere; and the fleet ran fewer simulations than the front
// answered requests.
func TestFrontSmoke(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	backend := func(name string) *daemon {
		return start(t, dir, name, "mlperf-serve", "-cache-dir", "cells",
			"-max-inflight", "16", "-max-queue", "64", "-tenant-rate", "-1", "-manifest", name+".json")
	}
	a, b := backend("backend-a"), backend("backend-b")
	f := start(t, dir, "front", "mlperf-front", "-backends", a.url+","+b.url,
		"-health-interval", "100ms", "-manifest", "front.json")

	var rep *loadgen.LoadReport
	loaded := make(chan struct{})
	go func() {
		defer close(loaded)
		rep = runLoad(t, f.url, loadgen.LoadOptions{
			Rate: 80, Duration: 4 * time.Second, HotFraction: 0.9, StreamFraction: 0.5,
			RequestTimeout: 5 * time.Second, Seed: 1,
		}, loadgen.SLO{})
	}()
	t.Cleanup(func() { <-loaded }) // the load reports through t
	time.Sleep(1500 * time.Millisecond)
	b.drain(t) // mid-load: the front fails backend B's cells over
	<-loaded
	if rep.Streamed == 0 {
		t.Errorf("no stream completed through the front")
	}
	mustGet(t, f.url+"/readyz")

	// Replaying the hot grid costs no fresh simulation: every cell is
	// cached, whichever process ran it.
	const hot = "/v1/sweep?benchmarks=res50_tf,ncf_py&gpus=1,2"
	before := stats(t, a)
	mustGet(t, f.url+hot)
	if after := stats(t, a); after.Cache.Simulations != before.Cache.Simulations {
		t.Errorf("replaying the hot grid simulated: backend A %d -> %d simulations",
			before.Cache.Simulations, after.Cache.Simulations)
	}
	// A fresh backend on the same cache dir, asked for the hot grid
	// directly: its memory tier is empty, so every cell comes from the
	// records the other processes wrote to disk.
	c := start(t, dir, "backend-c", "mlperf-serve", "-cache-dir", "cells", "-tenant-rate", "-1")
	mustGet(t, c.url+hot)
	if st := stats(t, c).Cache; st.Disk.Hits != 4 || st.Simulations != 0 {
		t.Errorf("fresh backend: %d disk hits, %d simulations for the 4-cell hot grid; want 4 and 0",
			st.Disk.Hits, st.Simulations)
	}
	c.drain(t)

	// One grid path: a grid the load never asks for, so the front fans
	// it out cold over the backend stream. Its unary body equals backend
	// A's own /v1/sweep byte for byte, and its stream carries the same
	// records and a complete summary.
	const grid = "benchmarks=ssd_py,xfmr_py&gpus=1,2,4"
	unary := mustGet(t, f.url+"/v1/sweep?"+grid).body
	if own := mustGet(t, a.url+"/v1/sweep?"+grid).body; !bytes.Equal(unary, own) {
		t.Errorf("front /v1/sweep differs from backend A's:\n%s\n%s", unary, own)
	}
	var want serve.SweepResponse
	if err := json.Unmarshal(unary, &want); err != nil {
		t.Fatal(err)
	}
	got := make([]sweep.Record, want.Cells)
	sum, err := serve.ReadStream(bytes.NewReader(mustGet(t, f.url+"/v1/sweep/stream?"+grid).body), want.Cells,
		func(i int, rec *sweep.Record) { got[i] = *rec })
	if err != nil {
		t.Fatalf("front stream: %v", err)
	}
	if !reflect.DeepEqual(got, want.Records) {
		t.Errorf("streamed records differ from /v1/sweep")
	}
	if sum.Completed != want.Cells || sum.Partial {
		t.Errorf("stream summary %+v, want all %d cells completed, not partial", sum, want.Cells)
	}

	// One cell over the cell budget: backend A refuses it before
	// admission, and the front refuses it with the same body before any
	// fan-out, on both sweep endpoints.
	over := []byte(`{"cells": [` + strings.Repeat(`{"benchmark": "res50_tf"}, `, serve.MaxRequestCells) + `{"benchmark": "res50_tf"}]}`)
	refusal := do(t, http.MethodPost, a.url+"/v1/sweep", over)
	for _, url := range []string{a.url + "/v1/sweep", f.url + "/v1/sweep", f.url + "/v1/sweep/stream"} {
		if r := do(t, http.MethodPost, url, over); r.status != http.StatusRequestEntityTooLarge || !bytes.Equal(r.body, refusal.body) {
			t.Errorf("POST %d cells to %s: status %d, body %s; want 413, body %s",
				serve.MaxRequestCells+1, url, r.status, r.body, refusal.body)
		}
	}

	f.drain(t)
	a.drain(t)
	fm := manifest(t, dir, "front.json")
	if fm.Tool != "mlperf-front" {
		t.Errorf("front manifest tool %q", fm.Tool)
	}
	requests, fanouts, hits := config(t, fm, "requests"), config(t, fm, "fanouts"), config(t, fm, "cell_hits")
	if requests <= 0 || fanouts <= 0 {
		t.Errorf("front manifest: %d requests, %d fanouts; want both > 0", requests, fanouts)
	}
	// One count per event: the config counts equal the manifest's own
	// front_* samples.
	if n := total(fm, "front_requests_total", computeEndpoints...); requests != n {
		t.Errorf("front manifest requests %d, its front_requests_total samples %d", requests, n)
	}
	if n := total(fm, "front_fanouts_total"); fanouts != n {
		t.Errorf("front manifest fanouts %d, its front_fanouts_total samples %d", fanouts, n)
	}
	if n := total(fm, "front_cell_cache_total", `result="hit"`); hits != n {
		t.Errorf("front manifest cell_hits %d, its front_cell_cache_total{result=\"hit\"} samples %d", hits, n)
	}
	bm := manifest(t, dir, "backend-b.json")
	if bm.Tool != "mlperf-serve" || config(t, bm, "requests") <= 0 {
		t.Errorf("backend B manifest: tool %q, %s requests; want mlperf-serve and > 0", bm.Tool, bm.Config["requests"])
	}
	// Reuse across the fleet: the front answered more requests than both
	// backends together simulated cells, and its own cell cache answered
	// some of them.
	sims := manifest(t, dir, "backend-a.json").Simulations + bm.Simulations
	if requests <= sims || hits <= 0 {
		t.Errorf("front: %d requests, %d cell hits; fleet: %d simulations; want requests > simulations and hits > 0",
			requests, hits, sims)
	}
	t.Logf("front: %d requests, %d fanouts, %s failovers, %d cell hits; fleet ran %d simulations; backend B drained after %s requests",
		requests, fanouts, fm.Config["failovers"], hits, sims, bm.Config["requests"])
}
