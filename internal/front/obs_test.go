package front

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mlperf/internal/serve"
	"mlperf/internal/telemetry"
)

var hexTraceID = regexp.MustCompile(`^[0-9a-f]{32}$`)

// obsCluster is a front over n backends where every process has its own
// deterministic-clock registry — the fixture for span-stitching tests.
type obsCluster struct {
	*cluster
	frontReg *telemetry.Registry
	backRegs []*telemetry.Registry
}

func newObsCluster(t *testing.T, n int) *obsCluster {
	t.Helper()
	cacheDir := t.TempDir()
	oc := &obsCluster{cluster: &cluster{}}
	cfg := Config{
		// One startup probe round, then silence: health polling must not
		// inject spans mid-test.
		HealthInterval: time.Hour,
		Telemetry:      telemetry.NewWithClock(nil),
	}
	oc.frontReg = cfg.Telemetry
	for i := 0; i < n; i++ {
		reg := telemetry.NewWithClock(nil)
		srv, err := serve.New(serve.Config{
			CacheDir:   cacheDir,
			TenantRate: -1,
			Telemetry:  reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		oc.backends = append(oc.backends, srv)
		oc.backTS = append(oc.backTS, ts)
		oc.backRegs = append(oc.backRegs, reg)
		cfg.Backends = append(cfg.Backends, ts.URL)
	}
	fr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fr.Close)
	oc.front = fr
	oc.frontTS = httptest.NewServer(fr.Handler())
	t.Cleanup(oc.frontTS.Close)
	// Wait out the startup probe round so its spans are a fixed prefix.
	awaitFirstProbe(t, fr)
	return oc
}

// exportDocs round-trips every process's spans through the Chrome trace
// writer/parser — exactly what `mlperf-telemetry stitch` does with the
// -trace-out files.
func (oc *obsCluster) exportDocs(t *testing.T) []telemetry.NamedTrace {
	t.Helper()
	docs := []telemetry.NamedTrace{{Name: "front"}}
	var buf bytes.Buffer
	if err := telemetry.WriteSpansChromeTrace(&buf, oc.frontReg.Tracer().Spans()); err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.ParseSpansChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	docs[0].Spans = spans
	for i, reg := range oc.backRegs {
		buf.Reset()
		if err := telemetry.WriteSpansChromeTrace(&buf, reg.Tracer().Spans()); err != nil {
			t.Fatal(err)
		}
		spans, err := telemetry.ParseSpansChromeTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, telemetry.NamedTrace{Name: "backend-" + string(rune('0'+i)), Spans: spans})
	}
	return docs
}

func TestFrontResponsesCarryRequestID(t *testing.T) {
	c := newCluster(t, 2, Config{})
	for _, p := range []string{
		"/v1/simulate?benchmark=res50_tf&gpus=2",
		"/v1/sweep?benchmarks=res50_tf&gpus=1,2",
		"/v1/stats",
		"/healthz",
		"/no/such/route", // the mux's 404
	} {
		_, _, hdr := get(t, c.frontTS.URL+p)
		if id := hdr.Get(telemetry.RequestIDHeader); !hexTraceID.MatchString(id) {
			t.Errorf("%s: X-Request-Id %q", p, id)
		}
	}
}

// The front propagates its trace to the backend, so the id the client
// got from the front is the id the backend logged and traced under.
func TestFrontPropagatesTraceToBackends(t *testing.T) {
	oc := newObsCluster(t, 2)
	_, _, hdr := get(t, oc.frontTS.URL+"/v1/sweep?benchmarks=res50_tf,ncf_py&gpus=1,2")
	id := hdr.Get(telemetry.RequestIDHeader)
	if !hexTraceID.MatchString(id) {
		t.Fatalf("front X-Request-Id: %q", id)
	}

	// Every backend that served a slice recorded a request span under
	// the same trace, remote-parented to one of the front's rpc spans.
	rpcWires := map[string]bool{}
	for _, sp := range oc.frontReg.Tracer().Spans() {
		if sp.Kind == telemetry.KindRPC && sp.Trace == id {
			rpcWires[sp.Wire] = true
		}
	}
	if len(rpcWires) == 0 {
		t.Fatal("front recorded no rpc spans for the trace")
	}
	backendReqs := 0
	for _, reg := range oc.backRegs {
		for _, sp := range reg.Tracer().Spans() {
			if sp.Kind == telemetry.KindRequest && sp.Trace == id {
				backendReqs++
				if !rpcWires[sp.RemoteParent] {
					t.Errorf("backend request span remote parent %q not among front rpc wires", sp.RemoteParent)
				}
			}
		}
	}
	if backendReqs == 0 {
		t.Fatal("no backend request spans carry the front's trace")
	}
}

// Acceptance scenario: a two-backend front run yields ONE stitched
// trace in which a single request's spans cross all three processes
// with correct parentage — and the same-seed run is deterministic:
// stable span count, every parent resolves, zero orphans.
func TestStitchedTraceDeterministicAcrossRuns(t *testing.T) {
	run := func() (*telemetry.StitchReport, string) {
		oc := newObsCluster(t, 2)
		code, _, hdr := get(t, oc.frontTS.URL+"/v1/sweep?benchmarks=res50_tf,ncf_py&gpus=1,2")
		if code != http.StatusOK {
			t.Fatalf("sweep: %d", code)
		}
		docs := oc.exportDocs(t)
		rep, err := telemetry.StitchSpans(docs)
		if err != nil {
			t.Fatal(err)
		}
		// The stitched Chrome trace must also be well-formed.
		var buf bytes.Buffer
		if _, err := telemetry.WriteStitchedChromeTrace(&buf, docs); err != nil {
			t.Fatal(err)
		}
		if _, err := telemetry.ValidateChromeTrace(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		return rep, hdr.Get(telemetry.RequestIDHeader)
	}

	rep1, id1 := run()
	if len(rep1.Orphans) != 0 {
		t.Fatalf("orphans: %v", rep1.Orphans)
	}
	if rep1.Processes != 3 {
		t.Fatalf("processes: %d", rep1.Processes)
	}
	// One client trace spanning the fleet: the front's request + rpc
	// spans and both backends' request spans share id1, and both hops
	// resolved (the 2x2 grid digest-partitions across both backends).
	if rep1.CrossLinks != 2 {
		t.Fatalf("cross links %d want 2 (one per backend slice)", rep1.CrossLinks)
	}
	if !hexTraceID.MatchString(id1) {
		t.Fatalf("trace id: %q", id1)
	}

	rep2, _ := run()
	if rep2.Spans != rep1.Spans {
		t.Fatalf("span count not deterministic: %d vs %d", rep1.Spans, rep2.Spans)
	}
	if rep2.CrossLinks != rep1.CrossLinks || len(rep2.Orphans) != 0 {
		t.Fatalf("stitch shape changed: %+v vs %+v", rep2, rep1)
	}
}

func TestFrontHealthTransitionsTimestamped(t *testing.T) {
	c := newCluster(t, 2, Config{HealthInterval: 20 * time.Millisecond})
	waitHealthy := func(i int, want bool) {
		deadline := time.Now().Add(10 * time.Second)
		for c.front.isHealthy(i) != want {
			if time.Now().After(deadline) {
				t.Fatalf("backend %d never reached healthy=%v", i, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitHealthy(0, true)
	before := time.Now().UTC()

	// Kill backend 0's listener: the next poll flips it down.
	c.backTS[0].Close()
	waitHealthy(0, false)

	st := c.front.Snapshot()
	b0 := st.Backends[0]
	if b0.Healthy || b0.Transitions == 0 {
		t.Fatalf("backend 0 status: %+v", b0)
	}
	ts, err := time.Parse(time.RFC3339Nano, b0.LastTransition)
	if err != nil {
		t.Fatalf("last_transition %q: %v", b0.LastTransition, err)
	}
	if ts.Before(before.Add(-time.Second)) || ts.After(time.Now().Add(time.Second)) {
		t.Fatalf("transition timestamp %v implausible (started %v)", ts, before)
	}
	if st.Backends[1].Transitions != 0 || st.Backends[1].LastTransition != "" {
		t.Fatalf("backend 1 should not have flipped: %+v", st.Backends[1])
	}

	// The manifest records the same per-backend fields.
	m := telemetry.NewManifest("mlperf-front")
	c.front.FillManifest(m)
	if m.Config["backend0_transitions"] == "0" || m.Config["backend0_transitions"] == "" {
		t.Fatalf("manifest transitions: %q", m.Config["backend0_transitions"])
	}
	if m.Config["backend0_last_transition"] != b0.LastTransition {
		t.Fatalf("manifest last_transition %q want %q",
			m.Config["backend0_last_transition"], b0.LastTransition)
	}
}

// A backend's health is one published value: a snapshot taken while
// the backend flaps never shows a down backend whose flip is not yet
// counted, and its transition count never goes back.
func TestFrontHealthSnapshotConsistentWhileFlapping(t *testing.T) {
	var probes atomic.Int64
	flappy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if probes.Add(1)%2 == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer flappy.Close()
	f, err := New(Config{Backends: []string{flappy.URL}, HealthInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const flips = 20
	var last int64
	deadline := time.Now().Add(10 * time.Second)
	for last < flips {
		if time.Now().After(deadline) {
			t.Fatalf("backend flipped %d times, want %d", last, flips)
		}
		b := f.Snapshot().Backends[0]
		if !b.Healthy && b.Transitions < 1 {
			t.Fatalf("down with no transition counted: %+v", b)
		}
		if b.Healthy != (b.Transitions%2 == 0) {
			t.Fatalf("verdict disagrees with its flip count: %+v", b)
		}
		if (b.Transitions > 0) != (b.LastTransition != "") {
			t.Fatalf("flip count and timestamp disagree: %+v", b)
		}
		if b.Transitions < last {
			t.Fatalf("transitions went back from %d to %d", last, b.Transitions)
		}
		last = b.Transitions
	}
}

func TestFrontShedNoBackendHasIdentityAndRetryAfter(t *testing.T) {
	c := newCluster(t, 1, Config{HealthInterval: 20 * time.Millisecond})
	c.backTS[0].Close()
	deadline := time.Now().Add(10 * time.Second)
	for c.front.isHealthy(0) {
		if time.Now().After(deadline) {
			t.Fatal("backend never went down")
		}
		time.Sleep(2 * time.Millisecond)
	}
	code, _, hdr := get(t, c.frontTS.URL+"/v1/simulate?benchmark=res50_tf&gpus=2")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("no-backend: %d", code)
	}
	if !hexTraceID.MatchString(hdr.Get(telemetry.RequestIDHeader)) {
		t.Errorf("no-backend shed missing X-Request-Id: %q", hdr.Get(telemetry.RequestIDHeader))
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("no-backend shed missing Retry-After")
	}
	// The request summary carries the typed shed reason, as a backend's
	// sheds do.
	_, body, _ := get(t, c.frontTS.URL+"/debug/requests")
	var entries []telemetry.FlightEntry
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("/debug/requests: %v\n%s", err, body)
	}
	id := hdr.Get(telemetry.RequestIDHeader)
	found := false
	for _, e := range entries {
		if e.TraceID == id {
			found = true
			if e.Status != http.StatusServiceUnavailable || e.Reason != "no_backend" {
				t.Errorf("no-backend flight entry: %+v", e)
			}
		}
	}
	if !found {
		t.Errorf("no-backend shed %s not in /debug/requests:\n%s", id, body)
	}
}

func TestFrontDebugFlightEndpoint(t *testing.T) {
	c := newCluster(t, 1, Config{})
	get(t, c.frontTS.URL+"/v1/simulate?benchmark=res50_tf&gpus=2")
	_, body, _ := get(t, c.frontTS.URL+"/debug/flight")
	d, err := telemetry.ParseFlightDump([]byte(body))
	if err != nil {
		t.Fatalf("front /debug/flight: %v\n%s", err, body)
	}
	if d.Tool != "mlperf-front" || len(d.Entries) == 0 {
		t.Fatalf("dump: %+v", d)
	}
}

func TestFrontLogsCarryRequestID(t *testing.T) {
	var buf bytes.Buffer
	c := newCluster(t, 1, Config{
		Logger: telemetry.NewLogger(&buf, telemetry.LevelDebug),
	})
	_, _, hdr := get(t, c.frontTS.URL+"/v1/simulate?benchmark=res50_tf&gpus=2")
	id := hdr.Get(telemetry.RequestIDHeader)
	found := false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("front log line not JSON: %v\n%s", err, line)
		}
		if m["trace_id"] == id && m["msg"] == "request" {
			found = true
		}
	}
	if !found {
		t.Fatalf("request id %s not in front logs:\n%s", id, buf.String())
	}
}
