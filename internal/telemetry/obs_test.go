package telemetry

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// ---- trace context ----

func TestTraceContextRoundTrip(t *testing.T) {
	tc := NewTraceContext()
	if !tc.Valid() {
		t.Fatalf("fresh context invalid: %+v", tc)
	}
	if len(tc.TraceID) != 32 || len(tc.SpanID) != 16 {
		t.Fatalf("id lengths: trace %d span %d", len(tc.TraceID), len(tc.SpanID))
	}
	got, ok := ParseTraceparent(tc.Traceparent())
	if !ok {
		t.Fatalf("ParseTraceparent rejected %q", tc.Traceparent())
	}
	if got != tc {
		t.Fatalf("round trip changed context: %+v != %+v", got, tc)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-short-abc-01",
		"00-XYZ45678901234567890123456789012-1234567890123456-01",
		"99-12345678901234567890123456789012-1234567890123456-01",
		"00-00000000000000000000000000000000-1234567890123456-01", // all-zero trace
		"00-12345678901234567890123456789012-0000000000000000-01", // all-zero span
		"00-12345678901234567890123456789012-1234567890123456",    // missing flags
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent accepted %q", s)
		}
	}
}

func TestTraceFromRequestAdoptsIncoming(t *testing.T) {
	up := NewTraceContext()
	h := http.Header{}
	h.Set(TraceparentHeader, up.Traceparent())
	tc, remoteParent := TraceFromRequest(h)
	if tc.TraceID != up.TraceID {
		t.Fatalf("trace id not adopted: got %s want %s", tc.TraceID, up.TraceID)
	}
	if remoteParent != up.SpanID {
		t.Fatalf("remote parent: got %s want %s", remoteParent, up.SpanID)
	}
	if tc.SpanID == up.SpanID {
		t.Fatal("server span id must be fresh, not the caller's")
	}

	// No header: a fresh trace, no remote parent.
	tc2, rp2 := TraceFromRequest(http.Header{})
	if !tc2.Valid() || rp2 != "" {
		t.Fatalf("fresh ingress: %+v remote %q", tc2, rp2)
	}
}

func TestChildKeepsTraceChangesSpan(t *testing.T) {
	tc := NewTraceContext()
	child := tc.Child()
	if child.TraceID != tc.TraceID {
		t.Fatal("child changed trace id")
	}
	if child.SpanID == tc.SpanID {
		t.Fatal("child kept parent span id")
	}
}

func TestObsContextPlumbing(t *testing.T) {
	tc := NewTraceContext()
	src := ContextWithTrace(t.Context(), tc)
	src = ContextWithSpan(src, SpanID(7))

	// Identity survives a derived context, such as a request's deadline
	// context.
	dst, cancel := context.WithTimeout(src, time.Minute)
	defer cancel()
	got, ok := TraceFromContext(dst)
	if !ok || got != tc {
		t.Fatalf("trace lost: %+v ok=%v", got, ok)
	}
	if SpanFromContext(dst) != SpanID(7) {
		t.Fatalf("span lost: %d", SpanFromContext(dst))
	}
}

// ---- logger ----

// TestLoggerLinesAreValidJSON is the property test: whatever fields a
// call site throws at the logger — duplicates, reserved keys, values
// JSON can't encode — every emitted line is one valid JSON object with
// ts, level, msg and trace_id present, in that order.
func TestLoggerLinesAreValidJSON(t *testing.T) {
	var buf bytes.Buffer
	clock := func() time.Time { return time.Unix(1700000000, 123456789).UTC() }
	log := NewLogger(&buf, LevelDebug).WithClock(clock).With(F("tool", "test"))

	cases := [][]Field{
		nil,
		{F("k", "v")},
		{F("k", 1), F("k", 2)}, // dup: last wins
		{F("ts", "spoof"), F("level", "spoof"), F("msg", "spoof")}, // reserved: dropped
		{F("trace_id", "abc123")},
		{F("f", 1.5), F("b", true), F("list", []int{1, 2})},
		{F("fn", func() {})}, // unmarshalable: degrades to Sprint
		{F("", "empty key dropped")},
		{F("nested", map[string]any{"a": 1})},
	}
	for i, fields := range cases {
		log.Log(LevelInfo, fmt.Sprintf("case %d", i), fields...)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(cases) {
		t.Fatalf("got %d lines want %d", len(lines), len(cases))
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, line)
		}
		for _, k := range []string{"ts", "level", "msg", "trace_id"} {
			if _, ok := m[k]; !ok {
				t.Errorf("line %d missing mandatory %q: %s", i, k, line)
			}
		}
		if !strings.HasPrefix(line, `{"ts":"2023-11-14T22:13:20.123456789Z","level":"info","msg":`) {
			t.Errorf("line %d mandatory fields not first/ordered: %s", i, line)
		}
	}

	// Spot-check semantics: dup key last-wins, reserved keys not duplicated.
	var dup map[string]any
	_ = json.Unmarshal([]byte(lines[2]), &dup)
	if dup["k"] != float64(2) {
		t.Errorf("dup key: got %v want 2", dup["k"])
	}
	var spoof map[string]any
	_ = json.Unmarshal([]byte(lines[3]), &spoof)
	if spoof["msg"] != "case 3" {
		t.Errorf("reserved msg overridden: %v", spoof["msg"])
	}
	var tid map[string]any
	_ = json.Unmarshal([]byte(lines[4]), &tid)
	if tid["trace_id"] != "abc123" {
		t.Errorf("trace_id not folded into slot: %v", tid["trace_id"])
	}
}

func TestLoggerDeterministicUnderInjectedClock(t *testing.T) {
	emit := func() string {
		var buf bytes.Buffer
		clock := func() time.Time { return time.Unix(42, 0).UTC() }
		log := NewLogger(&buf, LevelInfo).WithClock(clock)
		log.Info("one", F("a", 1))
		log.Warn("two", F("trace_id", "t1"), F("b", "x"))
		return buf.String()
	}
	if a, b := emit(), emit(); a != b {
		t.Fatalf("same calls, different bytes:\n%s\n%s", a, b)
	}
}

func TestLoggerNilAndLevelGate(t *testing.T) {
	var nilLog *Logger
	nilLog.Info("must not panic", F("k", "v"))
	nilLog.With(F("a", 1)).Error("still fine")
	if nilLog.Enabled(LevelError) {
		t.Fatal("nil logger claims enabled")
	}
	if NewLogger(nil, LevelInfo) != nil {
		t.Fatal("nil writer must yield nil logger")
	}

	var buf bytes.Buffer
	log := NewLogger(&buf, LevelWarn)
	log.Debug("no")
	log.Info("no")
	log.Warn("yes")
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Fatalf("level gate leaked: %d lines\n%s", n, buf.String())
	}
}

func TestLoggerConcurrentLinesDoNotInterleave(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, LevelInfo)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sub := log.With(F("goroutine", g))
			for i := 0; i < 50; i++ {
				sub.Info("tick", F("i", i))
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines want 400", len(lines))
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d interleaved/corrupt: %s", i, line)
		}
	}
}

// ---- flight recorder ----

func TestFlightRingWraparound(t *testing.T) {
	fr := NewFlightRecorder(4)
	if fr.Cap() != 4 {
		t.Fatalf("cap %d want 4", fr.Cap())
	}
	for i := 0; i < 10; i++ {
		if fr.Len() != min(i, 4) {
			t.Fatalf("after %d records Len %d, want %d", i, fr.Len(), min(i, 4))
		}
		fr.Record(FlightEntry{Kind: "request", Path: fmt.Sprintf("/r/%d", i)})
	}
	if fr.Len() != 4 {
		t.Fatalf("full ring Len %d, want 4", fr.Len())
	}
	snap := fr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot %d entries want 4", len(snap))
	}
	for i, e := range snap {
		want := fmt.Sprintf("/r/%d", 6+i)
		if e.Path != want {
			t.Errorf("entry %d: path %s want %s", i, e.Path, want)
		}
		if i > 0 && snap[i].Seq <= snap[i-1].Seq {
			t.Errorf("seq not ascending at %d", i)
		}
	}
}

func TestFlightSizeRoundsToPowerOfTwo(t *testing.T) {
	fr := NewFlightRecorder(5)
	if c := fr.Cap(); c != 8 {
		t.Fatalf("cap %d want 8", c)
	}
	if c := NewFlightRecorder(0).Cap(); c != DefaultFlightSize {
		t.Fatalf("default cap %d want %d", c, DefaultFlightSize)
	}
}

func TestFlightNilSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(FlightEntry{Kind: "request"})
	fr.Event("msg", "")
	if got := fr.Snapshot(); got != nil {
		t.Fatalf("nil snapshot: %v", got)
	}
	if fr.Cap() != 0 || fr.Len() != 0 {
		t.Fatal("nil cap or len")
	}
}

func TestFlightRequestsFiltersEvents(t *testing.T) {
	fr := NewFlightRecorder(8)
	fr.Record(FlightEntry{Kind: "request", Path: "/a"})
	fr.Event("drain begin", "")
	fr.Record(FlightEntry{Kind: "request", Path: "/b"})
	reqs := fr.Requests()
	if len(reqs) != 2 || reqs[0].Path != "/a" || reqs[1].Path != "/b" {
		t.Fatalf("requests: %+v", reqs)
	}
}

func TestFlightDumpRoundTrip(t *testing.T) {
	fr := NewFlightRecorder(8).WithClock(func() time.Time { return time.Unix(100, 0).UTC() })
	fr.Record(FlightEntry{Kind: "request", Method: "GET", Path: "/v1/simulate", Status: 200, TraceID: "t1"})
	fr.Event("drain begin", "")
	var buf bytes.Buffer
	if err := fr.WriteDump(&buf, "mlperf-serve", "test"); err != nil {
		t.Fatal(err)
	}
	d, err := ParseFlightDump(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseFlightDump: %v\n%s", err, buf.String())
	}
	if d.Tool != "mlperf-serve" || d.Reason != "test" || len(d.Entries) != 2 {
		t.Fatalf("dump: %+v", d)
	}
}

// A recorder dumps to its target only once one is set, and the file
// names the target's tool and the dump's reason.
func TestFlightDumpToTarget(t *testing.T) {
	fr := NewFlightRecorder(8)
	fr.Event("drain begin", "")
	if path, err := fr.DumpToTarget("drain"); path != "" || err != nil {
		t.Fatalf("no target: DumpToTarget = %q, %v; want \"\", nil", path, err)
	}
	want := filepath.Join(t.TempDir(), "flight.json")
	fr.SetDumpTarget(want, "mlperf-front")
	path, err := fr.DumpToTarget("sigquit")
	if err != nil || path != want {
		t.Fatalf("DumpToTarget = %q, %v; want %q, nil", path, err, want)
	}
	data, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseFlightDump(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tool != "mlperf-front" || d.Reason != "sigquit" || len(d.Entries) != 1 {
		t.Fatalf("dump: %+v", d)
	}
	var nilRec *FlightRecorder
	nilRec.SetDumpTarget(want, "x")
	if path, err := nilRec.DumpToTarget("panic"); path != "" || err != nil {
		t.Fatalf("nil recorder: DumpToTarget = %q, %v", path, err)
	}
}

// Concurrent dumps to one target all land: a panic dump racing a
// SIGQUIT or drain dump gets its own temp file, so no call fails and
// the surviving file is one whole dump.
func TestConcurrentDumpsToOneTarget(t *testing.T) {
	const rounds, dumpers = 200, 4
	fr := NewFlightRecorder(8)
	fr.Event("drain begin", "")
	target := filepath.Join(t.TempDir(), "flight.json")
	fr.SetDumpTarget(target, "mlperf-serve")
	failed, first := 0, error(nil)
	for round := 0; round < rounds; round++ {
		errs := make(chan error, dumpers)
		for g := 0; g < dumpers; g++ {
			go func() {
				_, err := fr.DumpToTarget("panic")
				errs <- err
			}()
		}
		for g := 0; g < dumpers; g++ {
			if err := <-errs; err != nil {
				failed++
				first = cmp.Or(first, err)
			}
		}
		data, err := os.ReadFile(target)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseFlightDump(data); err != nil {
			t.Fatalf("round %d: surviving dump does not parse: %v", round, err)
		}
	}
	if failed > 0 {
		t.Fatalf("%d of %d concurrent dumps failed, the first with: %v", failed, rounds*dumpers, first)
	}
}

func TestParseFlightDumpRejects(t *testing.T) {
	for name, data := range map[string]string{
		"not json":      "nope",
		"unknown field": `{"tool":"x","reason":"r","cap":4,"entries":[],"bogus":1}`,
		"no tool":       `{"reason":"r","cap":4,"entries":[]}`,
		"kindless":      `{"tool":"x","reason":"r","cap":4,"entries":[{"seq":1}]}`,
		"seq disorder":  `{"tool":"x","reason":"r","cap":4,"entries":[{"seq":2,"kind":"request"},{"seq":1,"kind":"request"}]}`,
	} {
		if _, err := ParseFlightDump([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFlightConcurrentRecord(t *testing.T) {
	fr := NewFlightRecorder(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fr.Record(FlightEntry{Kind: "request", Path: "/x"})
				if i%10 == 0 {
					fr.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	snap := fr.Snapshot()
	if len(snap) == 0 || len(snap) > 16 {
		t.Fatalf("snapshot size %d", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq <= snap[i-1].Seq {
			t.Fatalf("seq disorder at %d", i)
		}
	}
}

// ---- stitching ----

// twoProcessDocs builds the canonical hop: process A's request span
// with an rpc child whose wire ID process B's request span names as
// its remote parent.
func twoProcessDocs() []NamedTrace {
	const trace = "0123456789abcdef0123456789abcdef"
	a := []Span{
		{ID: 1, Kind: KindRequest, Name: "GET /v1/sweep", Start: 0, End: 10,
			Trace: trace, Wire: "aaaaaaaaaaaaaaaa"},
		{ID: 2, Parent: 1, Kind: KindRPC, Name: "POST /v1/sweep", Start: 1, End: 9,
			Trace: trace, Wire: "bbbbbbbbbbbbbbbb"},
	}
	b := []Span{
		{ID: 1, Kind: KindRequest, Name: "POST /v1/sweep", Start: 2, End: 8,
			Trace: trace, Wire: "cccccccccccccccc", RemoteParent: "bbbbbbbbbbbbbbbb"},
		{ID: 2, Parent: 1, Kind: KindRun, Name: "sweep 4 cells", Start: 3, End: 7},
	}
	return []NamedTrace{{Name: "front", Spans: a}, {Name: "backend-0", Spans: b}}
}

func TestStitchSpansResolvesCrossLinks(t *testing.T) {
	rep, err := StitchSpans(twoProcessDocs())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Processes != 2 || rep.Spans != 4 || rep.Traces != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.CrossLinks != 1 || len(rep.Orphans) != 0 {
		t.Fatalf("links/orphans: %+v", rep)
	}
}

func TestStitchSpansReportsOrphans(t *testing.T) {
	docs := twoProcessDocs()
	docs[1].Spans[0].RemoteParent = "deaddeaddeaddead" // nobody exported this
	rep, err := StitchSpans(docs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CrossLinks != 0 || len(rep.Orphans) != 1 {
		t.Fatalf("want 1 orphan: %+v", rep)
	}
	if !strings.Contains(rep.Orphans[0], "deaddeaddeaddead") {
		t.Fatalf("orphan message: %s", rep.Orphans[0])
	}
}

func TestStitchRejectsDuplicateWireIDs(t *testing.T) {
	docs := twoProcessDocs()
	docs[1].Spans[0].Wire = "aaaaaaaaaaaaaaaa" // already claimed by front
	if _, err := StitchSpans(docs); err == nil {
		t.Fatal("duplicate wire id accepted")
	}
}

func TestStitchRejectsBrokenForest(t *testing.T) {
	docs := twoProcessDocs()
	docs[0].Spans[1].Parent = 99 // unknown local parent
	if _, err := StitchSpans(docs); err == nil {
		t.Fatal("broken parentage accepted")
	}
}

func TestWriteStitchedChromeTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	rep, err := WriteStitchedChromeTrace(&buf, twoProcessDocs())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CrossLinks != 1 {
		t.Fatalf("report: %+v", rep)
	}
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("stitched trace invalid: %v", err)
	}
	// 2 process_name + 4 thread lanes (request+rpc, request+run) +
	// 4 spans + 2 flow events.
	if n != 12 {
		t.Fatalf("event count %d want 12", n)
	}
	out := buf.String()
	for _, want := range []string{`"front"`, `"backend-0"`, `"ph":"s"`, `"ph":"f"`, `"bp":"e"`} {
		if !strings.Contains(out, want) {
			t.Errorf("stitched trace missing %s", want)
		}
	}
}

func TestSpansChromeTraceRoundTrip(t *testing.T) {
	tr := NewTracer(nil)
	root := tr.StartSpan(SpanStart{Kind: KindRequest, Name: "GET /x",
		Trace: "0123456789abcdef0123456789abcdef", Wire: "1111111111111111"})
	child := tr.StartSpan(SpanStart{Kind: KindRPC, Name: "POST /y", Parent: root,
		Trace: "0123456789abcdef0123456789abcdef", Wire: "2222222222222222",
		Attrs: []string{"backend=1"}})
	tr.End(child)
	tr.End(root)

	var buf bytes.Buffer
	if err := WriteSpansChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSpansChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Spans()
	if len(got) != len(want) {
		t.Fatalf("got %d spans want %d", len(got), len(want))
	}
	for i := range want {
		// Timestamps survive microsecond quantization here because the
		// tick clock yields whole numbers.
		if got[i].ID != want[i].ID || got[i].Parent != want[i].Parent ||
			got[i].Kind != want[i].Kind || got[i].Name != want[i].Name ||
			got[i].Trace != want[i].Trace || got[i].Wire != want[i].Wire ||
			got[i].RemoteParent != want[i].RemoteParent ||
			strings.Join(got[i].Attrs, ",") != strings.Join(want[i].Attrs, ",") {
			t.Errorf("span %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}
