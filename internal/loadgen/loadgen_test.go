package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mlperf/internal/serve"
	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
)

// newServer serves a fresh daemon over cfg (no tenant quota unless cfg
// names one), its handler passed through wrap when wrap is non-nil.
func newServer(t *testing.T, cfg serve.Config, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = sweep.NewEngine(4)
	}
	if cfg.TenantRate == 0 {
		cfg.TenantRate = -1
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// quantile is nearest-rank over sorted samples; the SLO gate silently
// degrades if any of these edges is off-by-one, so pin them all.
func TestQuantileEdgeCases(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	cases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"empty returns zero", nil, 0.99, 0},
		{"empty q=0", nil, 0, 0},
		{"single sample q=0", []float64{7}, 0, 7},
		{"single sample q=0.5", []float64{7}, 0.5, 7},
		{"single sample q=1", []float64{7}, 1.0, 7},
		{"q=0 clamps to first", []float64{1, 2, 3, 4}, 0, 1},
		{"q=1 is last, no overflow", []float64{1, 2, 3, 4}, 1.0, 4},
		{"q>1 clamps to last", []float64{1, 2, 3, 4}, 1.5, 4},
		{"median of even count is lower rank", []float64{1, 2, 3, 4}, 0.5, 2},
		{"median of odd count", []float64{1, 2, 3}, 0.5, 2},
		{"p99 of 100 is rank 99", hundred, 0.99, 99},
		{"p95 of 100 is rank 95", hundred, 0.95, 95},
		{"p50 of 100 is rank 50", hundred, 0.50, 50},
		{"p99 of 2 is the max", []float64{1, 2}, 0.99, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := quantile(tc.sorted, tc.q); got != tc.want {
				t.Fatalf("quantile(%v, %g) = %g, want %g", tc.sorted, tc.q, got, tc.want)
			}
		})
	}
}

// Streaming loadgen clients read /v1/sweep/stream frame by frame: every
// completed stream must deliver the full 4-cell hot grid, a streaming
// mix must not introduce client or server errors, and every answer is
// checked and right.
func TestLoadgenStreamingClients(t *testing.T) {
	ts := newServer(t, serve.Config{}, nil)

	rep, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:        ts.URL,
		Duration:       500 * time.Millisecond,
		Rate:           200,
		HotFraction:    1.0,
		StreamFraction: 1.0,
		RequestTimeout: 5 * time.Second,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Streamed == 0 {
		t.Fatal("StreamFraction=1.0 produced no streaming clients")
	}
	if rep.ClientErrors != 0 || rep.ServerErrors != 0 || rep.TransportErrors != 0 {
		t.Fatalf("errors under streaming mix: %d client, %d server, %d transport",
			rep.ClientErrors, rep.ServerErrors, rep.TransportErrors)
	}
	// The hot sweep grid is benchmarks=res50_tf,ncf_py x gpus=1,2: four
	// cells, so four record frames per completed stream.
	if want := 4 * rep.Streamed; rep.StreamRecords != want {
		t.Fatalf("%d record frames over %d streams, want %d (4 cells each)",
			rep.StreamRecords, rep.Streamed, want)
	}
	if rep.Streamed >= rep.OK {
		t.Fatalf("every 2xx counted as a stream (%d of %d) — simulate traffic vanished", rep.Streamed, rep.OK)
	}
	if rep.Checked != rep.OK || rep.Wrong != 0 {
		t.Fatalf("%d of %d answers checked, %d wrong; want every answer checked and none wrong", rep.Checked, rep.OK, rep.Wrong)
	}
}

// StreamFraction=0 must leave the query mix untouched: no request ever
// hits the streaming endpoint.
func TestLoadgenStreamFractionZeroStaysUnary(t *testing.T) {
	ts := newServer(t, serve.Config{}, nil)

	rep, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:        ts.URL,
		Duration:       300 * time.Millisecond,
		Rate:           100,
		HotFraction:    1.0,
		RequestTimeout: 5 * time.Second,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Streamed != 0 || rep.StreamRecords != 0 {
		t.Fatalf("default options produced %d streams (%d records)", rep.Streamed, rep.StreamRecords)
	}
	if rep.OK == 0 {
		t.Fatal("nothing admitted")
	}
	if rep.Checked != rep.OK || rep.Wrong != 0 {
		t.Fatalf("%d of %d answers checked, %d wrong", rep.Checked, rep.OK, rep.Wrong)
	}
}

// slowStore makes every cold lookup cost real time, so an open-loop
// stream overruns MaxInFlight=1 and the server must shed.
type slowStore struct{ d time.Duration }

func (s slowStore) Get(sweep.CellKey) (sweep.Record, bool, error) {
	time.Sleep(s.d)
	return sweep.Record{}, false, nil
}
func (s slowStore) Put(sweep.CellKey, sweep.Record) error { return nil }
func (s slowStore) Stats() sweep.TierStats                { return sweep.TierStats{} }

// End-to-end acceptance: the loadgen harness drives a small server past
// its admission limit. Overload must shed (429) and never 5xx, every
// admitted answer must be right, and the SLO gate must agree.
func TestLoadgenOverloadShedsCleanly(t *testing.T) {
	eng := sweep.NewEngine(2)
	eng.SetStore(slowStore{d: 10 * time.Millisecond})
	ts := newServer(t, serve.Config{Engine: eng, MaxInFlight: 1, MaxQueue: 2}, nil)

	rep, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:        ts.URL,
		Duration:       600 * time.Millisecond,
		Rate:           300,
		HotFraction:    0.5,
		RequestTimeout: 5 * time.Second,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent < 20 {
		t.Fatalf("open-loop generator only sent %d requests", rep.Sent)
	}
	if rep.ServerErrors != 0 {
		t.Fatalf("%d server errors under overload — overload must shed, never 5xx", rep.ServerErrors)
	}
	if rep.ClientErrors != 0 {
		t.Fatalf("%d client errors: the loadgen query mix is broken", rep.ClientErrors)
	}
	if rep.TransportErrors != 0 {
		t.Fatalf("%d transport errors against a local server", rep.TransportErrors)
	}
	if rep.Shed == 0 {
		t.Fatal("no shedding at 300 rps against MaxInFlight=1 — overload never happened")
	}
	if rep.OK == 0 {
		t.Fatal("nothing admitted at all")
	}
	if rep.Checked != rep.OK || rep.Wrong != 0 || rep.MissingRequestID != 0 {
		t.Fatalf("%d of %d answers checked, %d wrong, %d without X-Request-Id", rep.Checked, rep.OK, rep.Wrong, rep.MissingRequestID)
	}
	slo := SLO{MaxServerErrors: 0, MinShedRate: 0.01}
	if v := slo.Violations(rep); len(v) != 0 {
		t.Fatalf("SLO violations: %v", v)
	}
}

// alter wraps a daemon's handler: it records each response on path,
// passes the status, headers and body through edit, and writes what
// edit returns.
func alter(path string, edit func(h http.Header, body []byte) []byte) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != path {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if rec.Code == http.StatusOK {
				body = edit(rec.Header(), body)
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
}

// mustJSON re-encodes v as the daemon would (with a trailing newline).
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// editStream applies edit to the stream's record frames and re-encodes
// it, one frame a line.
func editStream(t *testing.T, body []byte, edit func([]serve.StreamFrame) []serve.StreamFrame) []byte {
	t.Helper()
	var frames []serve.StreamFrame
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var f serve.StreamFrame
		if err := json.Unmarshal(line, &f); err != nil {
			t.Errorf("stream line %q: %v", line, err)
			return body
		}
		frames = append(frames, f)
	}
	var out []byte
	for _, f := range edit(frames) {
		out = append(out, mustJSON(t, f)...)
	}
	return out
}

// Every gate fails against a daemon whose answers are altered on the
// way out: one field of one record changed on each compute endpoint, a
// stream that repeats an index, and responses without X-Request-Id.
func TestLoadgenFailsAlteredServer(t *testing.T) {
	cases := []struct {
		name   string
		path   string
		stream float64
		edit   func(t *testing.T, h http.Header, body []byte) []byte
		// wantWrong is false where the alteration is not in the body.
		wantWrong bool
	}{
		{"simulate record field", "/v1/simulate", 0, func(t *testing.T, _ http.Header, body []byte) []byte {
			var sr serve.SimulateResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Error(err)
			}
			sr.Record.StepMs *= 1.01
			return mustJSON(t, sr)
		}, true},
		{"sweep record field", "/v1/sweep", 0, func(t *testing.T, _ http.Header, body []byte) []byte {
			var sr serve.SweepResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Error(err)
			}
			sr.Records[len(sr.Records)-1].Throughput++
			return mustJSON(t, sr)
		}, true},
		{"stream record field", "/v1/sweep/stream", 1, func(t *testing.T, _ http.Header, body []byte) []byte {
			return editStream(t, body, func(fs []serve.StreamFrame) []serve.StreamFrame {
				fs[0].Record.GPUPct /= 2
				return fs
			})
		}, true},
		{"stream repeated index", "/v1/sweep/stream", 1, func(t *testing.T, _ http.Header, body []byte) []byte {
			return editStream(t, body, func(fs []serve.StreamFrame) []serve.StreamFrame {
				return append([]serve.StreamFrame{fs[0]}, fs...)
			})
		}, true},
		{"missing request id", "/v1/simulate", 0, func(_ *testing.T, h http.Header, body []byte) []byte {
			h.Del(telemetry.RequestIDHeader)
			return body
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := newServer(t, serve.Config{}, alter(tc.path, func(h http.Header, body []byte) []byte {
				return tc.edit(t, h, body)
			}))
			rep, err := RunLoad(context.Background(), LoadOptions{
				BaseURL:        ts.URL,
				Duration:       300 * time.Millisecond,
				Rate:           100,
				HotFraction:    1.0,
				StreamFraction: tc.stream,
				RequestTimeout: 5 * time.Second,
				Seed:           3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.ServerErrors != 0 || rep.ClientErrors != 0 || rep.TransportErrors != 0 {
				t.Fatalf("status-level errors %+v: the alteration must only show in the answers", rep)
			}
			if tc.wantWrong && rep.Wrong == 0 {
				t.Fatalf("%d answers checked, none wrong against an altered %s", rep.Checked, tc.path)
			}
			v := SLO{}.Violations(rep)
			if len(v) == 0 {
				t.Fatalf("SLO passed against an altered %s: %s", tc.path, RenderLoadReport(rep))
			}
			want := "wrong"
			if !tc.wantWrong {
				want = "X-Request-Id"
			}
			if !strings.Contains(strings.Join(v, "; "), want) {
				t.Fatalf("violations %q do not name %q", v, want)
			}
		})
	}
}
