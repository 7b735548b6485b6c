package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlperf/internal/telemetry"
)

// The quota shed path hands shedWith the token-bucket wait, which is
// routinely sub-second; on the wire it must still arrive as >= 1.
func TestShedPathsNeverSendRetryAfterZero(t *testing.T) {
	// Rate 2/s, burst 4: the fifth request sheds with a ~500ms hint.
	_, ts := newTestServer(t, Config{TenantRate: 2}, nil)
	for i := 0; i < 4; i++ {
		if code, _, _ := get(t, ts.URL+"/v1/simulate?benchmark=res50_tf", "X-Tenant", "fast"); code != http.StatusOK {
			t.Fatalf("burst request %d = %d, want 200", i, code)
		}
	}
	code, _, hdr := get(t, ts.URL+"/v1/simulate?benchmark=res50_tf", "X-Tenant", "fast")
	if code != http.StatusTooManyRequests {
		t.Fatalf("fifth request = %d, want 429", code)
	}
	ra := hdr.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer", ra)
	}
	if secs < 1 {
		t.Fatalf("Retry-After %d on the quota shed path: clients told to retry immediately during overload", secs)
	}
}

// A cell no simulation can honour is a 400 on every cell endpoint, and
// is refused before admission: with a one-request tenant budget, the
// valid request after the refusals is still admitted.
func TestImpossibleCellsAre400(t *testing.T) {
	srv, ts := newTestServer(t, Config{TenantRate: 0.001}, nil) // a burst of 1
	for _, p := range []string{
		"/v1/simulate?benchmark=res50_tf&gpus=64",
		"/v1/simulate?benchmark=res50_tf&gpus=0",
		"/v1/simulate?benchmark=res50_tf&system=c4140k&gpus=8",
		"/v1/sweep?benchmarks=res50_tf&gpus=0,1",
		"/v1/sweep/stream?benchmarks=res50_tf&gpus=1,-2",
	} {
		if code, body, _ := get(t, ts.URL+p, "X-Tenant", "t"); code != http.StatusBadRequest {
			t.Errorf("%s = %d (%s), want 400", p, code, body)
		}
	}
	for _, body := range []string{
		`{"cells":[{"benchmark":"res50_tf","gpus":64}]}`,
		`{"cells":[{"benchmark":"res50_tf","gpus":-1}]}`,
		`{"cells":[{"benchmark":"res50_tf","batch":-1}]}`,
	} {
		for _, p := range []string{"/v1/sweep", "/v1/sweep/stream"} {
			if code, _, _ := post(t, ts.URL+p, body, "X-Tenant", "t"); code != http.StatusBadRequest {
				t.Errorf("POST %s %s = %d, want 400", p, body, code)
			}
		}
	}
	if code, body, _ := get(t, ts.URL+"/v1/simulate?benchmark=res50_tf&gpus=8", "X-Tenant", "t"); code != http.StatusOK {
		t.Fatalf("valid cell after the refusals = %d (%s): a refusal took the tenant's slot", code, body)
	}
	if st := srv.Snapshot(); st.Streams != 0 || st.Cache.Simulations != 1 {
		t.Fatalf("refused cells reached the engine: %+v", st)
	}
}

// A request whose parameters do not parse is refused with 400 on every
// compute endpoint, and every such refusal is counted: once in
// Stats.Requests and once under its endpoint's code="400" counter.
func TestMalformedRequestsCounted(t *testing.T) {
	srv, ts := newTestServer(t, Config{}, nil)
	cases := map[string]string{
		"simulate":     "/v1/simulate?benchmark=nope",
		"sweep":        "/v1/sweep?benchmarks=nope",
		"sweep_stream": "/v1/sweep/stream?benchmarks=nope",
	}
	for endpoint, p := range cases {
		if code, body, _ := get(t, ts.URL+p); code != http.StatusBadRequest {
			t.Errorf("%s = %d (%s), want 400", p, code, strings.TrimSpace(body))
		}
		got := srv.Registry().Counter(MetricRequests,
			telemetry.Label{Key: "endpoint", Value: endpoint},
			telemetry.Label{Key: "code", Value: "400"}).Value()
		if got != 1 {
			t.Errorf("%s: %s{endpoint=%q,code=\"400\"} = %d, want 1", p, MetricRequests, endpoint, got)
		}
	}
	if st := srv.Snapshot(); st.Requests != int64(len(cases)) || st.Cache.Simulations != 0 {
		t.Fatalf("stats requests = %d, simulations = %d; want %d and 0",
			st.Requests, st.Cache.Simulations, len(cases))
	}
}

// A deadline that is not a positive finite number of seconds is a 400
// on every compute endpoint, never a shed: NaN and inf once parsed into
// negative durations whose contexts were already expired at admission.
// A finite deadline too long for a time.Duration is capped, not refused.
func TestNonFiniteTimeoutIs400(t *testing.T) {
	srv, ts := newTestServer(t, Config{}, nil)
	paths := []string{
		"/v1/simulate?benchmark=res50_tf&gpus=2",
		"/v1/sweep?benchmarks=res50_tf&gpus=1,2",
		"/v1/sweep/stream?benchmarks=res50_tf&gpus=1,2",
	}
	for _, p := range paths {
		for _, bad := range []string{"NaN", "inf"} {
			code, body, _ := get(t, ts.URL+p+"&timeout="+bad)
			if code != http.StatusBadRequest || !strings.Contains(body, "bad timeout") {
				t.Errorf("%s timeout=%s: %d (%s), want 400", p, bad, code, strings.TrimSpace(body))
			}
			if code, _, _ := get(t, ts.URL+p, "Request-Timeout", bad); code != http.StatusBadRequest {
				t.Errorf("%s Request-Timeout: %s: %d, want 400", p, bad, code)
			}
		}
	}
	if st := srv.Snapshot(); st.Shed != 0 || st.Cache.Simulations != 0 {
		t.Fatalf("malformed deadlines were admitted or shed: %+v", st)
	}
	for _, p := range paths {
		code, body, _ := get(t, ts.URL+p+"&timeout=1e10")
		compact := strings.Join(strings.Fields(body), "")
		if code != http.StatusOK || strings.Contains(compact, `"partial":true`) || strings.Contains(compact, `"deadline"`) {
			t.Errorf("%s timeout=1e10: %d (%s), want a complete 200", p, code, strings.TrimSpace(body))
		}
	}
}

// A grid over the cell budget is a 413 on both sweep endpoints before
// admission: counted in Stats.Requests and under code="413", never as a
// shed, and never simulated — whatever its deadline says.
func TestOversizedGridIs413(t *testing.T) {
	srv, ts := newTestServer(t, Config{}, nil)
	body := `{"cells":[` + strings.Repeat(`{"benchmark":"res50_tf"},`, MaxRequestCells) + `{"benchmark":"res50_tf"}]}`
	want := fmt.Sprintf("request costs %d cells, server admits at most %d", MaxRequestCells+1, MaxRequestCells)
	for _, endpoint := range []string{"sweep", "sweep_stream"} {
		p := "/v1/" + strings.ReplaceAll(endpoint, "_", "/")
		for _, hdr := range [][]string{nil, {"Request-Timeout", "soon"}} {
			code, got, _ := post(t, ts.URL+p, body, hdr...)
			if code != http.StatusRequestEntityTooLarge || !strings.Contains(got, want) {
				t.Errorf("POST %s %v: %d (%s), want 413 %q", p, hdr, code, strings.TrimSpace(got), want)
			}
		}
		if got := srv.Registry().Counter(MetricRequests,
			telemetry.Label{Key: "endpoint", Value: endpoint},
			telemetry.Label{Key: "code", Value: "413"}).Value(); got != 2 {
			t.Errorf("%s{endpoint=%q,code=\"413\"} = %d, want 2", MetricRequests, endpoint, got)
		}
	}
	st := srv.Snapshot()
	if st.Requests != 4 || st.Shed != 0 || st.Streams != 0 || st.Cache.Simulations != 0 {
		t.Fatalf("oversized grids: %+v, want 4 requests, nothing shed, streamed or simulated", st)
	}
	for _, m := range srv.Registry().Snapshot() {
		if m.Name == MetricShed {
			t.Errorf("oversized grid counted as a shed: %+v", m)
		}
	}
}

// Two bad cell parameters always give the same 400, naming gpus.
func TestSimulateBadParamsNameGPUsFirst(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	msgs := map[string]bool{}
	for i := 0; i < 50; i++ {
		code, body, _ := get(t, ts.URL+"/v1/simulate?benchmark=res50_tf&gpus=x&batch=y")
		if code != http.StatusBadRequest {
			t.Fatalf("request %d = %d, want 400", i, code)
		}
		msgs[strings.TrimSpace(body)] = true
	}
	if len(msgs) != 1 {
		t.Fatalf("%d different messages for one request: %v", len(msgs), msgs)
	}
	for m := range msgs {
		if !strings.Contains(m, `bad gpus \"x\"`) {
			t.Fatalf("message %s does not name gpus", m)
		}
	}
}

// A request's deadline is 30s when it names none and never more than
// 5 minutes.
func TestRequestTimeoutDefaultAndCap(t *testing.T) {
	for _, c := range []struct {
		query string
		want  time.Duration
	}{
		{"", 30 * time.Second},
		{"?timeout=2.5", 2500 * time.Millisecond},
		{"?timeout=300", 5 * time.Minute},
		{"?timeout=301", 5 * time.Minute},
		{"?timeout=1e300", 5 * time.Minute},
	} {
		got, err := RequestTimeout(httptest.NewRequest(http.MethodGet, "/v1/sweep"+c.query, nil))
		if err != nil || got != c.want {
			t.Errorf("timeout %q = %v, %v; want %v", c.query, got, err, c.want)
		}
	}
}
