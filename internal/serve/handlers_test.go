package serve

import (
	"net/http"
	"strconv"
	"strings"
	"testing"

	"mlperf/internal/telemetry"
)

// The quota shed path hands shedWith the token-bucket wait, which is
// routinely sub-second; on the wire it must still arrive as >= 1.
func TestShedPathsNeverSendRetryAfterZero(t *testing.T) {
	// Rate 10/s, burst 1: the second request sheds with a ~100ms hint.
	_, ts := newTestServer(t, Config{TenantRate: 10, TenantBurst: 1}, nil)
	if code, _, _ := get(t, ts.URL+"/v1/simulate?benchmark=res50_tf", "X-Tenant", "fast"); code != http.StatusOK {
		t.Fatalf("first request = %d, want 200", code)
	}
	code, _, hdr := get(t, ts.URL+"/v1/simulate?benchmark=res50_tf", "X-Tenant", "fast")
	if code != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", code)
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
	srv, ts := newTestServer(t, Config{TenantRate: 0.001, TenantBurst: 1}, nil)
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
		"schedule":     "/v1/schedule?n=0",
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
