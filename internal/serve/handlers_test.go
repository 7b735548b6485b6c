package serve

import (
	"net/http"
	"strconv"
	"testing"
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
