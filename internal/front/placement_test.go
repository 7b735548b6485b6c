package front

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// placementFronts builds two fronts over the same n always-ready
// backends, each past its first health probe and polling no more.
func placementFronts(t *testing.T, n int) (*Front, *Front) {
	t.Helper()
	var urls []string
	for i := 0; i < n; i++ {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	var fronts [2]*Front
	for i := range fronts {
		f, err := New(Config{Backends: urls, HealthInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Close)
		awaitFirstProbe(t, f)
		fronts[i] = f
	}
	return fronts[0], fronts[1]
}

// placementDigests fabricates n distinct cell-digest-shaped keys.
func placementDigests(n int) []string {
	out := make([]string, n)
	for i := range out {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

// Two fronts over one backend list place every key alike, and each
// backend owns between 1/(2N) and 3/(2N) of the keys.
func TestPlacementDeterministicAndBalanced(t *testing.T) {
	keys := placementDigests(2000)
	for _, n := range []int{2, 3, 4} {
		a, b := placementFronts(t, n)
		counts := make([]int, n)
		for _, k := range keys {
			o := a.owner(k)
			if o != b.owner(k) {
				t.Fatalf("N=%d: two fronts disagree on the owner of %s", n, k[:8])
			}
			counts[o]++
		}
		for i, c := range counts {
			if lo, hi := len(keys)/(2*n), 3*len(keys)/(2*n); c < lo || c > hi {
				t.Errorf("N=%d: backend %d owns %d of %d keys, want %d..%d: %v", n, i, c, len(keys), lo, hi, counts)
			}
		}
	}
}

// order is the rotation from the owner, healthy backends first and the
// unhealthy ones after them, each group in rotation order.
func TestOrderIsOwnerRotationUnhealthyLast(t *testing.T) {
	const n = 4
	f, _ := placementFronts(t, n)
	for _, k := range placementDigests(20) {
		o := f.owner(k)
		for mask := 0; mask < 1<<n; mask++ { // bit i set = backend i down
			var up, down []int
			for s := 0; s < n; s++ {
				i := (o + s) % n
				f.health[i].Store(&health{healthy: mask&(1<<i) == 0})
				if mask&(1<<i) == 0 {
					up = append(up, i)
				} else {
					down = append(down, i)
				}
			}
			if got, want := f.order(k), append(up, down...); !reflect.DeepEqual(got, want) {
				t.Fatalf("key %s owner %d down-mask %04b: order %v, want %v", k[:8], o, mask, got, want)
			}
		}
	}
}
