package shard

import (
	"fmt"
	"testing"
)

// digests fabricates n deterministic distinct keys.
func digests(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("digest-%04d", i)
	}
	return out
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	keys := digests(2000)
	a := NewRing(4, 0)
	b := NewRing(4, 0)
	counts := make([]int, 4)
	for _, k := range keys {
		o := a.Owner(k)
		if o != b.Owner(k) {
			t.Fatalf("two equal rings disagree on %q", k)
		}
		counts[o]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Errorf("shard %d received no keys: %v", s, counts)
		}
		if c > len(keys)*3/4 {
			t.Errorf("shard %d owns %d of %d keys — partition degenerate: %v", s, c, len(keys), counts)
		}
	}
	if a.Shards() != 4 {
		t.Errorf("Shards() = %d, want 4", a.Shards())
	}
}

// TestRingConsistency is the consistent-hashing property: growing the
// shard count remaps a minority of keys, not everything.
func TestRingConsistency(t *testing.T) {
	keys := digests(2000)
	four := NewRing(4, 0)
	five := NewRing(5, 0)
	moved := 0
	for _, k := range keys {
		if four.Owner(k) != five.Owner(k) {
			moved++
		}
	}
	// Theory says ~1/5 move; flag anything past half as mod-hashing in
	// disguise.
	if moved == 0 || moved > len(keys)/2 {
		t.Errorf("%d of %d keys moved going 4→5 shards, want a small nonzero fraction", moved, len(keys))
	}
}
