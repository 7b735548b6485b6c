package memo

import (
	"fmt"
	"testing"
)

// The map never holds more than its limit, a key touched in the current
// generation survives the next rotation, and an untouched one is gone
// after two.
func TestBoundedKeepsTouched(t *testing.T) {
	const gen = 64
	m := New[string, int](2 * gen)
	key := func(i int) string { return fmt.Sprintf("d%06d", i) }
	for i := 0; i < gen; i++ {
		m.Put(key(i), i)
	}
	m.Put(key(gen), 0) // rotates: generation 1 is now old
	if v, ok := m.Get(key(7)); !ok || v != 7 {
		t.Fatalf("key 7 lost after one rotation: %v %v", v, ok)
	}
	for i := gen + 1; i < 3*gen; i++ {
		m.Put(key(i), i)
		if m.Len() > 2*gen {
			t.Fatalf("map holds %d entries, bound %d", m.Len(), 2*gen)
		}
		if i == 2*gen-1 {
			// key 7 was touched in the generation now filling; it must
			// survive into the next old generation.
			if _, ok := m.Get(key(7)); !ok {
				t.Fatal("touched key 7 evicted")
			}
		}
	}
	if _, ok := m.Get(key(8)); ok {
		t.Fatal("untouched key 8 from generation 1 still held after two rotations")
	}
	if _, ok := m.Get(key(7)); !ok {
		t.Fatal("touched key 7 evicted")
	}
}

// Dropped counts exactly the entries rotations discard: every key is
// held once, so puts of distinct keys split into held and dropped.
func TestDroppedCountsRotationsNotDeletes(t *testing.T) {
	const limit = 16
	m := New[int, int](limit)
	for i := 0; i < 5*limit; i++ {
		m.Put(i, i)
		m.Get(i / 2) // promotions must not double-count a key
	}
	if got := int64(m.Len()) + m.Dropped(); got != 5*limit {
		t.Fatalf("held %d + dropped %d = %d, want %d distinct puts", m.Len(), m.Dropped(), got, 5*limit)
	}
	before := m.Dropped()
	last := 5*limit - 1
	if !m.Delete(last) || m.Delete(last) {
		t.Fatal("Delete must report a held key once")
	}
	if _, ok := m.Get(last); ok {
		t.Fatal("deleted key still held")
	}
	if m.Dropped() != before {
		t.Fatalf("Delete counted as a drop: %d -> %d", before, m.Dropped())
	}
}
