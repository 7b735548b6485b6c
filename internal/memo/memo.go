// Package memo is the one bounded map behind every long-lived lookup
// table in the serving stack: the front's cell cache, serve's tenant
// buckets and the sweep engine's cell memo. A process that lives for
// days sees an unbounded stream of distinct keys, so every such table
// needs a cap; this package is that cap, written once.
package memo

// Map is a bounded map that approximates LRU at plain-map cost with two
// generations. Puts and hits land in the current generation; when it
// fills, it becomes the old generation and the previous old one is
// dropped. A hit in the old generation moves the entry into the current
// one, so an entry touched since the last rotation survives the next.
//
// Map is not safe for concurrent use: each caller guards it with its own
// mutex, next to whatever else that mutex protects.
type Map[K comparable, V any] struct {
	half     int
	cur, old map[K]V
	dropped  int64
}

// New returns a Map that never holds more than limit entries (at most
// limit/2 per generation, and at least one).
func New[K comparable, V any](limit int) *Map[K, V] {
	return &Map[K, V]{half: max(limit/2, 1)}
}

// Get returns k's value and whether it is held.
func (m *Map[K, V]) Get(k K) (V, bool) {
	if v, ok := m.cur[k]; ok {
		return v, true
	}
	v, ok := m.old[k]
	if ok {
		m.Put(k, v)
	}
	return v, ok
}

// Put stores v under k, rotating the generations first when k is new
// to a full current generation.
func (m *Map[K, V]) Put(k K, v V) {
	if _, ok := m.cur[k]; !ok {
		delete(m.old, k)
		if len(m.cur) >= m.half {
			m.dropped += int64(len(m.old))
			m.old, m.cur = m.cur, nil
		}
		if m.cur == nil {
			m.cur = make(map[K]V)
		}
	}
	m.cur[k] = v
}

// Delete drops k, reporting whether it was held.
func (m *Map[K, V]) Delete(k K) bool {
	_, inCur := m.cur[k]
	_, inOld := m.old[k]
	delete(m.cur, k)
	delete(m.old, k)
	return inCur || inOld
}

// Len reports how many entries are held.
func (m *Map[K, V]) Len() int { return len(m.cur) + len(m.old) }

// Dropped reports how many entries rotations have dropped so far
// (Delete is not counted).
func (m *Map[K, V]) Dropped() int64 { return m.dropped }
