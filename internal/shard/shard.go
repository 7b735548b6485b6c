// Package shard is the consistent-hash ring the front tier routes
// sweep cells to backends with. Keys are canonical cell digests, so the
// same cell lands on the same backend request after request (and its
// memo cache stays warm there), and growing the backend count remaps
// only ~1/N of the keys.
package shard

import (
	"hash/fnv"
	"sort"
)

// DefaultReplicas is the virtual-node count per shard on the hash ring.
// More replicas smooth the partition at the cost of a bigger ring; 64
// keeps the expected imbalance under a few percent for paper-scale
// grids.
const DefaultReplicas = 64

// Ring is a consistent-hash ring mapping string keys (canonical
// digests) to shard indices. It is immutable after construction and
// safe for concurrent use.
type Ring struct {
	shards int
	points []ringPoint
}

type ringPoint struct {
	h     uint64
	shard int
}

// NewRing builds a ring of the given shard count with replicas virtual
// nodes per shard (<= 0 = DefaultReplicas). The ring is deterministic:
// equal (shards, replicas) always yield the identical mapping.
func NewRing(shards, replicas int) *Ring {
	if shards < 1 {
		shards = 1
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*replicas)}
	var label [32]byte
	for s := 0; s < shards; s++ {
		for v := 0; v < replicas; v++ {
			n := encodePoint(label[:0], s, v)
			r.points = append(r.points, ringPoint{h: hash64(n), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// encodePoint renders the virtual node label "shard:<s>:<v>".
func encodePoint(buf []byte, s, v int) []byte {
	buf = append(buf, "shard:"...)
	buf = appendInt(buf, s)
	buf = append(buf, ':')
	return appendInt(buf, v)
}

func appendInt(buf []byte, n int) []byte {
	if n == 0 {
		return append(buf, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for n > 0 {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
	}
	return append(buf, tmp[i:]...)
}

// hash64 is FNV-1a, chosen for determinism across processes and builds
// (no seed, no map-iteration dependence).
func hash64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Shards returns the ring's shard count.
func (r *Ring) Shards() int { return r.shards }

// Owner maps a key to its shard: the first virtual node clockwise from
// the key's hash.
func (r *Ring) Owner(key string) int {
	h := hash64([]byte(key))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}
