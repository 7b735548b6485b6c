package front

import (
	"sync"

	"mlperf/internal/sweep"
)

// cellCacheCap bounds one generation of the cell cache: 4096 records,
// about 2–3 MB with their digests, so the cache never holds more than
// twice that.
const cellCacheCap = 4096

// cellCache holds records the fleet already computed, keyed by cell
// digest. A digest addresses the cell's content under the KeySchema, so
// an entry never goes stale and is never invalidated; only the bound
// drops entries. Two generations approximate LRU at plain-map cost:
// puts and hits land in cur, and when cur fills it becomes old and the
// previous old is dropped, so a cell touched since the last rotation
// survives the next one.
type cellCache struct {
	mu       sync.Mutex
	cur, old map[string]sweep.Record
}

func (c *cellCache) get(digest string) (sweep.Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.cur[digest]; ok {
		return r, true
	}
	r, ok := c.old[digest]
	if ok {
		c.putLocked(digest, r)
	}
	return r, ok
}

// put stores a record. Callers pass only validated, complete backend
// answers: whatever is put here is served without a backend hop.
func (c *cellCache) put(digest string, r sweep.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(digest, r)
}

func (c *cellCache) putLocked(digest string, r sweep.Record) {
	if _, ok := c.cur[digest]; !ok && len(c.cur) >= cellCacheCap {
		c.old, c.cur = c.cur, nil
	}
	if c.cur == nil {
		c.cur = make(map[string]sweep.Record)
	}
	c.cur[digest] = r
}
