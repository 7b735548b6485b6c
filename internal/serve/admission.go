package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"mlperf/internal/memo"
	"mlperf/internal/telemetry"
)

// shedReason labels why a request was refused, for metrics and the
// Retry-After hint.
type shedReason string

const (
	shedQueue shedReason = "queue" // wait queue at capacity
	shedCost  shedReason = "cost"  // in-flight cell budget exhausted
	shedQuota shedReason = "quota" // tenant token bucket empty
	shedDrain shedReason = "drain" // server is shutting down
)

// admission is the bounded work queue at the daemon's front door. A
// request is priced by its simulation cost (grid cells, scheduler
// jobs); acquiring means the request may execute now. The controller
// enforces three limits, shedding explicitly the moment any would be
// exceeded rather than queuing without bound:
//
//   - slots: at most maxInFlight requests execute concurrently;
//   - queue: at most maxQueue requests wait for a slot — the classic
//     bounded buffer that keeps latency from growing unboundedly under
//     overload;
//   - cost: the summed cost of executing requests stays within
//     MaxRequestCells, so ten cheap simulate calls and one 4096-cell
//     sweep are not treated alike.
type admission struct {
	slots    chan struct{}
	maxQueue int64
	reg      *telemetry.Registry

	queued   atomic.Int64
	inFlight atomic.Int64

	// cells is guarded by mu together with cond-style waiting: cost
	// admission cannot be a channel semaphore because requests acquire
	// variable amounts.
	mu    sync.Mutex
	cond  *sync.Cond
	cells atomic.Int64
}

func newAdmission(maxInFlight, maxQueue int, reg *telemetry.Registry) *admission {
	a := &admission{
		slots:    make(chan struct{}, maxInFlight),
		maxQueue: int64(maxQueue),
		reg:      reg,
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// acquire admits a request of the given cost, blocking in the bounded
// queue until a slot and cost budget are available, ctx expires, or the
// queue is full (immediate shed). The cost must be at most
// MaxRequestCells: admit answers a larger one with 413 (TooLarge)
// before it gets here. The returned release function must be called
// exactly once when the request finishes.
func (a *admission) acquire(ctx context.Context, cost int64) (release func(), shed shedReason, ok bool) {
	// Join the bounded queue — or shed on the spot if it is full. The
	// check-then-increment is racy in the benign direction (a burst can
	// briefly overshoot by the number of racing requests), which is fine:
	// the queue bound is a load-shedding threshold, not a memory cap.
	if a.queued.Load() >= a.maxQueue {
		return nil, shedQueue, false
	}
	a.queued.Add(1)
	a.gauge(MetricQueueDepth, float64(a.queued.Load()))
	defer func() {
		a.queued.Add(-1)
		a.gauge(MetricQueueDepth, float64(a.queued.Load()))
	}()

	// Wait for an execution slot.
	select {
	case a.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, shedQueue, false
	}

	// Wait for cost budget. Slot-holders queue here only when a large
	// sweep is hogging the cell budget; cond broadcast on release wakes
	// them. A context cancellation while waiting must abandon cleanly.
	a.mu.Lock()
	for a.cells.Load()+cost > MaxRequestCells {
		if ctx.Err() != nil {
			a.mu.Unlock()
			<-a.slots
			return nil, shedCost, false
		}
		// cond.Wait with a context: poll via timed wakeups. Admission waits
		// are rare (only under cost contention) and bounded by the request
		// deadline, so a coarse tick is fine.
		waitCond(a.cond, 10*time.Millisecond)
	}
	a.cells.Add(cost)
	a.mu.Unlock()

	a.inFlight.Add(1)
	a.gauge(MetricInFlight, float64(a.inFlight.Load()))
	a.gauge(MetricCellsInFlight, float64(a.cells.Load()))

	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.cells.Add(-cost)
			a.mu.Unlock()
			a.cond.Broadcast()
			a.inFlight.Add(-1)
			<-a.slots
			a.gauge(MetricInFlight, float64(a.inFlight.Load()))
			a.gauge(MetricCellsInFlight, float64(a.cells.Load()))
		})
	}, "", true
}

// waitCond is cond.Wait with a wakeup deadline, so waiters can re-check
// their context. Caller holds the cond's lock.
func waitCond(c *sync.Cond, d time.Duration) {
	t := time.AfterFunc(d, c.Broadcast)
	c.Wait()
	t.Stop()
}

func (a *admission) gauge(name string, v float64) {
	if a.reg != nil {
		a.reg.Gauge(name).Set(v)
	}
}

// tenantLimiter hands each tenant (the X-Tenant header; "" is the
// anonymous tenant) a token bucket: rate tokens per second, holding
// max(2*rate, 1). One chatty client drains its own bucket and gets
// 429s while everyone else's requests still flow.
type tenantLimiter struct {
	rate  float64 // tokens/sec; < 0 disables limiting
	burst float64

	mu      sync.Mutex
	buckets *memo.Map[string, *bucket]
	now     func() time.Time // test seam
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxTenants bounds the bucket map: past it, buckets untouched for a
// generation are dropped (a full-burst bucket behaves identically to a
// fresh one, so dropping is semantically free for idle tenants). This
// keeps an adversarial stream of unique X-Tenant values from growing
// memory without bound.
const maxTenants = 4096

func newTenantLimiter(rate float64) *tenantLimiter {
	return &tenantLimiter{
		rate:    rate,
		burst:   max(2*rate, 1),
		buckets: memo.New[string, *bucket](maxTenants),
		now:     time.Now,
	}
}

// allow takes one token from the tenant's bucket, reporting whether the
// request may proceed and, when not, how long until a token is due.
func (t *tenantLimiter) allow(tenant string) (bool, time.Duration) {
	if t.rate < 0 {
		return true, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	b, ok := t.buckets.Get(tenant)
	if !ok {
		b = &bucket{tokens: t.burst, last: now}
		t.buckets.Put(tenant, b)
	} else {
		b.tokens = min(t.burst, b.tokens+now.Sub(b.last).Seconds()*t.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / t.rate
	return false, time.Duration(need * float64(time.Second))
}
