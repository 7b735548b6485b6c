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
	shedQueue shedReason = "queue" // wait queue at capacity, or the deadline passed waiting for a slot
	shedQuota shedReason = "quota" // tenant token bucket empty
	shedDrain shedReason = "drain" // server is shutting down
)

// admission is the bounded work queue at the daemon's front door;
// acquiring means the request may execute now. It enforces two limits,
// shedding the moment either would be exceeded rather than queuing
// without bound:
//
//   - slots: at most maxInFlight requests execute concurrently (a held
//     slot is one element in the slots channel);
//   - queue: at most maxQueue requests are in acquire at once, the
//     bounded buffer that keeps latency from growing under overload.
//
// A request's size is bounded before it gets here (TooLarge), not while
// it runs: a slot is a slot whatever the request's cell count.
type admission struct {
	slots    chan struct{}
	maxQueue int64
	reg      *telemetry.Registry
	queued   atomic.Int64
}

func newAdmission(maxInFlight, maxQueue int, reg *telemetry.Registry) *admission {
	return &admission{slots: make(chan struct{}, maxInFlight), maxQueue: int64(maxQueue), reg: reg}
}

// acquire admits a request, blocking in the bounded queue until a slot
// is free or ctx ends; a full queue refuses at once. A refusal is
// always shedQueue. The returned release function must be called once
// the request finishes; further calls are no-ops.
func (a *admission) acquire(ctx context.Context) (release func(), ok bool) {
	// Incrementing before the check makes the bound exact: racing
	// requests cannot overshoot it.
	n := a.queued.Add(1)
	if n > a.maxQueue {
		a.queued.Add(-1)
		return nil, false
	}
	a.gauge(MetricQueueDepth, n)
	defer func() { a.gauge(MetricQueueDepth, a.queued.Add(-1)) }()

	select {
	case a.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, false
	}
	a.gauge(MetricInFlight, int64(len(a.slots)))
	var once sync.Once
	return func() {
		once.Do(func() {
			<-a.slots
			a.gauge(MetricInFlight, int64(len(a.slots)))
		})
	}, true
}

func (a *admission) gauge(name string, v int64) {
	if a.reg != nil {
		a.reg.Gauge(name).Set(float64(v))
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
