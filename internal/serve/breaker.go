package serve

import (
	"sync"
	"time"

	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
)

// BreakerState is the circuit's position.
type BreakerState int32

const (
	// BreakerClosed: traffic flows to the disk tier normally.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: one probe request is allowed through; success
	// closes the circuit, failure re-opens it.
	BreakerHalfOpen
	// BreakerOpen: the disk tier is bypassed entirely — every Get is a
	// miss, every Put is dropped — until the cooldown elapses.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// breakerTripErrors consecutive environmental errors trip the circuit,
// and it stays open for breakerOpenFor before a half-open probe.
const (
	breakerTripErrors = 5
	breakerOpenFor    = 5 * time.Second
)

// BreakerConfig shapes a Breaker.
type BreakerConfig struct {
	// Registry, when non-nil, receives state-gauge and trip-counter
	// updates.
	Registry *telemetry.Registry
	// OnTransition, when non-nil, observes every state change (logging,
	// flight recording). Called synchronously with the breaker's lock
	// held — it must not call back into the breaker.
	OnTransition func(from, to BreakerState)
	// now is a test seam (nil = time.Now).
	now func() time.Time
}

// Breaker is a circuit breaker wrapped around the persistent cache
// tier. The tier is an accelerator: when the disk goes bad (full,
// yanked, permission flip), the correct degradation is memory-only
// operation, not a daemon that stalls or error-storms on every cell.
// Repeated environmental errors — NOT cache misses, and NOT quarantined
// corrupt entries, both of which are normal operation — trip the
// circuit open; after a cooldown a single probe is let through and its
// outcome decides between closing and re-opening.
//
// Breaker wraps a sweep.Store and implements it, so it slots between
// the engine and the DiskStore transparently.
type Breaker struct {
	inner sweep.Store
	cfg   BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive errors while closed
	openedAt time.Time // when the circuit last opened
	probing  bool      // a half-open probe is in flight
	trips    int64
	// dropped counts operations bypassed while open — visibility into
	// what the degraded mode cost.
	dropped int64
}

// NewBreaker wraps the disk tier in a circuit breaker.
func NewBreaker(inner sweep.Store, cfg BreakerConfig) *Breaker {
	if cfg.now == nil {
		cfg.now = time.Now
	}
	b := &Breaker{inner: inner, cfg: cfg}
	b.publish()
	return b
}

// State reports the circuit's current position (advancing open →
// half-open if the cooldown has elapsed).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	return b.state
}

// Trips reports how many times the circuit has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// Dropped reports operations bypassed while the circuit was open.
func (b *Breaker) Dropped() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// maybeHalfOpenLocked advances open → half-open once the cooldown has
// elapsed. Callers hold b.mu.
func (b *Breaker) maybeHalfOpenLocked() {
	if b.state == BreakerOpen && b.cfg.now().Sub(b.openedAt) >= breakerOpenFor {
		b.setStateLocked(BreakerHalfOpen)
		b.probing = false
	}
}

// setStateLocked moves the state machine, notifying the transition
// observer and the gauge. Callers hold b.mu.
func (b *Breaker) setStateLocked(to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.cfg.OnTransition != nil {
		b.cfg.OnTransition(from, to)
	}
	b.publishLocked()
}

// admit decides whether this operation may reach the disk tier. In
// half-open, only one probe is admitted at a time.
func (b *Breaker) admit() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		if b.probing {
			b.dropped++
			return false
		}
		b.probing = true
		return true
	default: // open
		b.dropped++
		return false
	}
}

// report feeds an operation's outcome back into the state machine.
func (b *Breaker) report(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		// Success: a half-open probe heals the circuit; in closed state the
		// consecutive-failure streak resets.
		if b.state == BreakerHalfOpen {
			b.setStateLocked(BreakerClosed)
		}
		b.failures = 0
		b.probing = false
		return
	}
	switch b.state {
	case BreakerHalfOpen:
		// The probe failed: straight back to open, restart the cooldown.
		b.openLocked()
	case BreakerClosed:
		b.failures++
		if b.failures >= breakerTripErrors {
			b.openLocked()
		}
	}
}

// openLocked trips the circuit. Callers hold b.mu.
func (b *Breaker) openLocked() {
	b.setStateLocked(BreakerOpen)
	b.openedAt = b.cfg.now()
	b.failures = 0
	b.probing = false
	b.trips++
	if reg := b.cfg.Registry; reg != nil {
		reg.Counter(MetricBreakerTrips).Inc()
	}
}

// publish/publishLocked mirror the state into the gauge
// (0=closed 1=half-open 2=open).
func (b *Breaker) publish() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.publishLocked()
}

func (b *Breaker) publishLocked() {
	if reg := b.cfg.Registry; reg != nil {
		reg.Gauge(MetricBreakerState).Set(float64(b.state))
	}
}

// Get implements sweep.Store. While the circuit is open the disk tier
// simply does not exist: the lookup is a miss and the engine simulates.
// An inner error is counted here and passed on.
func (b *Breaker) Get(k sweep.CellKey) (sweep.Record, bool, error) {
	if !b.admit() {
		return sweep.Record{}, false, nil
	}
	rec, ok, err := b.inner.Get(k)
	b.report(err)
	return rec, ok, err
}

// Put implements sweep.Store. While the circuit is open the write is
// dropped; an inner error is counted here and passed on.
func (b *Breaker) Put(k sweep.CellKey, rec sweep.Record) error {
	if !b.admit() {
		return nil
	}
	err := b.inner.Put(k, rec)
	b.report(err)
	return err
}

// Stats implements sweep.Store, passing the inner tier's counters
// through so the engine's accounting (and manifests) stay truthful.
func (b *Breaker) Stats() sweep.TierStats { return b.inner.Stats() }
