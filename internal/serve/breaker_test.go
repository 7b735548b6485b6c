package serve

import (
	"errors"
	"testing"
	"time"

	"mlperf/internal/sweep"
)

// flakyStore is a sweep.Store whose error is a knob.
type flakyStore struct {
	err  error
	rec  sweep.Record
	ok   bool
	gets int
	puts int
}

func (f *flakyStore) Get(sweep.CellKey) (sweep.Record, bool, error) {
	f.gets++
	return f.rec, f.ok, f.err
}
func (f *flakyStore) Put(sweep.CellKey, sweep.Record) error { f.puts++; return f.err }
func (f *flakyStore) Stats() sweep.TierStats                { return sweep.TierStats{Hits: 42} }

func testBreaker(inner sweep.Store) (*Breaker, *time.Time) {
	clock := time.Unix(1000, 0)
	b := NewBreaker(inner, BreakerConfig{
		now: func() time.Time { return clock },
	})
	return b, &clock
}

func TestBreakerTripsOpensAndBypasses(t *testing.T) {
	inner := &flakyStore{err: errors.New("disk yanked")}
	b, _ := testBreaker(inner)
	k := sweep.CellKey{Benchmark: "res50_tf", System: "dss8440", GPUs: 1}

	for i := 0; i < breakerTripErrors; i++ {
		if _, ok, err := b.Get(k); ok || err == nil {
			t.Fatalf("errored Get: ok=%v err=%v, want a miss carrying the error", ok, err)
		}
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after %d consecutive errors = %s, want open", breakerTripErrors, got)
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}

	// Open circuit: the disk tier must not be touched at all.
	before := inner.gets
	for i := 0; i < 5; i++ {
		if _, ok, err := b.Get(k); ok || err != nil {
			t.Fatalf("open breaker: ok=%v err=%v, want a clean miss", ok, err)
		}
		b.Put(k, sweep.Record{})
	}
	if inner.gets != before || inner.puts != 0 {
		t.Fatalf("open breaker leaked traffic to the inner store: gets %d→%d, puts %d",
			before, inner.gets, inner.puts)
	}
	if b.Dropped() == 0 {
		t.Fatal("bypassed operations not counted as dropped")
	}
}

func TestBreakerHalfOpenProbeHealsOrReopens(t *testing.T) {
	inner := &flakyStore{err: errors.New("enospc")}
	b, clock := testBreaker(inner)
	k := sweep.CellKey{Benchmark: "res50_tf", System: "dss8440", GPUs: 1}

	for i := 0; i < breakerTripErrors; i++ {
		b.Get(k)
	}
	if b.State() != BreakerOpen {
		t.Fatal("breaker did not trip")
	}

	// Cooldown elapses → half-open; a still-failing probe reopens.
	*clock = clock.Add(breakerOpenFor - time.Nanosecond)
	if b.State() != BreakerOpen {
		t.Fatalf("state before the cooldown ends = %s, want open", b.State())
	}
	*clock = clock.Add(time.Nanosecond)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %s, want half-open", b.State())
	}
	gets := inner.gets
	b.Get(k)
	if inner.gets != gets+1 {
		t.Fatal("half-open did not admit the probe")
	}
	if b.State() != BreakerOpen {
		t.Fatalf("failed probe left state %s, want open", b.State())
	}
	if b.Trips() != 2 {
		t.Fatalf("trips = %d, want 2", b.Trips())
	}

	// Disk recovers; the next probe closes the circuit and traffic flows.
	*clock = clock.Add(breakerOpenFor)
	inner.err = nil
	inner.ok = true
	inner.rec = sweep.Record{Benchmark: "res50_tf", TimeToTrainMin: 5}
	rec, ok, _ := b.Get(k)
	if !ok || rec.TimeToTrainMin != 5 {
		t.Fatalf("healing probe lost the result: ok=%v rec=%+v", ok, rec)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %s, want closed", b.State())
	}
	gets = inner.gets
	b.Get(k)
	if inner.gets != gets+1 {
		t.Fatal("closed breaker not passing traffic")
	}
}

func TestBreakerMissesAndSuccessesDoNotTrip(t *testing.T) {
	// Misses (err == nil, ok == false) are normal operation, not failures.
	inner := &flakyStore{}
	b, _ := testBreaker(inner)
	k := sweep.CellKey{Benchmark: "res50_tf", System: "dss8440", GPUs: 1}
	for i := 0; i < 20; i++ {
		b.Get(k)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("misses tripped the breaker: state %s", b.State())
	}

	// A success between errors resets the consecutive-failure streak.
	boom := errors.New("eio")
	inner.err = boom
	for i := 1; i < breakerTripErrors; i++ {
		b.Get(k)
	}
	inner.err = nil
	b.Get(k)
	inner.err = boom
	for i := 1; i < breakerTripErrors; i++ {
		b.Get(k)
	}
	if b.State() != BreakerClosed {
		t.Fatal("non-consecutive errors tripped the breaker")
	}
}

func TestBreakerStatsPassThrough(t *testing.T) {
	b, _ := testBreaker(&flakyStore{})
	if got := b.Stats().Hits; got != 42 {
		t.Fatalf("Stats not passed through: hits %d, want 42", got)
	}
}
