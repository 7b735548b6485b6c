package serve

import (
	"context"
	"strconv"
	"testing"
	"time"
)

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	a := newAdmission(1, 1, nil)

	rel1, ok := a.acquire(context.Background())
	if !ok {
		t.Fatal("first acquire refused on an idle controller")
	}

	// Second request occupies the single queue position, waiting for the
	// slot rel1 holds.
	ctx2, cancel2 := context.WithCancel(context.Background())
	got2 := make(chan bool, 1)
	go func() {
		rel, ok := a.acquire(ctx2)
		if ok {
			rel()
		}
		got2 <- ok
	}()
	deadline := time.Now().Add(5 * time.Second)
	for a.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never joined the queue")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue at capacity: the third request is shed immediately, not
	// parked — bounded buffer, not unbounded latency — and its refused
	// attempt leaves the queue count as it was.
	if _, ok := a.acquire(context.Background()); ok {
		t.Fatal("full queue admitted a third request")
	}
	if got := a.queued.Load(); got != 1 {
		t.Fatalf("queued = %d after a refused acquire, want 1", got)
	}

	// The queued waiter abandons cleanly when its context dies: the queue
	// count and the held slots are back where they were…
	cancel2()
	if ok := <-got2; ok {
		t.Fatal("canceled waiter reported admission")
	}
	if q, held := a.queued.Load(), len(a.slots); q != 0 || held != 1 {
		t.Fatalf("after the abandoned wait: queued %d, slots held %d, want 0 and 1", q, held)
	}
	// …and once the slot is released the next acquire succeeds.
	rel1()
	rel, ok := a.acquire(context.Background())
	if !ok {
		t.Fatal("acquire refused after the queue drained and the slot was released")
	}
	rel()
	if q, held := a.queued.Load(), len(a.slots); q != 0 || held != 0 {
		t.Fatalf("idle controller: queued %d, slots held %d, want 0 and 0", q, held)
	}
}

func TestAdmissionReleaseIdempotent(t *testing.T) {
	a := newAdmission(2, 2, nil)
	rel, ok := a.acquire(context.Background())
	if !ok {
		t.Fatal("acquire refused")
	}
	rel()
	rel() // second call must be a no-op, not a double-free
	if got := len(a.slots); got != 0 {
		t.Fatalf("slots held = %d after double release, want 0", got)
	}
}

func TestTenantLimiterBucketsPerTenant(t *testing.T) {
	lim := newTenantLimiter(1) // a burst of 2
	clock := time.Unix(5000, 0)
	lim.now = func() time.Time { return clock }

	// Burst of 2, then refusal with a refill hint.
	for i := 0; i < 2; i++ {
		if ok, _ := lim.allow("noisy"); !ok {
			t.Fatalf("request %d refused inside burst", i)
		}
	}
	ok, wait := lim.allow("noisy")
	if ok {
		t.Fatal("third request admitted past the burst")
	}
	if wait <= 0 || wait > 2*time.Second {
		t.Fatalf("retry hint %v, want ~1s", wait)
	}

	// One noisy tenant does not starve another.
	if ok, _ := lim.allow("quiet"); !ok {
		t.Fatal("separate tenant starved by noisy one")
	}

	// Tokens refill with time.
	clock = clock.Add(1500 * time.Millisecond)
	if ok, _ := lim.allow("noisy"); !ok {
		t.Fatal("bucket did not refill after waiting")
	}

	// Negative rate disables limiting.
	open := newTenantLimiter(-1)
	for i := 0; i < 100; i++ {
		if ok, _ := open.allow("any"); !ok {
			t.Fatal("unlimited limiter refused")
		}
	}
}

func TestTenantLimiterBoundsMemory(t *testing.T) {
	lim := newTenantLimiter(100)
	for i := 0; i < 3*maxTenants; i++ {
		lim.allow("tenant-" + strconv.Itoa(i))
	}
	if n := lim.buckets.Len(); n > maxTenants {
		t.Fatalf("bucket map grew to %d, bound is %d", n, maxTenants)
	}
}
