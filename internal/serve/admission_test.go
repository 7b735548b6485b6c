package serve

import (
	"context"
	"strconv"
	"testing"
	"time"
)

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	a := newAdmission(1, 1, nil)

	rel1, _, ok := a.acquire(context.Background(), 1)
	if !ok {
		t.Fatal("first acquire refused on an idle controller")
	}

	// Second request occupies the single queue position, waiting for the
	// slot rel1 holds.
	ctx2, cancel2 := context.WithCancel(context.Background())
	got2 := make(chan bool, 1)
	go func() {
		rel, _, ok := a.acquire(ctx2, 1)
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
	// parked — bounded buffer, not unbounded latency.
	if _, reason, ok := a.acquire(context.Background(), 1); ok || reason != shedQueue {
		t.Fatalf("full queue: ok=%v reason=%q, want shed with %q", ok, reason, shedQueue)
	}

	// The queued waiter abandons cleanly when its context dies.
	cancel2()
	if ok := <-got2; ok {
		t.Fatal("canceled waiter reported admission")
	}
	rel1()
	if got := a.queued.Load(); got != 0 {
		t.Fatalf("queued gauge leaked: %d", got)
	}
}

func TestAdmissionCostBudget(t *testing.T) {
	a := newAdmission(4, 4, nil)

	relBig, _, ok := a.acquire(context.Background(), MaxRequestCells-2)
	if !ok {
		t.Fatal("a request just under the budget refused on an idle controller")
	}
	// (budget-2) + 5 > budget: the second request must wait for budget
	// even though slots are free…
	admitted := make(chan func(), 1)
	go func() {
		rel, _, ok := a.acquire(context.Background(), 5)
		if !ok {
			t.Error("cost waiter refused")
			admitted <- func() {}
			return
		}
		admitted <- rel
	}()
	select {
	case <-admitted:
		t.Fatal("second request admitted past the cell budget")
	case <-time.After(50 * time.Millisecond):
	}
	// …and releasing the big one wakes it.
	relBig()
	select {
	case rel := <-admitted:
		rel()
	case <-time.After(5 * time.Second):
		t.Fatal("cost waiter not woken by release")
	}
	if got := a.cells.Load(); got != 0 {
		t.Fatalf("cell budget leaked: %d", got)
	}

	// A cost waiter whose context dies mid-wait abandons with its slot
	// returned.
	relBig, _, _ = a.acquire(context.Background(), MaxRequestCells)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, reason, ok := a.acquire(ctx, 5); ok || reason != shedCost {
		t.Fatalf("canceled cost wait: ok=%v reason=%q, want %q", ok, reason, shedCost)
	}
	relBig()
	if len(a.slots) != 0 {
		t.Fatalf("slot leaked after abandoned cost wait: %d held", len(a.slots))
	}
}

func TestAdmissionReleaseIdempotent(t *testing.T) {
	a := newAdmission(2, 2, nil)
	rel, _, ok := a.acquire(context.Background(), 3)
	if !ok {
		t.Fatal("acquire refused")
	}
	rel()
	rel() // second call must be a no-op, not a double-free
	if got := a.cells.Load(); got != 0 {
		t.Fatalf("cells = %d after double release, want 0", got)
	}
	if got := a.inFlight.Load(); got != 0 {
		t.Fatalf("inFlight = %d after double release, want 0", got)
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
