package sweep

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// batchKey is the i-th of a stream of distinct cells.
func batchKey(i int) CellKey {
	return CellKey{Benchmark: "res50_tf", System: "dss8440", GPUs: 1, Batch: i + 1}
}

// An engine fed three times its bound of distinct cells from several
// goroutines never holds more than the bound, counts every rotated-out
// entry as a memory eviction, and keeps the accounting identity.
func TestMemoBoundedUnderConcurrentCells(t *testing.T) {
	const workers = 4
	n := 3 * maxMemoCells
	var calls atomic.Int64
	e := fakeEngine(workers, func(k CellKey) (Record, error) {
		calls.Add(1)
		return Record{Batch: k.Batch}, nil
	})
	held := func() int {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.cache.Len()
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if rec, err := e.cell(batchKey(i), 0); err != nil || rec.Batch != i+1 {
					t.Errorf("cell %d: %+v %v", i, rec, err)
					return
				}
				if i >= workers {
					// This goroutine's previous cell is recent: still held.
					if rec, err := e.cell(batchKey(i-workers), 0); err != nil || rec.Batch != i-workers+1 {
						t.Errorf("recent cell %d: %+v %v", i-workers, rec, err)
						return
					}
				}
				if i%1024 == w && held() > maxMemoCells {
					t.Errorf("memo holds %d cells, bound %d", held(), maxMemoCells)
					return
				}
			}
		}()
	}
	wg.Wait()

	st := e.Stats()
	if h := held(); h > maxMemoCells {
		t.Fatalf("memo holds %d cells, bound %d", h, maxMemoCells)
	}
	if st.Misses != int64(n) || st.Hits != int64(n-workers) {
		t.Fatalf("misses %d hits %d, want %d and %d", st.Misses, st.Hits, n, n-workers)
	}
	if st.Memory.Evictions == 0 || st.Memory.Evictions != st.Misses-int64(held()) {
		t.Fatalf("memory evictions %d, want every distinct cell not held: %d",
			st.Memory.Evictions, st.Misses-int64(held()))
	}
	if st.Simulations != st.Misses-st.Disk.Hits || calls.Load() != st.Simulations {
		t.Fatalf("simulations %d (calls %d), want misses %d - disk hits %d",
			st.Simulations, calls.Load(), st.Misses, st.Disk.Hits)
	}
}

// waitUntil polls cond until it holds, failing the test after 10s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// Evicting a cell while its simulation is in flight drops only the
// memo's reference: the caller waiting on it still gets the record, and
// the next request for the cell misses and simulates again.
func TestMemoEvictionDuringInFlightCell(t *testing.T) {
	slow := batchKey(-1)
	gate := make(chan struct{})
	entered := make(chan struct{})
	var slowCalls atomic.Int64
	e := fakeEngine(2, func(k CellKey) (Record, error) {
		if k == slow && slowCalls.Add(1) == 1 {
			close(entered)
			<-gate
		}
		return Record{Batch: k.Batch}, nil
	})

	results := make(chan Record, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rec, _ := e.cell(slow, 0)
		results <- rec
	}()
	<-entered
	go func() {
		defer wg.Done()
		rec, _ := e.cell(slow, 0)
		results <- rec
	}()
	waitUntil(t, "second caller to join the in-flight cell", func() bool { return e.Stats().Joins == 1 })

	// Enough distinct cells to rotate the memo twice: the in-flight
	// entry is dropped.
	for i := 0; i < maxMemoCells; i++ {
		if _, err := e.cell(batchKey(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	_, held := e.cache.Get(slow)
	e.mu.Unlock()
	if held {
		t.Fatal("in-flight cell still held after two rotations")
	}
	before := e.Stats()

	close(gate)
	wg.Wait()
	for range 2 {
		if rec := <-results; rec.Batch != slow.Batch {
			t.Fatalf("caller of the evicted in-flight cell got %+v", rec)
		}
	}
	if rec, err := e.cell(slow, 0); err != nil || rec.Batch != slow.Batch {
		t.Fatalf("re-request: %+v %v", rec, err)
	}
	after := e.Stats()
	if slowCalls.Load() != 2 || after.Misses != before.Misses+1 || after.Simulations != before.Simulations+1 {
		t.Fatalf("re-request: %d simulations of the cell, misses %d -> %d; want a fresh miss and simulation",
			slowCalls.Load(), before.Misses, after.Misses)
	}
	if after.Memory.Evictions == 0 {
		t.Fatal("rotation drops not counted as memory evictions")
	}
}
