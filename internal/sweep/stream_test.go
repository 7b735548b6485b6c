package sweep

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// streamCollector gathers OnCell callbacks thread-safely and counts
// per-index deliveries so tests can assert exactly-once.
type streamCollector struct {
	mu    sync.Mutex
	done  []CellDone
	count map[int]int
}

func newStreamCollector() *streamCollector {
	return &streamCollector{count: make(map[int]int)}
}

func (c *streamCollector) onCell(d CellDone) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done = append(c.done, d)
	c.count[d.Index]++
}

// OnCell must fire exactly once per cell, and reassembling the stream
// by index must reproduce the run's record slice, at every worker count.
func TestOnCellExactlyOncePerCellAndReassembles(t *testing.T) {
	g := Grid{Benchmarks: []string{"res50_tf", "ncf_py"}, GPUCounts: []int{1, 2}}
	keys, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			col := newStreamCollector()
			recs, _, err := NewEngine(workers).RunCellsWithOptions(context.Background(), keys,
				Options{OnCell: col.onCell})
			if err != nil {
				t.Fatal(err)
			}
			if len(col.done) != len(keys) {
				t.Fatalf("OnCell fired %d times for %d cells", len(col.done), len(keys))
			}
			for i := range keys {
				if col.count[i] != 1 {
					t.Fatalf("cell %d delivered %d times, want exactly once", i, col.count[i])
				}
			}
			reassembled := make([]Record, len(keys))
			for _, d := range col.done {
				if d.Err != nil {
					t.Fatalf("cell %d streamed an error: %v", d.Index, d.Err)
				}
				if d.Key != keys[d.Index] {
					t.Fatalf("cell %d streamed key %+v, want %+v", d.Index, d.Key, keys[d.Index])
				}
				reassembled[d.Index] = d.Record
			}
			for i := range recs {
				if reassembled[i] != recs[i] {
					t.Fatalf("cell %d: streamed record differs from returned record", i)
				}
			}
		})
	}
}

// A canceled run streams only the cells that settled; unattempted
// cells appear in the report, never as phantom callbacks, and every
// streamed success is a valid prefix-member of the full grid.
func TestOnCellCanceledRunStreamsOnlySettledCells(t *testing.T) {
	e := NewEngine(1)
	inner := e.simulate
	release := make(chan struct{})
	var n int
	var mu sync.Mutex
	e.simulate = func(k CellKey) (Record, error) {
		mu.Lock()
		n++
		park := n == 2 // second cell straggles until cancel
		mu.Unlock()
		if park {
			<-release
		}
		return inner(k)
	}
	defer close(release)

	g := Grid{Benchmarks: []string{"res50_tf", "ncf_py", "xfmr_py"}, GPUCounts: []int{1}}
	keys, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	col := newStreamCollector()
	_, rep, err := e.RunCellsWithOptions(ctx, keys,
		Options{Partial: true, OnCell: col.onCell})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Canceled {
		t.Fatal("run not canceled — test premise broken")
	}
	ok := 0
	for _, d := range col.done {
		if d.Err == nil {
			ok++
		}
	}
	if ok != rep.Completed {
		t.Fatalf("streamed %d successes, report says %d completed", ok, rep.Completed)
	}
	if len(col.done) > len(keys) {
		t.Fatalf("more callbacks (%d) than cells (%d)", len(col.done), len(keys))
	}
	for i, c := range col.count {
		if c != 1 {
			t.Fatalf("cell %d delivered %d times", i, c)
		}
	}
}
