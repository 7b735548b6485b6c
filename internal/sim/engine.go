// Package sim simulates data-parallel training of a network on a multi-GPU
// system: the input pipeline on host CPUs, host-to-device copies over
// PCIe, forward/backward compute on each GPU, gradient all-reduce over the
// interconnect, and the optimizer step. A discrete-event engine pipelines
// these stages exactly as a prefetching training loop does, yielding the
// steady-state step time, time-to-train (the MLPerf metric), and the
// resource-utilization figures of Table V.
package sim

import (
	"container/heap"
)

// event is one scheduled callback.
type event struct {
	at  float64
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Engine is a minimal deterministic discrete-event simulator: events fire
// in (time, insertion) order.
type Engine struct {
	now float64
	seq int64
	pq  eventHeap
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule enqueues fn to run at absolute time at (clamped to now).
func (e *Engine) Schedule(at float64, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	heap.Push(&e.pq, event{at: at, seq: e.seq, fn: fn})
}

// Run processes events until the queue is empty.
func (e *Engine) Run() {
	for e.pq.Len() > 0 {
		ev := heap.Pop(&e.pq).(event)
		e.now = ev.at
		ev.fn()
	}
}

// Interval is one labeled busy span of a station.
type Interval struct {
	Start, End float64
	Label      string
}

// Resource is a single-server FIFO resource (a CPU worker pool, a PCIe
// link, a GPU): requests serialize. It keeps only its next-free time;
// the pipeline's events carry the busy spans to the observers that
// account utilization and build timelines.
type Resource struct {
	Name string
	// freeAt is when the resource next becomes idle.
	freeAt float64
}

// AcquireSpan reserves the resource for dur seconds starting no earlier
// than at and returns both endpoints of the busy span — the stage
// pipeline publishes events whose boundaries partition the exact
// occupancy.
func (r *Resource) AcquireSpan(at, dur float64) (start, end float64) {
	start = at
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + dur
	r.freeAt = end
	return start, end
}

// Stall pushes the resource's next-free time dur seconds past at (or
// past its current backlog) without a busy span — downtime, not work.
// Fault injection uses it for preemption restarts: every queued
// acquisition lands after the stall, but no event reports the gap as
// busy.
func (r *Resource) Stall(at, dur float64) {
	if r.freeAt < at {
		r.freeAt = at
	}
	if dur > 0 {
		r.freeAt += dur
	}
}
