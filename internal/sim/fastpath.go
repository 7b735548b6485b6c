package sim

import (
	"fmt"

	"mlperf/internal/units"
)

// FastPathMode selects whether a run may collapse its steady-state steps
// analytically instead of walking the discrete-event pipeline. The fast
// path is a pure refactor of the pipeline arithmetic: when taken, every
// number in the Result — timelines, phase counters, utilizations, step
// times, TimeToTrain — is bit-identical to the step-by-step simulation.
type FastPathMode int

const (
	// FastPathAuto (the zero value, so the default) takes the analytic
	// fast path whenever the run is provably equivalent to step-by-step
	// simulation and falls back to the discrete-event pipeline otherwise.
	FastPathAuto FastPathMode = iota
	// FastPathOff always walks the discrete-event pipeline.
	FastPathOff
	// FastPathForce requires the fast path: a run that cannot take it
	// fails with a *FastPathError instead of falling back — the lever the
	// equivalence tests use to prove both paths agree.
	FastPathForce
)

// String names the mode.
func (m FastPathMode) String() string {
	switch m {
	case FastPathAuto:
		return "auto"
	case FastPathOff:
		return "off"
	case FastPathForce:
		return "force"
	}
	return fmt.Sprintf("FastPathMode(%d)", int(m))
}

// FastPathError reports why a FastPathForce run could not take the
// analytic fast path.
type FastPathError struct {
	// Reason is the first disqualifying condition the detector hit.
	Reason string
}

func (e *FastPathError) Error() string { return "sim: fast path unavailable: " + e.Reason }

// BulkObserver is the capability an Observer declares to keep the fast
// path available: instead of one OnEvent call per stage per step, the
// observer accepts the whole steady-state window as a single SteadySteps
// block and reconstructs whatever per-step state it needs (the block can
// replay the exact event stream via Events). Observers that need the
// discrete-event publication order — interleaved across lanes in global
// time order, like EventLog — must not implement it; their presence
// forces the step-by-step pipeline. The built-in timeline, usage,
// phase-totals and telemetry observers are all bulk-capable.
//
// The block is freshly built for the run and never mutated after
// publication, so implementations may retain it or alias its slices
// (the built-in usage observer adopts the span slices outright); they
// must treat everything reachable from it as read-only.
type BulkObserver interface {
	Observer
	OnSteadySteps(*SteadySteps)
}

// SteadyStage is one positive-service stage of a steady lane: the fixed
// per-step service time and payload the stage contributes. Stages
// partition each step's busy span in order, with the last stage's end
// pinned to the span end (exactly the pipeline's event partition).
type SteadyStage struct {
	Kind    EventKind
	Service float64
	Bytes   units.Bytes
	FLOPs   units.FLOPs
}

// SteadyLane is one station's occupancy over the steady-state window:
// its per-step busy spans plus the invariant stage partition. Lanes with
// no positive-service stage publish no events but still carry their
// (zero-length) spans.
type SteadyLane struct {
	// Name is the station ("cpu-input", "pcie-h2d", "gpu").
	Name string
	// Stages are the lane's positive-service stages in partition order.
	Stages []SteadyStage
	// Spans holds one busy span per step; Spans[i] belongs to step From+i.
	Spans []Interval
}

// SteadySteps is the analytic fast path's bulk publication: the steps
// [From, To) collapsed into per-lane spans and an invariant stage
// partition. It carries everything the elided per-step events carried.
type SteadySteps struct {
	// From and To bound the collapsed window: steps From..To-1.
	From, To int
	// Lanes are the stations in pipeline order.
	Lanes []SteadyLane
	// StepEnd[i] is step From+i's completion time — what the EvStepDone
	// marker would have reported.
	StepEnd []float64
}

// Events replays the collapsed window as the canonical event stream:
// step-major, lanes in pipeline order within a step, stages in partition
// order within a lane, one EvStepDone marker per step. Every event is
// bitwise identical to its step-by-step counterpart; only the global
// interleaving differs (the discrete-event pipeline publishes in
// simulated-time order across overlapping steps). Per-lane and per-kind
// subsequences are identical in both orders.
func (b *SteadySteps) Events(fn func(Event)) {
	for i := range b.StepEnd {
		step := b.From + i
		for li := range b.Lanes {
			sl := &b.Lanes[li]
			if len(sl.Stages) == 0 {
				continue
			}
			sp := sl.Spans[i]
			bnd := sp.Start
			for si := range sl.Stages {
				st := &sl.Stages[si]
				end := bnd + st.Service
				if si == len(sl.Stages)-1 {
					end = sp.End
				}
				fn(Event{
					Kind: st.Kind, Lane: sl.Name, Step: step,
					Start: bnd, End: end, Bytes: st.Bytes, FLOPs: st.FLOPs,
				})
				bnd = end
			}
		}
		fn(Event{Kind: EvStepDone, Step: step, Start: b.StepEnd[i], End: b.StepEnd[i]})
	}
}

// eventBuffer holds events back until the fast path commits, so an
// abandoned attempt leaks nothing to the observers.
type eventBuffer struct{ evs []Event }

func (b *eventBuffer) OnEvent(ev Event) { b.evs = append(b.evs, ev) }

// tryFastPipeline attempts the analytic fast path. The pipeline's
// discrete-event execution reduces, per lane, to
//
//	start = max(launch, freeAt); end = start + total; freeAt = end
//
// with launch(s) = stepEnd[s-prefetchDepth] (0 for the first prefetched
// steps), because lane acquisitions occur in step order and nothing
// couples steps outside that recurrence — unless a fault effect, a
// checkpoint write or a preemption stall perturbs a step, or an observer
// needs the per-step event interleaving. The detector therefore demands:
//
//   - every observer is a BulkObserver;
//   - the compiled fault schedule is effect-free past a warm-up prefix,
//     which is simulated step-by-step (events buffered) before the
//     remaining window collapses;
//   - no checkpoint fires anywhere (trigger timing depends on
//     discrete-event interleaving, so one write disqualifies the run)
//     and none comes due in the collapsed window;
//   - no preemption fires in the warm-up prefix or comes due before the
//     final step completes.
//
// On success it returns the step completion times after publishing the
// buffered warm-up events and the SteadySteps block. On failure it
// returns a nil slice, the disqualifying reason, and whether the
// abandoned warm-up already mutated the lanes' resources (the caller
// must then rebuild them for the slow run).
func tryFastPipeline(lanes []laneExec, fr *faultRun, steps int, pub publisher) (stepEnd []float64, dirty bool, reason string) {
	for _, o := range pub {
		if _, ok := o.(BulkObserver); !ok {
			return nil, false, fmt.Sprintf("observer %T requires per-step events", o)
		}
	}
	warm := 0
	if fr != nil {
		warm = fr.sched.MaxEffectStep() + 1
		if warm >= steps {
			return nil, false, "fault schedule perturbs the final step"
		}
	}
	stepEnd = make([]float64, steps)
	var prefix eventBuffer
	if warm > 0 {
		runPipeline(lanes, stepEnd[:warm], fr, publisher{&prefix})
		dirty = true
		if fr.report.Checkpoints > 0 {
			return nil, dirty, "checkpoint fired during the warm-up prefix"
		}
		if fr.report.Preemptions > 0 {
			return nil, dirty, "preemption fired during the warm-up prefix"
		}
	}

	// Collapse the steady-state window with the per-lane recurrence,
	// seeded from the warm-up's resource backlogs.
	free := make([]float64, len(lanes))
	for l := range lanes {
		free[l] = lanes[l].res.freeAt
	}
	spans := make([][]Interval, len(lanes))
	for l := range spans {
		spans[l] = make([]Interval, steps-warm)
	}
	for s := warm; s < steps; s++ {
		at := 0.0
		if s >= prefetchDepth {
			at = stepEnd[s-prefetchDepth]
		}
		for l := range lanes {
			start := at
			if f := free[l]; f > start {
				start = f
			}
			end := start + lanes[l].total
			free[l] = end
			spans[l][s-warm] = Interval{Start: start, End: end}
			at = end
		}
		stepEnd[s] = at
	}

	// Late divergence checks: anything time-triggered that would have
	// fired inside the collapsed window invalidates the collapse.
	if fr != nil {
		if fr.ckptInterval > 0 && fr.ckptCost > 0 {
			gpuIdx := -1
			for l := range lanes {
				if lanes[l].name == LaneGPU {
					gpuIdx = l
				}
			}
			for s := warm; gpuIdx >= 0 && s < steps; s++ {
				// The checkpoint clock is read when the gpu lane's work is
				// requested: at the previous lane's span end (or the step's
				// launch time for a leading lane).
				callAt := 0.0
				if gpuIdx > 0 {
					callAt = spans[gpuIdx-1][s-warm].End
				} else if s >= prefetchDepth {
					callAt = stepEnd[s-prefetchDepth]
				}
				if callAt >= fr.nextCkpt {
					return nil, dirty, "checkpoint due in the steady-state window"
				}
			}
		}
		if fr.nextPre < len(fr.preempts) && fr.preempts[fr.nextPre].At <= stepEnd[steps-1] {
			return nil, dirty, "preemption due in the steady-state window"
		}
	}

	// Commit: replay the buffered warm-up events in their original
	// order, then hand every observer the collapsed window.
	for _, ev := range prefix.evs {
		pub.publish(ev)
	}
	blk := &SteadySteps{
		From: warm, To: steps,
		Lanes:   make([]SteadyLane, len(lanes)),
		StepEnd: stepEnd[warm:],
	}
	for l := range lanes {
		blk.Lanes[l] = SteadyLane{Name: lanes[l].name, Stages: lanes[l].steady, Spans: spans[l]}
	}
	for _, o := range pub {
		o.(BulkObserver).OnSteadySteps(blk)
	}
	return stepEnd, dirty, ""
}
