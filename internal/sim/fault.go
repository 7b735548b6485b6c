package sim

import (
	"fmt"

	"mlperf/internal/fault"
	"mlperf/internal/units"
)

// FaultReport quantifies what a fault plan did to a run: the in-window
// fault events and the time-to-train surcharges of the checkpoint and
// preemption model. It is attached to Result.Faults by RunWithFaults;
// fault-free runs leave it nil.
type FaultReport struct {
	// Activations counts fault onsets observed in the simulated window
	// (straggler onsets, link degradation edges, transient failures).
	Activations int
	// Retries is the total transient retry attempts in the window.
	Retries int
	// Checkpoints counts snapshot writes inside the simulated window.
	Checkpoints int
	// Preemptions counts node preemptions charged to the run.
	Preemptions int
	// CheckpointCost is the seconds one snapshot write costs.
	CheckpointCost float64
	// CheckpointOverheadFrac is the steady-state time-to-train inflation
	// from checkpointing: cost/interval (0 when checkpointing is off).
	CheckpointOverheadFrac float64
	// RestartSeconds is the total restart + replay time the preemptions
	// added to TimeToTrain.
	RestartSeconds float64
}

// faultRun is runPipeline's optional fault input: the compiled schedule
// plus the mutable time-based fault state of one pipeline execution
// (checkpoint clock, pending preemptions) and the accounting the result
// assembly reads back. runPipeline consults it only when it is non-nil,
// so the fault-free pipeline never touches it.
type faultRun struct {
	sched *fault.Schedule

	ckptInterval float64
	ckptCost     float64
	nextCkpt     float64
	lastCkpt     float64

	preempts []fault.Preemption // ascending At; only in-window ones fire
	nextPre  int

	report FaultReport
	// excluded are in-window checkpoint writes and restart stalls; the
	// steady-state step-time estimate subtracts their overlap so their
	// cost is charged exactly once (via the analytic TTT surcharges).
	excluded []Interval
}

// newFaultRun compiles the plan against the pipeline's stations.
// modelBytes sizes the default checkpoint snapshot (parameters +
// optimizer state).
func newFaultRun(plan *fault.Plan, lanes []laneExec, steps int, modelBytes units.Bytes) (*faultRun, error) {
	// Targets are numbered like laneStage.target: lanes in order, then
	// stages in order within a lane.
	var targets []fault.Target
	for i := range lanes {
		for _, st := range lanes[i].stages {
			targets = append(targets, fault.Target{Lane: lanes[i].name, Kind: st.Kind.String()})
		}
	}
	sched, err := plan.Compile(targets, steps)
	if err != nil {
		return nil, err
	}
	fr := &faultRun{
		sched:        sched,
		ckptInterval: plan.Checkpoint.Interval,
		ckptCost:     plan.CheckpointCost(modelBytes),
		nextCkpt:     plan.Checkpoint.Interval,
		preempts:     append([]fault.Preemption(nil), plan.Preemptions...),
	}
	// Preemptions fire in time order regardless of plan order.
	for i := 1; i < len(fr.preempts); i++ {
		for j := i; j > 0 && fr.preempts[j].At < fr.preempts[j-1].At; j-- {
			fr.preempts[j], fr.preempts[j-1] = fr.preempts[j-1], fr.preempts[j]
		}
	}
	fr.report.CheckpointCost = fr.ckptCost
	if fr.ckptInterval > 0 {
		fr.report.CheckpointOverheadFrac = fr.ckptCost / fr.ckptInterval
	}
	return fr, nil
}

// stageEffect returns the stage's fault-scaled service at step, the
// retries it drew, and their re-execution time (each retry pays the fixed
// retry cost plus the scaled service again).
func (fr *faultRun) stageEffect(st *laneStage, step int) (svc float64, n int, retry float64) {
	svc = st.Service * fr.sched.Mult(st.target, step)
	n, cost := fr.sched.Retries(st.target, step)
	return svc, n, float64(n) * (cost + svc)
}

// laneTotal returns the lane's faulted busy time for step, requested at
// now: every stage's scaled service plus its retries, and the checkpoint
// write (also returned on its own) when the gpu lane finds the checkpoint
// clock expired. The snapshot occupies the lane like the write it models.
func (fr *faultRun) laneTotal(lane *laneExec, step int, now float64) (total, ckpt float64) {
	for si := range lane.stages {
		svc, _, retry := fr.stageEffect(&lane.stages[si], step)
		total += svc + retry
	}
	if lane.name == LaneGPU && fr.ckptInterval > 0 && fr.ckptCost > 0 && now >= fr.nextCkpt {
		ckpt = fr.ckptCost
		total += ckpt
	}
	return total, ckpt
}

// activate publishes the lane's fault onsets at step as markers at the
// span start on the synthetic faults track.
func (fr *faultRun) activate(lane *laneExec, step int, at float64, pub publisher) {
	for si := range lane.stages {
		for _, a := range fr.sched.ActivationsAt(lane.stages[si].target, step) {
			fr.report.Activations++
			pub.publish(Event{
				Kind: EvFaultInjected, Lane: LaneFaults, Step: step,
				Start: at, End: at, Note: a.Note,
			})
		}
	}
}

// checkpoint books the snapshot write that starts at `at` inside a span
// ending at end, advances the checkpoint clock past end, and returns the
// write's event.
func (fr *faultRun) checkpoint(lane string, step int, at, end float64) Event {
	fr.report.Checkpoints++
	fr.excluded = append(fr.excluded, Interval{Start: at, End: at + fr.ckptCost})
	for fr.nextCkpt <= end {
		fr.nextCkpt += fr.ckptInterval
	}
	fr.lastCkpt = end
	return Event{
		Kind: EvCheckpointSaved, Lane: lane, Step: step,
		Start: at, End: at + fr.ckptCost,
		Note: fmt.Sprintf("snapshot %.3fs", fr.ckptCost),
	}
}

// preemptAt fires every preemption whose time has passed: the node goes
// away, every station stalls for the restart delay plus replay of the
// work lost since the last checkpoint, and the downtime is published on
// the faults track.
func (fr *faultRun) preemptAt(e *Engine, lanes []laneExec, step int, pub publisher) {
	for fr.nextPre < len(fr.preempts) && fr.preempts[fr.nextPre].At <= e.Now() {
		pr := fr.preempts[fr.nextPre]
		fr.nextPre++
		restart := pr.RestartDelay + fr.sched.Plan().Checkpoint.ReplayFrac*(e.Now()-fr.lastCkpt)
		fr.report.Preemptions++
		fr.report.RestartSeconds += restart
		fr.excluded = append(fr.excluded, Interval{Start: e.Now(), End: e.Now() + restart})
		for i := range lanes {
			lanes[i].res.Stall(e.Now(), restart)
		}
		pub.publish(Event{
			Kind: EvFaultInjected, Lane: LaneFaults, Step: step,
			Start: e.Now(), End: e.Now(),
			Note: fmt.Sprintf("preempted at %.3fs", pr.At),
		})
		pub.publish(Event{
			Kind: EvRestarted, Lane: LaneFaults, Step: step,
			Start: e.Now(), End: e.Now() + restart,
			Note: fmt.Sprintf("restart %.3fs (delay %.3fs)", restart, pr.RestartDelay),
		})
	}
}

// chargeRemaining accounts for plan preemptions that never fired inside
// the simulated window: each still happens once in the modeled training
// run, costing the restart delay plus replay since the last scheduled
// checkpoint.
func (fr *faultRun) chargeRemaining() {
	plan := fr.sched.Plan()
	for ; fr.nextPre < len(fr.preempts); fr.nextPre++ {
		pr := fr.preempts[fr.nextPre]
		fr.report.Preemptions++
		fr.report.RestartSeconds += plan.RestartCost(pr)
	}
}

// excludedOverlap returns the seconds of checkpoint/restart downtime
// inside [from, to] — subtracted from the steady-state window so those
// costs are charged exactly once by the analytic surcharges.
func (fr *faultRun) excludedOverlap(from, to float64) float64 {
	var total float64
	for _, iv := range fr.excluded {
		lo, hi := iv.Start, iv.End
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

// RunWithFaults simulates the job under a fault plan, streaming events
// (including the fault kinds) to obs. A nil or empty plan is exactly
// RunObserved and leaves Result.Faults nil. Any other plan runs the same
// pipeline loop as RunObserved with the compiled schedule as its fault
// input, so a plan with no effect inside the window reproduces the
// fault-free events and results; only the FaultReport and the timeline's
// empty faults lane tell them apart. The returned Result carries a
// FaultReport, and its TimeToTrain includes the straggler/link/retry-
// inflated step time, the steady-state checkpoint overhead, and each
// preemption's restart + replay cost.
func RunWithFaults(cfg Config, plan *fault.Plan, obs ...Observer) (*Result, error) {
	if plan.Empty() {
		return RunObserved(cfg, obs...)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return runObserved(cfg, plan, obs)
}
