package cluster

import (
	"fmt"
	"math"
	"sort"

	"mlperf/internal/fault"
	"mlperf/internal/sim"
	"mlperf/internal/telemetry"
)

// jobState is one job's live scheduling state.
type jobState struct {
	spec Job
	idx  int
	// frac is the completed fraction of the job's work; preserved across
	// preemptions (the replay window is re-bought by the restart charge).
	frac float64
	// overhead is the pending checkpoint+restart charge the next segment
	// pays at its head; set by exactly one preemption, consumed by
	// exactly one placement.
	overhead     float64
	overheadPaid float64
	preempts     int

	running, started, done bool
	firstStart, completed  float64

	// current segment (valid while running)
	segIdx                                           int
	segSeq                                           int
	segStart, segOverhead, segRemaining, segDuration float64
	machine                                          int
	gpus                                             []int
	width                                            int
}

// run is the live state of one online scheduling simulation.
type run struct {
	cfg   Config
	eng   *sim.Engine
	fleet []Machine
	jobs  []*jobState

	byName     map[string]*jobState
	machByName map[string]int
	free       [][]bool
	nfree      []int

	// dur[job][machine][width] is the precomputed duration table; every
	// feasible cell is priced up front so policies see errors early and
	// decision-time lookups never fail.
	dur  []map[int]map[int]float64
	ckpt []float64

	pending []*jobState
	events  []sim.Event
	segs    []Segment
	err     error

	// policyLbl tags every instrument with the run's policy name;
	// queueGauge/queuePeak track the pending queue (nil no-ops when
	// cfg.Telemetry is nil).
	policyLbl  telemetry.Label
	queueGauge *telemetry.Gauge
	queuePeak  *telemetry.Gauge
}

// maxDecideRounds bounds the policy fixpoint loop at one scheduling
// point; exceeding it is reported as a policy livelock.
func maxDecideRounds(jobs int) int { return 4*jobs + 16 }

// Run executes the online scheduling simulation to completion: jobs
// arrive at their submit times, the policy is consulted at every
// arrival, completion and preemption, and the run ends when every job
// has finished. The result is deterministic: equal configs replay
// identically, event for event.
func Run(cfg Config) (*Result, error) {
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	for _, st := range r.jobs {
		st := st
		r.eng.Schedule(st.spec.Submit, func() { r.arrive(st) })
	}
	r.eng.Run()
	if r.err != nil {
		return nil, r.err
	}
	outcomes := make([]JobOutcome, len(r.jobs))
	for i, st := range r.jobs {
		if !st.done {
			return nil, fmt.Errorf("cluster: policy %q never completed job %s", cfg.Policy.Name(), st.spec.Name)
		}
		outcomes[i] = JobOutcome{
			Job:         st.spec,
			Start:       st.firstStart,
			Completed:   st.completed,
			JCT:         st.completed - st.spec.Submit,
			Preemptions: st.preempts,
			Overhead:    st.overheadPaid,
		}
	}
	res := &Result{
		Policy:   cfg.Policy.Name(),
		Fleet:    r.fleet,
		Jobs:     outcomes,
		Segments: r.segs,
		Events:   r.events,
	}
	res.Metrics = computeMetrics(cfg.Policy.Name(), r.fleet, outcomes, r.segs)
	r.publishTelemetry(res)
	return res, nil
}

// publishTelemetry reports the finished run to the attached registry:
// summary gauges, per-job JCT observations and one KindClusterJob span
// per job in simulated time, parented under a run-wide span.
func (r *run) publishTelemetry(res *Result) {
	reg := r.cfg.Telemetry
	if reg == nil {
		return
	}
	m := res.Metrics
	reg.Gauge(MetricMakespanSeconds, r.policyLbl).Set(m.Makespan)
	reg.Gauge(MetricGPUUtil, r.policyLbl).Set(m.GPUUtil)
	reg.Gauge(MetricOverheadSeconds, r.policyLbl).Set(m.OverheadSec)
	jct := reg.Histogram(MetricJCTSeconds, telemetry.SimSecondsBuckets, r.policyLbl)
	jobs := reg.Counter(MetricJobsTotal, r.policyLbl)
	preempts := reg.Counter(MetricPreemptions, r.policyLbl)
	tr := reg.Tracer()
	runSpan := tr.StartAt(telemetry.KindRun, "cluster/"+m.Policy, 0, 0)
	for _, j := range res.Jobs {
		jct.Observe(j.JCT)
		jobs.Inc()
		preempts.Add(int64(j.Preemptions))
		id := tr.StartAt(telemetry.KindClusterJob, j.Name, runSpan, j.Submit,
			"benchmark="+j.Benchmark)
		tr.EndAt(id, j.Completed)
	}
	tr.EndAt(runSpan, m.Makespan)
}

// newRun validates the config and prices every feasible duration cell.
func newRun(cfg Config) (*run, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("cluster: nil policy")
	}
	if len(cfg.Fleet) == 0 {
		return nil, fmt.Errorf("cluster: empty fleet")
	}
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("cluster: no jobs")
	}
	if cfg.Fault != nil {
		if err := cfg.Fault.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.RestartDelay < 0 || math.IsNaN(cfg.RestartDelay) || math.IsInf(cfg.RestartDelay, 0) {
		return nil, fmt.Errorf("cluster: restart delay %v", cfg.RestartDelay)
	}
	dur := cfg.Durations
	if dur == nil {
		dur = sweepDurations
	}
	r := &run{
		cfg:        cfg,
		eng:        sim.NewEngine(),
		fleet:      cfg.Fleet,
		byName:     make(map[string]*jobState, len(cfg.Jobs)),
		machByName: make(map[string]int, len(cfg.Fleet)),
		free:       make([][]bool, len(cfg.Fleet)),
		nfree:      make([]int, len(cfg.Fleet)),
		policyLbl:  telemetry.L("policy", cfg.Policy.Name()),
	}
	if cfg.Telemetry != nil {
		r.queueGauge = cfg.Telemetry.Gauge(MetricQueueDepth, r.policyLbl)
		r.queuePeak = cfg.Telemetry.Gauge(MetricQueueDepthPeak, r.policyLbl)
	}
	for i, m := range cfg.Fleet {
		if m.GPUs < 1 {
			return nil, fmt.Errorf("cluster: machine %s has %d GPUs", m.Name, m.GPUs)
		}
		if _, dup := r.machByName[m.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate machine name %s", m.Name)
		}
		r.machByName[m.Name] = i
		r.free[i] = make([]bool, m.GPUs)
		for g := range r.free[i] {
			r.free[i][g] = true
		}
		r.nfree[i] = m.GPUs
	}
	r.jobs = make([]*jobState, len(cfg.Jobs))
	r.dur = make([]map[int]map[int]float64, len(cfg.Jobs))
	r.ckpt = make([]float64, len(cfg.Jobs))
	for i, j := range cfg.Jobs {
		if j.Name == "" {
			return nil, fmt.Errorf("cluster: job %d has no name", i)
		}
		if _, dup := r.byName[j.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate job name %s", j.Name)
		}
		if j.Submit < 0 || math.IsNaN(j.Submit) || math.IsInf(j.Submit, 0) {
			return nil, fmt.Errorf("cluster: job %s submit time %v", j.Name, j.Submit)
		}
		j.Widths = normalizeWidths(j.Widths)
		if len(j.Widths) == 0 {
			return nil, fmt.Errorf("cluster: job %s has no valid widths", j.Name)
		}
		st := &jobState{spec: j, idx: i, machine: -1}
		r.jobs[i] = st
		r.byName[j.Name] = st

		r.dur[i] = make(map[int]map[int]float64, len(cfg.Fleet))
		feasible := false
		for mi, m := range cfg.Fleet {
			r.dur[i][mi] = make(map[int]float64)
			for _, w := range j.Widths {
				if w > m.GPUs {
					continue
				}
				d, err := dur(j, m, w)
				if err != nil {
					return nil, fmt.Errorf("cluster: pricing %s at width %d on %s: %w", j.Name, w, m.Name, err)
				}
				if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
					return nil, fmt.Errorf("cluster: %s at width %d on %s has duration %v", j.Name, w, m.Name, d)
				}
				r.dur[i][mi][w] = d
				feasible = true
			}
		}
		if !feasible {
			return nil, fmt.Errorf("cluster: job %s fits no machine in the fleet", j.Name)
		}
		if cfg.Fault != nil {
			r.ckpt[i] = cfg.Fault.CheckpointCost(snapshotBytes(j.Benchmark))
		}
	}
	return r, nil
}

func normalizeWidths(ws []int) []int {
	if len(ws) == 0 {
		ws = DefaultWidths
	}
	seen := map[int]bool{}
	var out []int
	for _, w := range ws {
		if w >= 1 && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

// emit publishes one event to the internal log and every observer.
func (r *run) emit(ev sim.Event) {
	r.events = append(r.events, ev)
	for _, o := range r.cfg.Observers {
		o.OnEvent(ev)
	}
}

// marker emits an instant decision event on the cluster lane.
func (r *run) marker(kind sim.EventKind, st *jobState, note string) {
	now := r.eng.Now()
	r.emit(sim.Event{Kind: kind, Lane: sim.LaneCluster, Step: st.idx, Start: now, End: now, Note: note})
}

func (r *run) arrive(st *jobState) {
	if r.err != nil {
		return
	}
	r.marker(sim.EvJobSubmitted, st, st.spec.Name)
	r.enqueue(st)
	r.schedule()
}

// enqueue inserts the job into the pending queue, kept sorted by
// (submit, trace order) so every policy sees a deterministic base order.
func (r *run) enqueue(st *jobState) {
	i := sort.Search(len(r.pending), func(i int) bool {
		p := r.pending[i]
		if p.spec.Submit != st.spec.Submit {
			return p.spec.Submit > st.spec.Submit
		}
		return p.idx > st.idx
	})
	r.pending = append(r.pending, nil)
	copy(r.pending[i+1:], r.pending[i:])
	r.pending[i] = st
	r.queueGauge.Set(float64(len(r.pending)))
	r.queuePeak.Max(float64(len(r.pending)))
}

func (r *run) dequeue(st *jobState) {
	for i, p := range r.pending {
		if p == st {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			r.queueGauge.Set(float64(len(r.pending)))
			return
		}
	}
}

// schedule drives the policy to a fixpoint at the current instant.
func (r *run) schedule() {
	if r.err != nil {
		return
	}
	limit := maxDecideRounds(len(r.jobs))
	for rounds := 0; ; rounds++ {
		if rounds > limit {
			r.err = fmt.Errorf("cluster: policy %q livelocked at t=%.3f", r.cfg.Policy.Name(), r.eng.Now())
			return
		}
		ds := r.cfg.Policy.Decide(r.view())
		if len(ds) == 0 {
			return
		}
		for _, d := range ds {
			if err := r.apply(d); err != nil {
				r.err = fmt.Errorf("cluster: policy %q: %w", r.cfg.Policy.Name(), err)
				return
			}
		}
	}
}

func (r *run) apply(d Decision) error {
	switch {
	case d.Place != nil && d.Preempt == "":
		return r.place(*d.Place)
	case d.Place == nil && d.Preempt != "":
		return r.preempt(d.Preempt)
	}
	return fmt.Errorf("decision must set exactly one of Place or Preempt")
}

// place starts a pending job on a machine's lowest free GPUs.
func (r *run) place(p Placement) error {
	now := r.eng.Now()
	st, ok := r.byName[p.Job]
	if !ok {
		return fmt.Errorf("place: unknown job %s", p.Job)
	}
	if st.running || st.done || st.spec.Submit > now+1e-12 {
		return fmt.Errorf("place: job %s is not pending", p.Job)
	}
	mi, ok := r.machByName[p.Machine]
	if !ok {
		return fmt.Errorf("place: unknown machine %s", p.Machine)
	}
	D, ok := r.dur[st.idx][mi][p.Width]
	if !ok {
		return fmt.Errorf("place: job %s cannot run at width %d on %s", p.Job, p.Width, p.Machine)
	}
	if r.nfree[mi] < p.Width {
		return fmt.Errorf("place: %s has %d free GPUs, %s wants %d", p.Machine, r.nfree[mi], p.Job, p.Width)
	}
	gpus := make([]int, 0, p.Width)
	for g := 0; g < len(r.free[mi]) && len(gpus) < p.Width; g++ {
		if r.free[mi][g] {
			r.free[mi][g] = false
			gpus = append(gpus, g)
		}
	}
	r.nfree[mi] -= p.Width

	ov := st.overhead
	st.overhead = 0
	remaining := (1 - st.frac) * D
	st.running = true
	if !st.started {
		st.started = true
		st.firstStart = now
	}
	st.machine, st.gpus, st.width = mi, gpus, p.Width
	st.segStart, st.segOverhead, st.segRemaining, st.segDuration = now, ov, remaining, D
	st.segSeq++
	seq := st.segSeq
	st.segIdx = len(r.segs)
	r.segs = append(r.segs, Segment{
		Job: st.spec.Name, Machine: mi, GPUs: gpus, Width: p.Width,
		Start: now, Overhead: ov, Duration: D,
	})
	r.dequeue(st)

	note := fmt.Sprintf("%s width %d on %s", st.spec.Name, p.Width, r.fleet[mi].Name)
	r.marker(sim.EvJobPlaced, st, note)
	if st.preempts > 0 {
		r.marker(sim.EvJobResumed, st, fmt.Sprintf("%s after %.1fs overhead", st.spec.Name, ov))
	}
	r.eng.Schedule(now+ov+remaining, func() { r.complete(st, seq) })
	return nil
}

// preempt evicts a running job: progress since the segment's last
// periodic checkpoint boundary is preserved by a forced snapshot save
// plus a replay window, and the job re-enters the queue carrying the
// checkpoint+restart charge — computed here, charged exactly once, at
// the head of its next segment.
func (r *run) preempt(name string) error {
	now := r.eng.Now()
	st, ok := r.byName[name]
	if !ok {
		return fmt.Errorf("preempt: unknown job %s", name)
	}
	if !st.running {
		return fmt.Errorf("preempt: job %s is not running", name)
	}
	exec := now - st.segStart - st.segOverhead
	if exec < 0 {
		exec = 0
	}
	if exec > st.segRemaining {
		exec = st.segRemaining
	}
	charge := r.ckpt[st.idx] + r.restartCost(exec)
	st.frac += exec / st.segDuration
	st.running = false
	st.preempts++
	st.overhead = charge
	st.overheadPaid += charge
	r.endSegment(st, now, exec, true)
	r.marker(sim.EvJobPreempted, st, fmt.Sprintf("%s after %.1fs of work", name, exec))
	r.marker(sim.EvJobCheckpointed, st, fmt.Sprintf("%s charge %.1fs", name, charge))
	r.releaseGPUs(st)
	r.enqueue(st)
	return nil
}

// restartCost prices one preemption's restart through the fault model:
// the configured restart delay plus the plan's replay of the window
// since the last checkpoint boundary of the interrupted segment.
func (r *run) restartCost(exec float64) float64 {
	pr := fault.Preemption{At: exec, RestartDelay: r.cfg.RestartDelay}
	if r.cfg.Fault == nil {
		return pr.RestartDelay
	}
	return r.cfg.Fault.RestartCost(pr)
}

func (r *run) complete(st *jobState, seq int) {
	if r.err != nil || !st.running || st.segSeq != seq {
		return
	}
	now := r.eng.Now()
	st.frac = 1
	st.running = false
	st.done = true
	st.completed = now
	r.endSegment(st, now, st.segRemaining, false)
	r.marker(sim.EvJobCompleted, st, st.spec.Name)
	r.releaseGPUs(st)
	r.schedule()
}

// endSegment closes the job's open segment and publishes its occupancy
// as one EvJobRan span per held GPU lane.
func (r *run) endSegment(st *jobState, now, work float64, preempted bool) {
	seg := &r.segs[st.segIdx]
	seg.End = now
	seg.Work = work
	seg.Preempted = preempted
	for _, g := range st.gpus {
		r.emit(sim.Event{
			Kind: sim.EvJobRan, Lane: gpuLane(r.fleet, st.machine, g), Step: st.idx,
			Start: seg.Start, End: now, Note: st.spec.Name,
		})
	}
}

func (r *run) releaseGPUs(st *jobState) {
	for _, g := range st.gpus {
		r.free[st.machine][g] = true
	}
	r.nfree[st.machine] += st.width
	st.gpus = nil
	st.machine = -1
	st.width = 0
}
