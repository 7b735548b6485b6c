// Package cluster generalizes the paper's §IV-D scheduling study
// (internal/sched, Figure 4) from one-shot offline packing to an online,
// event-driven multi-tenant scheduler: moldable training jobs arrive
// over time on a fleet of machines drawn from the internal/hw catalog,
// and a pluggable Policy decides placements, widths and preemptions at
// every scheduling point. Per-job durations come from the memoized sweep
// engine (the same Table IV cells Figure 4 recalls), so width × machine
// lookups are cheap; preemptions are priced through the internal/fault
// checkpoint/restart cost model; and every decision is published on the
// simulator's typed event bus, so cluster schedules render through the
// same Timeline/Chrome-trace machinery as pipeline runs.
package cluster

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mlperf/internal/fault"
	"mlperf/internal/hw"
	"mlperf/internal/sim"
	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
	"mlperf/internal/units"
	"mlperf/internal/workload"
)

// Machine is one fleet member. System names a platform in the hw
// catalog; it is only interpreted by the DurationFn, so synthetic tests
// may use any label.
type Machine struct {
	// Name is the unique fleet identifier ("m0-dss8440").
	Name string
	// System is the hw catalog name durations are simulated on.
	System string
	// GPUs is the schedulable device count.
	GPUs int
}

// Fleet builds machines from hw catalog names (aliases accepted,
// duplicates allowed — "dss8440,dss8440" is a two-machine fleet).
func Fleet(systems ...string) ([]Machine, error) {
	if len(systems) == 0 {
		return nil, fmt.Errorf("cluster: empty fleet")
	}
	out := make([]Machine, len(systems))
	for i, name := range systems {
		sys, err := hw.SystemByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = Machine{
			Name:   fmt.Sprintf("m%d-%s", i, slug(sys.Name)),
			System: sys.Name,
			GPUs:   sys.GPUCount,
		}
	}
	return out, nil
}

func slug(s string) string {
	return strings.ReplaceAll(strings.ToLower(strings.TrimSpace(s)), " ", "")
}

// Job is one moldable job of the arrival trace.
type Job struct {
	// Name is unique within the trace.
	Name string
	// Benchmark names the workload whose simulated durations price the
	// job (any label under a custom DurationFn).
	Benchmark string
	// Submit is the arrival time in seconds.
	Submit float64
	// Widths are the GPU counts the job can run at (nil = 1/2/4/8).
	Widths []int
}

// DefaultWidths are the power-of-two widths a Job with nil Widths may
// run at — the widths the paper's Figure 4 searches over.
var DefaultWidths = []int{1, 2, 4, 8}

// DurationFn prices one (job, machine, width) cell: the job's full
// runtime in seconds at that width on that machine.
type DurationFn func(j Job, m Machine, width int) (float64, error)

// sweepDurations prices cells on the shared memoized sweep engine: each
// lookup is one Table IV-style cell (benchmark × system × GPU count),
// simulated at most once per process and recalled from the cache
// afterwards.
func sweepDurations(j Job, m Machine, width int) (float64, error) {
	rec, err := sweep.Default.Cell(sweep.CellKey{Benchmark: j.Benchmark, System: m.System, GPUs: width})
	if err != nil {
		return 0, err
	}
	return rec.TimeToTrainMin * 60, nil
}

// Config is one online scheduling run.
type Config struct {
	Fleet  []Machine
	Jobs   []Job
	Policy Policy
	// Durations prices (job, machine, width) cells; nil uses the shared
	// memoized sweep engine.
	Durations DurationFn
	// Fault prices preemption: the plan's Checkpoint model sets the
	// forced-save write cost and the replay window charged on restart.
	// nil (or an empty plan) makes preemption cost RestartDelay only.
	Fault *fault.Plan
	// RestartDelay is the re-provision time in seconds charged per
	// preemption on top of the checkpoint/replay cost.
	RestartDelay float64
	// Observers subscribe to the run's typed event stream (the same
	// sim.Observer interface pipeline runs publish to).
	Observers []sim.Observer
	// Telemetry, when non-nil, receives per-policy metrics (JCT
	// histogram, preemption/job counters, queue-depth gauges, makespan
	// and utilization) plus one span per job in simulated time. Nil
	// disables instrumentation with zero behavioural difference.
	Telemetry *telemetry.Registry
}

// Metric names the scheduler registers, all labeled policy=<name>.
const (
	MetricJCTSeconds      = "cluster_jct_seconds"       // histogram of job completion times
	MetricJobsTotal       = "cluster_jobs_total"        // counter
	MetricPreemptions     = "cluster_preemptions_total" // counter
	MetricQueueDepth      = "cluster_queue_depth"       // gauge, live pending jobs
	MetricQueueDepthPeak  = "cluster_queue_depth_peak"  // gauge, high-water pending jobs
	MetricMakespanSeconds = "cluster_makespan_seconds"  // gauge
	MetricGPUUtil         = "cluster_gpu_util"          // gauge, 0..1
	MetricOverheadSeconds = "cluster_overhead_seconds"  // gauge, total preemption charge
)

// Segment is one executed slice of a job: a width-GPU reservation on one
// machine from Start to End. A preempted job has several segments.
type Segment struct {
	Job string
	// Machine indexes Result.Fleet.
	Machine int
	// GPUs are the device indices held for the whole span.
	GPUs  []int
	Width int
	// Start and End bound the reservation; the first Overhead seconds
	// are the checkpoint+restart charge, the rest is training work.
	Start, End float64
	// Overhead is the preemption charge paid at the segment head
	// (zero for a first placement).
	Overhead float64
	// Work is the training seconds executed (End - Start - Overhead for
	// a completed span, possibly less when preempted mid-overhead).
	Work float64
	// Duration is the job's full runtime at this (machine, width) — the
	// denominator Work advances the job's progress fraction by.
	Duration float64
	// Preempted marks a segment cut short by the scheduler.
	Preempted bool
}

// JobOutcome is one job's fate.
type JobOutcome struct {
	Job
	// Start is the first placement time.
	Start float64
	// Completed is the completion time.
	Completed float64
	// JCT is the job completion time (Completed - Submit).
	JCT float64
	// Preemptions counts evictions; Overhead is the total
	// checkpoint+restart seconds they charged (each exactly once).
	Preemptions int
	Overhead    float64
}

// Metrics summarizes one policy's run.
type Metrics struct {
	Policy string
	// Makespan is the last completion time.
	Makespan float64
	// MeanJCT and P95JCT summarize job completion times.
	MeanJCT, P95JCT float64
	// GPUUtil is reserved GPU-seconds over fleet capacity × makespan.
	GPUUtil float64
	// Preemptions and OverheadSec total the eviction count and charge.
	Preemptions int
	OverheadSec float64
}

// Result is a completed online run.
type Result struct {
	Policy   string
	Fleet    []Machine
	Jobs     []JobOutcome
	Segments []Segment
	Metrics  Metrics
	// Events is the full decision/segment event stream in publication
	// order.
	Events []sim.Event
}

// Validate checks the run is feasible: no GPU is double-booked, every
// segment stays inside the fleet and after its job's submit, every job
// runs to completion exactly, and the metrics' makespan covers every
// span. It is the online analog of sched.Schedule.Validate.
func (r *Result) Validate() error {
	type span struct {
		start, end float64
		job        string
	}
	perGPU := map[[2]int][]span{}
	byJob := map[string][]Segment{}
	for _, s := range r.Segments {
		if s.Machine < 0 || s.Machine >= len(r.Fleet) {
			return fmt.Errorf("cluster: %s on machine %d outside fleet", s.Job, s.Machine)
		}
		m := r.Fleet[s.Machine]
		if s.End < s.Start {
			return fmt.Errorf("cluster: %s segment ends before it starts", s.Job)
		}
		if s.End > r.Metrics.Makespan+1e-9 {
			return fmt.Errorf("cluster: %s segment ends after makespan", s.Job)
		}
		if len(s.GPUs) != s.Width {
			return fmt.Errorf("cluster: %s holds %d GPUs at width %d", s.Job, len(s.GPUs), s.Width)
		}
		for _, g := range s.GPUs {
			if g < 0 || g >= m.GPUs {
				return fmt.Errorf("cluster: %s uses %s GPU %d outside [0,%d)", s.Job, m.Name, g, m.GPUs)
			}
			key := [2]int{s.Machine, g}
			for _, sp := range perGPU[key] {
				if s.Start < sp.end-1e-9 && sp.start < s.End-1e-9 {
					return fmt.Errorf("cluster: %s GPU %d double-booked by %s and %s", m.Name, g, sp.job, s.Job)
				}
			}
			perGPU[key] = append(perGPU[key], span{s.Start, s.End, s.Job})
		}
		byJob[s.Job] = append(byJob[s.Job], s)
	}
	for _, j := range r.Jobs {
		segs := byJob[j.Name]
		if len(segs) == 0 {
			return fmt.Errorf("cluster: job %s never ran", j.Name)
		}
		frac := 0.0
		for _, s := range segs {
			if s.Start < j.Submit-1e-9 {
				return fmt.Errorf("cluster: job %s runs before it is submitted", j.Name)
			}
			if s.Duration <= 0 {
				return fmt.Errorf("cluster: job %s segment with non-positive duration", j.Name)
			}
			frac += s.Work / s.Duration
		}
		if math.Abs(frac-1) > 1e-6 {
			return fmt.Errorf("cluster: job %s completed %.9f of its work, want 1", j.Name, frac)
		}
		if last := segs[len(segs)-1]; math.Abs(last.End-j.Completed) > 1e-9 {
			return fmt.Errorf("cluster: job %s completion %.3f != last segment end %.3f", j.Name, j.Completed, last.End)
		}
		if j.Preemptions != len(segs)-1 {
			return fmt.Errorf("cluster: job %s has %d preemptions but %d segments", j.Name, j.Preemptions, len(segs))
		}
	}
	if len(byJob) != len(r.Jobs) {
		return fmt.Errorf("cluster: segments for %d jobs, outcomes for %d", len(byJob), len(r.Jobs))
	}
	return nil
}

// Timeline renders the run on the simulator's timeline machinery: one
// lane per machine GPU holding the job reservations, plus the "cluster"
// lane of decision markers — loadable in chrome://tracing through
// Timeline.WriteChromeTrace like any pipeline run.
func (r *Result) Timeline() *sim.Timeline {
	lanes := map[string][]sim.Interval{}
	for mi, m := range r.Fleet {
		for g := 0; g < m.GPUs; g++ {
			lanes[gpuLane(r.Fleet, mi, g)] = nil
		}
	}
	for _, s := range r.Segments {
		label := s.Job
		if s.Preempted {
			label += " (preempted)"
		}
		for _, g := range s.GPUs {
			lane := gpuLane(r.Fleet, s.Machine, g)
			lanes[lane] = append(lanes[lane], sim.Interval{Start: s.Start, End: s.End, Label: label})
		}
	}
	for _, ev := range r.Events {
		if ev.Lane != sim.LaneCluster {
			continue
		}
		lanes[sim.LaneCluster] = append(lanes[sim.LaneCluster], sim.Interval{
			Start: ev.Start, End: ev.End, Label: ev.Label(),
		})
	}
	return &sim.Timeline{Lanes: lanes}
}

func gpuLane(fleet []Machine, mi, g int) string {
	return fmt.Sprintf("%s/gpu%d", fleet[mi].Name, g)
}

// computeMetrics fills the summary from outcomes and segments.
func computeMetrics(policy string, fleet []Machine, jobs []JobOutcome, segs []Segment) Metrics {
	m := Metrics{Policy: policy}
	jcts := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		if j.Completed > m.Makespan {
			m.Makespan = j.Completed
		}
		jcts = append(jcts, j.JCT)
		m.MeanJCT += j.JCT
		m.Preemptions += j.Preemptions
		m.OverheadSec += j.Overhead
	}
	if len(jcts) > 0 {
		m.MeanJCT /= float64(len(jcts))
		sort.Float64s(jcts)
		idx := int(math.Ceil(0.95*float64(len(jcts)))) - 1
		if idx < 0 {
			idx = 0
		}
		m.P95JCT = jcts[idx]
	}
	capacity := 0
	for _, mm := range fleet {
		capacity += mm.GPUs
	}
	if capacity > 0 && m.Makespan > 0 {
		var busy float64
		for _, s := range segs {
			busy += (s.End - s.Start) * float64(s.Width)
		}
		m.GPUUtil = busy / (float64(capacity) * m.Makespan)
	}
	return m
}

// snapshotBytes sizes a job's forced checkpoint the way the simulator
// does (parameters + optimizer state); unknown benchmarks (synthetic
// tests) fall back to zero, leaving only the plan's explicit
// SnapshotBytes in play.
func snapshotBytes(benchmark string) units.Bytes {
	b, err := workload.ByName(benchmark)
	if err != nil || b.Job.Net == nil {
		return 0
	}
	return b.Job.Net.ParamBytes(4) + b.Job.Net.OptimizerStateBytes(b.Job.OptimizerSlots)
}
