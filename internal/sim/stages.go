package sim

import (
	"fmt"

	"mlperf/internal/comm"
	"mlperf/internal/hw"
	"mlperf/internal/precision"
	"mlperf/internal/units"
)

// Stage is one station task of the training pipeline. A stage knows its
// per-step service time, the lane (station) it occupies, and the payload
// it moves; the pipeline executes stages over the discrete-event Engine
// and publishes one typed Event per stage per step.
type Stage interface {
	// Kind tags the events this stage publishes.
	Kind() EventKind
	// Lane is the station the stage occupies. Stages sharing a lane run
	// back-to-back on the same resource.
	Lane() string
	// Service is the stage's busy time for one step in seconds.
	Service() float64
	// Bytes is the payload moved per step (0 when none applies).
	Bytes() units.Bytes
	// FLOPs is the floating-point work per step (0 when none applies).
	FLOPs() units.FLOPs
}

// InputStage models the host preprocessing pool: dedicated worker cores
// (per GPU, or a fixed pool for single-process samplers) prepare one
// global batch per step.
type InputStage struct {
	// Time is seconds per global batch across the worker pool.
	Time float64
	// Cores is the worker-core count feeding the pipeline.
	Cores int
}

// newInputStage sizes the worker pool and computes the per-step
// preprocessing time.
func newInputStage(sys *hw.System, j *Job, g, globalB int) *InputStage {
	totalCores := sys.CPU.Cores * sys.CPUSockets
	var cores int
	if j.FixedInputWorkers > 0 {
		cores = j.FixedInputWorkers
	} else {
		workers := j.InputWorkersPerGPU
		if workers < 1 {
			workers = 1
		}
		cores = workers * g
	}
	if cores > totalCores {
		cores = totalCores
	}
	return &InputStage{
		Time:  float64(globalB) * j.CPUSecondsPerSample / float64(cores),
		Cores: cores,
	}
}

func (s *InputStage) Kind() EventKind    { return EvInput }
func (s *InputStage) Lane() string       { return LaneCPU }
func (s *InputStage) Service() float64   { return s.Time }
func (s *InputStage) Bytes() units.Bytes { return 0 }
func (s *InputStage) FLOPs() units.FLOPs { return 0 }

// CopyStage models the host-to-device copy: each GPU pulls its local
// batch over its host path, derated when several GPUs share the same CPU
// egress link. The stage's service time is the slowest GPU's copy.
type CopyStage struct {
	// Time is the slowest GPU's copy seconds per step.
	Time float64
	// SampleBytes is the per-sample H2D payload.
	SampleBytes units.Bytes
	// StepBytes is the aggregate payload per step (global batch).
	StepBytes units.Bytes
}

// newCopyStage resolves the per-sample payload and the shared-egress copy
// time.
func newCopyStage(sys *hw.System, j *Job, gpus []string, localB, globalB int) *CopyStage {
	sampleBytes := j.Net.InputBytes
	if j.H2DBytesPerSample > 0 {
		sampleBytes = j.H2DBytesPerSample
	}
	return &CopyStage{
		Time:        h2dTime(sys, gpus, units.Bytes(localB)*sampleBytes),
		SampleBytes: sampleBytes,
		StepBytes:   units.Bytes(globalB) * sampleBytes,
	}
}

func (s *CopyStage) Kind() EventKind    { return EvH2D }
func (s *CopyStage) Lane() string       { return LanePCIe }
func (s *CopyStage) Service() float64   { return s.Time }
func (s *CopyStage) Bytes() units.Bytes { return s.StepBytes }
func (s *CopyStage) FLOPs() units.FLOPs { return 0 }

// ComputeStage models forward+backward: per-sample roofline time across
// the layer graph, inflated by kernel-gap stalls, synchronization
// imbalance across GPUs, and any fixed per-step GPU overhead.
type ComputeStage struct {
	// Time is the inflated wall time per step on one GPU.
	Time float64
	// PerSample is the un-inflated roofline seconds per sample.
	PerSample float64
	// Imbalance is the multi-GPU synchronization stretch factor.
	Imbalance float64
	// Work is the aggregate FLOPs per step across all GPUs.
	Work units.FLOPs
}

func newComputeStage(gpu *hw.GPU, j *Job, localB, globalB, g int) *ComputeStage {
	perSample := precision.StepTime(gpu, j.Net, localB, j.Precision)
	imbalance := 1 + j.Imbalance*(1-1/float64(g))
	return &ComputeStage{
		Time:      perSample*float64(localB)*(1+j.GPUIdleFrac)*imbalance + j.GPUFixedPerStep,
		PerSample: perSample,
		Imbalance: imbalance,
		Work:      j.Net.TrainFLOPs() * units.FLOPs(globalB),
	}
}

func (s *ComputeStage) Kind() EventKind    { return EvCompute }
func (s *ComputeStage) Lane() string       { return LaneGPU }
func (s *ComputeStage) Service() float64   { return s.Time }
func (s *ComputeStage) Bytes() units.Bytes { return 0 }
func (s *ComputeStage) FLOPs() units.FLOPs { return s.Work }

// AllReduceStage models the gradient collective. Only the exposed
// (non-overlapped) part occupies the gpu lane: comm hides under the
// backward pass up to an OverlapComm fraction of the collective, and
// never more than the overlap window the backward pass provides.
type AllReduceStage struct {
	// Full is the collective's full latency.
	Full float64
	// Exposed is the non-overlapped remainder that extends the step.
	Exposed float64
	// Comm is the collective's cost detail (algorithm, per-kind traffic).
	Comm comm.Result
}

// newAllReduceStage routes the collective over the topology (multi-GPU
// only; a single GPU gets a zero stage).
func newAllReduceStage(sys *hw.System, j *Job, gpus []string, computeTime float64) (*AllReduceStage, error) {
	if len(gpus) <= 1 {
		return &AllReduceStage{}, nil
	}
	var cr comm.Result
	var err error
	if j.CommViaHost {
		cr, err = comm.HostStagedAllReduce(sys.Topo, gpus, j.Net.GradientBytes())
	} else {
		cr, err = comm.AllReduce(sys.Topo, gpus, j.Net.GradientBytes())
	}
	if err != nil {
		return nil, fmt.Errorf("sim: %s on %s: %w", j.Name, sys.Name, err)
	}
	overlap := j.OverlapComm
	hidden := overlap * computeTime
	if cap := cr.Time * overlap; cap < hidden {
		hidden = cap
	}
	return &AllReduceStage{
		Full:    cr.Time,
		Exposed: cr.Time - hidden,
		Comm:    cr,
	}, nil
}

func (s *AllReduceStage) Kind() EventKind  { return EvAllReduce }
func (s *AllReduceStage) Lane() string     { return LaneGPU }
func (s *AllReduceStage) Service() float64 { return s.Exposed }

// Bytes is the total wire traffic the collective moves per step.
func (s *AllReduceStage) Bytes() units.Bytes {
	var total units.Bytes
	for _, b := range s.Comm.TrafficByKind {
		total += b
	}
	return total
}
func (s *AllReduceStage) FLOPs() units.FLOPs { return 0 }

// OptimizerStage models the weight update: it streams parameters,
// optimizer state and gradients through HBM.
type OptimizerStage struct {
	// Time is the update's wall time per step.
	Time float64
	// StepBytes is the HBM traffic per step summed over GPUs.
	StepBytes units.Bytes
}

func newOptimizerStage(gpu *hw.GPU, j *Job, g int) *OptimizerStage {
	optBytes := float64(j.Net.ParamBytes(4))*(2+float64(j.OptimizerSlots)) +
		float64(j.Net.GradientBytes())
	return &OptimizerStage{
		Time:      optBytes / (float64(gpu.MemBandwidth) * 0.7),
		StepBytes: units.Bytes(optBytes) * units.Bytes(g),
	}
}

func (s *OptimizerStage) Kind() EventKind    { return EvOptimizer }
func (s *OptimizerStage) Lane() string       { return LaneGPU }
func (s *OptimizerStage) Service() float64   { return s.Time }
func (s *OptimizerStage) Bytes() units.Bytes { return s.StepBytes }
func (s *OptimizerStage) FLOPs() units.FLOPs { return 0 }

// laneExec is one pipeline station at execution time: a serializing
// resource plus its stages, compiled once per run. Per-stage service
// times are step-invariant, so the fault-free loop reads the lane's
// precomputed total instead of re-walking the Stage interfaces every
// step.
type laneExec struct {
	name string
	res  Resource
	// total is the summed per-step service, accumulated in stage order.
	total float64
	// stages are all the lane's stages in order. A zero-service stage is
	// kept: a fault plan can still make it draw retries.
	stages []laneStage
	// steady are the positive-service stages, the fault-free partition of
	// each busy span.
	steady []SteadyStage
}

// laneStage is one compiled stage: its step-invariant service and
// payload plus its fault-target index (stages numbered in lane order,
// then stage order within a lane).
type laneStage struct {
	SteadyStage
	target int
}

// groupLanes orders stages into stations, preserving stage order within a
// lane and first-appearance order across lanes, and compiles each
// station's per-step schedule.
func groupLanes(stages []Stage) []laneExec {
	var lanes []laneExec
	for _, st := range stages {
		i := 0
		for i < len(lanes) && lanes[i].name != st.Lane() {
			i++
		}
		if i == len(lanes) {
			lanes = append(lanes, laneExec{name: st.Lane(), res: Resource{Name: st.Lane()}})
		}
		lanes[i].stages = append(lanes[i].stages, laneStage{SteadyStage: SteadyStage{
			Kind: st.Kind(), Service: st.Service(), Bytes: st.Bytes(), FLOPs: st.FLOPs(),
		}})
	}
	target := 0
	for i := range lanes {
		lane := &lanes[i]
		for si := range lane.stages {
			st := &lane.stages[si]
			st.target = target
			target++
			lane.total += st.Service
			if st.Service > 0 {
				lane.steady = append(lane.steady, st.SteadyStage)
			}
		}
	}
	return lanes
}

// prefetchDepth bounds how many batches the input pipeline may run ahead
// of the GPU, like a framework's bounded prefetch queue; without the bound
// a fast CPU would "complete" all input up front and its utilization would
// read as zero in steady state.
const prefetchDepth = 3

// runPipeline pushes len(stepEnd) training iterations through the
// stations with the discrete-event engine, filling in each step's
// completion time. A lane acquires its resource once per step for the
// summed service of its stages (stages on one station run back-to-back
// with no scheduling gap); when the span completes, one event per
// non-empty stage is published, partitioning the span in stage order,
// followed by an EvStepDone marker after the last lane.
//
// A nil fr runs the fault-free pipeline on the compiled lane totals. A
// non-nil fr applies its schedule: per-stage multipliers and retries
// (each retry run published as its own span after its stage), checkpoint
// writes at the end of gpu spans, and preemption stalls across every
// station. The fast path runs its faulty warm-up prefix through here too.
func runPipeline(lanes []laneExec, stepEnd []float64, fr *faultRun, pub publisher) {
	e := NewEngine()
	steps := len(stepEnd)
	last := len(lanes) - 1

	inflight := 0
	next := 0
	var tryLaunch func()
	var process func(step, l int)
	process = func(step, l int) {
		lane := &lanes[l]
		total, ckpt := lane.total, 0.0
		if fr != nil {
			total, ckpt = fr.laneTotal(lane, step, e.Now())
		}
		start, end := lane.res.AcquireSpan(e.Now(), total)
		e.Schedule(end, func() {
			if fr != nil {
				fr.activate(lane, step, start, pub)
			}
			// Partition [start, end] in stage order, each stage followed
			// by its retry span, the checkpoint write last; the final
			// boundary is pinned to the span end so observers reconstruct
			// the exact occupancy. The buffer holds a three-stage lane's
			// worst case (stage + retry each, then a checkpoint).
			var buf [8]Event
			evs := buf[:0]
			b := start
			for si := range lane.stages {
				st := &lane.stages[si]
				svc, n, retry := st.Service, 0, 0.0
				if fr != nil {
					svc, n, retry = fr.stageEffect(st, step)
				}
				if svc > 0 {
					evs = append(evs, Event{
						Kind:  st.Kind,
						Lane:  lane.name,
						Step:  step,
						Start: b,
						End:   b + svc,
						Bytes: st.Bytes,
						FLOPs: st.FLOPs,
					})
					b += svc
				}
				if retry > 0 {
					fr.report.Retries += n
					evs = append(evs, Event{
						Kind: EvStageRetried, Lane: lane.name, Step: step,
						Start: b, End: b + retry,
						Note: fmt.Sprintf("%s retried x%d", st.Kind, n),
					})
					b += retry
				}
			}
			if ckpt > 0 {
				evs = append(evs, fr.checkpoint(lane.name, step, b, end))
			}
			if n := len(evs); n > 0 {
				evs[n-1].End = end
			}
			for i := range evs {
				pub.publish(evs[i])
			}
			if l < last {
				process(step, l+1)
				return
			}
			stepEnd[step] = e.Now()
			pub.publish(Event{Kind: EvStepDone, Step: step, Start: e.Now(), End: e.Now()})
			if fr != nil {
				fr.preemptAt(e, lanes, step, pub)
			}
			inflight--
			tryLaunch()
		})
	}
	tryLaunch = func() {
		for next < steps && inflight < prefetchDepth {
			i := next
			next++
			inflight++
			// Later steps queue on the first lane's resource behind this
			// one, so launching them immediately is safe and keeps the
			// pool busy.
			process(i, 0)
		}
	}
	tryLaunch()
	e.Run()
}

// h2dTime computes the host-to-device copy time for one local batch,
// accounting for GPUs that share a CPU egress link (e.g. four GPUs behind
// one PLX switch divide a single x16 uplink).
func h2dTime(s *hw.System, gpus []string, perGPUBytes units.Bytes) float64 {
	if perGPUBytes <= 0 {
		return 0
	}
	type egress struct{ a, b string }
	shares := map[egress]int{}
	paths := map[string]hw.Path{}
	for _, gid := range gpus {
		p := bestHostPath(s, gid)
		paths[gid] = p
		if len(p.Hops) >= 2 {
			shares[egress{p.Hops[0], p.Hops[1]}]++
		}
	}
	var worst float64
	for _, gid := range gpus {
		p := paths[gid]
		bw := float64(p.Bottleneck)
		if len(p.Hops) >= 2 {
			if n := shares[egress{p.Hops[0], p.Hops[1]}]; n > 1 {
				// The shared first hop caps each GPU to 1/n of it.
				if shared := float64(p.Bottleneck) / float64(n); shared < bw {
					bw = shared
				}
			}
		}
		if bw <= 0 {
			continue
		}
		if t := float64(perGPUBytes) / bw; t > worst {
			worst = t
		}
	}
	return worst
}

// bestHostPath returns the widest path from any CPU to the GPU.
func bestHostPath(s *hw.System, gpu string) hw.Path {
	var best hw.Path
	for _, c := range s.Topo.CPUs() {
		if p, ok := s.Topo.WidestPath(c, gpu); ok && p.Bottleneck > best.Bottleneck {
			best = p
		}
	}
	return best
}
