package sim

import (
	"fmt"

	"mlperf/internal/comm"
	"mlperf/internal/hw"
	"mlperf/internal/precision"
	"mlperf/internal/units"
)

// stage is one station task of the training pipeline: the lane
// (station) it occupies and its per-step service time and payload.
// Stages sharing a lane run back-to-back on the same resource; the
// pipeline executes stages over the discrete-event Engine and publishes
// one typed Event per stage per step. Each constructor below owns its
// slice of the performance model.
type stage struct {
	lane string
	SteadyStage
}

// newInputStage models the host preprocessing pool: dedicated worker
// cores (per GPU, or a fixed pool for single-process samplers) prepare
// one global batch per step. It returns the stage and the worker-core
// count feeding the pipeline.
func newInputStage(sys *hw.System, j *Job, g, globalB int) (stage, int) {
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
	return stage{LaneCPU, SteadyStage{
		Kind:    EvInput,
		Service: float64(globalB) * j.CPUSecondsPerSample / float64(cores),
	}}, cores
}

// newCopyStage models the host-to-device copy: each GPU pulls its local
// batch over its host path, derated when several GPUs share the same
// CPU egress link. The service time is the slowest GPU's copy; the
// payload is the global batch's.
func newCopyStage(sys *hw.System, j *Job, gpus []string, localB, globalB int) stage {
	sampleBytes := j.Net.InputBytes
	if j.H2DBytesPerSample > 0 {
		sampleBytes = j.H2DBytesPerSample
	}
	return stage{LanePCIe, SteadyStage{
		Kind:    EvH2D,
		Service: h2dTime(sys, gpus, units.Bytes(localB)*sampleBytes),
		Bytes:   units.Bytes(globalB) * sampleBytes,
	}}
}

// newComputeStage models forward+backward: per-sample roofline time
// across the layer graph, inflated by kernel-gap stalls,
// synchronization imbalance across GPUs, and any fixed per-step GPU
// overhead. It returns the stage and the un-inflated kernel seconds per
// step (the roofline time stretched only by the imbalance), which is
// what keeps the SMs busy.
func newComputeStage(gpu *hw.GPU, j *Job, localB, globalB, g int) (stage, float64) {
	perSample := precision.StepTime(gpu, j.Net, localB, j.Precision)
	imbalance := 1 + j.Imbalance*(1-1/float64(g))
	return stage{LaneGPU, SteadyStage{
		Kind:    EvCompute,
		Service: perSample*float64(localB)*(1+j.GPUIdleFrac)*imbalance + j.GPUFixedPerStep,
		FLOPs:   j.Net.TrainFLOPs() * units.FLOPs(globalB),
	}}, perSample * float64(localB) * imbalance
}

// newAllReduceStage models the gradient collective, routed over the
// topology (multi-GPU only; a single GPU gets a zero stage). Only the
// exposed (non-overlapped) part occupies the gpu lane: comm hides under
// the backward pass up to an OverlapComm fraction of the collective,
// and never more than the overlap window the backward pass provides.
// The payload is the collective's total wire traffic per step; the
// returned comm.Result is its full cost detail.
func newAllReduceStage(sys *hw.System, j *Job, gpus []string, computeTime float64) (stage, comm.Result, error) {
	st := stage{LaneGPU, SteadyStage{Kind: EvAllReduce}}
	if len(gpus) <= 1 {
		return st, comm.Result{}, nil
	}
	var cr comm.Result
	var err error
	if j.CommViaHost {
		cr, err = comm.HostStagedAllReduce(sys.Topo, gpus, j.Net.GradientBytes())
	} else {
		cr, err = comm.AllReduce(sys.Topo, gpus, j.Net.GradientBytes())
	}
	if err != nil {
		return stage{}, comm.Result{}, fmt.Errorf("sim: %s on %s: %w", j.Name, sys.Name, err)
	}
	overlap := j.OverlapComm
	hidden := overlap * computeTime
	if cap := cr.Time * overlap; cap < hidden {
		hidden = cap
	}
	st.Service = cr.Time - hidden
	for _, b := range cr.TrafficByKind {
		st.Bytes += b
	}
	return st, cr, nil
}

// newOptimizerStage models the weight update: it streams parameters,
// optimizer state and gradients through HBM.
func newOptimizerStage(gpu *hw.GPU, j *Job, g int) stage {
	optBytes := float64(j.Net.ParamBytes(4))*(2+float64(j.OptimizerSlots)) +
		float64(j.Net.GradientBytes())
	return stage{LaneGPU, SteadyStage{
		Kind:    EvOptimizer,
		Service: optBytes / (float64(gpu.MemBandwidth) * 0.7),
		Bytes:   units.Bytes(optBytes) * units.Bytes(g),
	}}
}

// laneExec is one pipeline station at execution time: a serializing
// resource plus its stages, compiled once per run. Per-stage service
// times are step-invariant, so the fault-free loop reads the lane's
// precomputed total instead of re-walking the stages every step.
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
func groupLanes(stages []stage) []laneExec {
	var lanes []laneExec
	for _, st := range stages {
		i := 0
		for i < len(lanes) && lanes[i].name != st.lane {
			i++
		}
		if i == len(lanes) {
			lanes = append(lanes, laneExec{name: st.lane, res: Resource{Name: st.lane}})
		}
		lanes[i].stages = append(lanes[i].stages, laneStage{SteadyStage: st.SteadyStage})
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
