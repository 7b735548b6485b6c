package sim

import (
	"fmt"
	"math"
	"time"

	"mlperf/internal/comm"
	"mlperf/internal/dataset"
	"mlperf/internal/fault"
	"mlperf/internal/hw"
	"mlperf/internal/model"
	"mlperf/internal/precision"
	"mlperf/internal/units"
)

// Job is everything the simulator needs to know about one training
// workload. The calibration fields encode implementation behaviour the
// paper's measurements reflect but a layer graph cannot derive (input
// pipeline cost, comm/compute overlap quality, allocator policy); their
// per-benchmark values and rationale live in internal/workload/calibrate.go.
type Job struct {
	Name string
	Net  *model.Network
	Data dataset.Dataset
	// EpochsToTarget is the epoch count needed to reach the Table II
	// quality target.
	EpochsToTarget float64
	// BatchPerGPU is the reference per-GPU minibatch.
	BatchPerGPU int
	// MaxGlobalBatch caps the global batch (0 = uncapped); MovieLens's
	// small size caps NCF here, which is what limits its scaling (§IV-D).
	MaxGlobalBatch int
	// Precision selects fp32 vs AMP execution.
	Precision precision.Config
	// OptimizerSlots is per-parameter fp32 optimizer state words.
	OptimizerSlots int

	// Calibration knobs:

	// OverlapComm is the fraction of all-reduce hidden under backward.
	OverlapComm float64
	// CPUSecondsPerSample is host preprocessing core-seconds per sample.
	CPUSecondsPerSample float64
	// InputWorkersPerGPU is how many host cores feed each GPU.
	InputWorkersPerGPU int
	// HostSerialPerEpoch is non-parallelizable host work per epoch
	// (shuffling, negative sampling) — the Amdahl term that caps NCF.
	HostSerialPerEpoch float64
	// HostBaseBytes is the DRAM footprint independent of GPU count.
	HostBaseBytes units.Bytes
	// HostBytesPerGPU is DRAM staging per training process.
	HostBytesPerGPU units.Bytes
	// GreedyHBM marks frameworks that preallocate nearly all of device
	// memory (TensorFlow, and the tuned MLPerf submissions).
	GreedyHBM bool
	// GPUIdleFrac inflates compute time for kernel-gap stalls.
	GPUIdleFrac float64
	// GPUFixedPerStep is a constant GPU-side cost per step independent of
	// batch size (launch storms, per-step eval/sync); it is what caps
	// NCF's scaling beyond the batch-size ceiling.
	GPUFixedPerStep float64
	// Imbalance inflates multi-GPU compute by (1 + Imbalance*(1-1/g)):
	// synchronized data parallelism waits for the slowest GPU, and
	// variable-size inputs (Mask R-CNN's images) make that wait grow with
	// GPU count.
	Imbalance float64
	// EpochGrowthPerDouble models large-batch convergence cost: epochs to
	// target scale by (1+a)^log2(globalBatch/BatchPerGPU). MLPerf entries
	// need more epochs at larger global batches (LR scaling, warmup).
	EpochGrowthPerDouble float64
	// FixedInputWorkers, when positive, fixes the host input pool size
	// instead of scaling it with GPU count (single-process samplers).
	FixedInputWorkers int
	// H2DBytesPerSample overrides Net.InputBytes for the host-to-device
	// payload (pipelines that ship augmented or cached intermediates).
	H2DBytesPerSample units.Bytes
	// ActLiveFrac is the fraction of activation memory simultaneously
	// live on the device (frameworks free or recompute the rest);
	// 0 means 1.0.
	ActLiveFrac float64
	// CommViaHost forces the collective through host memory even when
	// peer-to-peer routes exist — TensorFlow's replicated-variable
	// all-reduce staged over PCIe, visible in Table V where Res50_TF
	// moves gradient traffic on PCIe rather than NVLink.
	CommViaHost bool
}

// Validate reports configuration errors, including calibration knobs
// outside their [0,1] domain.
func (j *Job) Validate() error {
	if j.Net == nil {
		return fmt.Errorf("sim: job %q has no network", j.Name)
	}
	if j.BatchPerGPU < 1 {
		return fmt.Errorf("sim: job %q batch %d", j.Name, j.BatchPerGPU)
	}
	if j.EpochsToTarget <= 0 {
		return fmt.Errorf("sim: job %q epochs %v", j.Name, j.EpochsToTarget)
	}
	if j.Data.TrainSamples <= 0 {
		return fmt.Errorf("sim: job %q has empty dataset", j.Name)
	}
	for _, k := range []struct {
		name string
		v    float64
	}{
		{"OverlapComm", j.OverlapComm},
		{"ActLiveFrac", j.ActLiveFrac},
		{"GPUIdleFrac", j.GPUIdleFrac},
		{"Imbalance", j.Imbalance},
	} {
		if k.v < 0 || k.v > 1 || math.IsNaN(k.v) {
			return fmt.Errorf("sim: job %q %s %v outside [0,1]", j.Name, k.name, k.v)
		}
	}
	return nil
}

// Config selects where and how to run a Job.
type Config struct {
	System *hw.System
	// GPUCount uses the first N GPUs of the system (0 = all).
	GPUCount int
	Job      Job
	// Steps is how many pipeline steps to simulate for the steady state
	// (default 32).
	Steps int
	// FastPath selects whether the run may collapse steady-state steps
	// analytically (FastPathAuto, the default, with fallback), must walk
	// the discrete-event pipeline (FastPathOff), or must take the fast
	// path or fail (FastPathForce). Either path yields bit-identical
	// results; see FastPathMode.
	FastPath FastPathMode
	// NoTimeline skips materializing Result.Timeline (it comes back with
	// its lanes registered but empty). Sweeps aggregate Records and never
	// render per-run timelines, so they opt out of the one Result field
	// whose cost grows with Steps. All other fields are unaffected.
	NoTimeline bool
}

// Phases is the per-step time breakdown in seconds.
type Phases struct {
	// Input is the host preprocessing time per global batch.
	Input float64
	// H2D is the host-to-device copy time (slowest GPU).
	H2D float64
	// Compute is forward+backward on one GPU.
	Compute float64
	// AllReduce is the full collective latency.
	AllReduce float64
	// ExposedComm is the non-overlapped part of AllReduce.
	ExposedComm float64
	// Optimizer is the weight-update time.
	Optimizer float64
}

// Result is one simulated training run.
type Result struct {
	Phases
	// StepTime is the steady-state pipeline step latency in seconds.
	StepTime float64
	// LocalBatch and GlobalBatch are the realized batch sizes.
	LocalBatch, GlobalBatch int
	// StepsPerEpoch at the realized global batch.
	StepsPerEpoch int
	// TimeToTrain is the MLPerf metric: wall clock to the quality target.
	TimeToTrain time.Duration
	// Throughput is global samples per second.
	Throughput float64
	// CPUUtil is host utilization over all cores (Table V).
	CPUUtil units.Percent
	// GPUUtilTotal sums per-GPU utilization (400% max on 4 GPUs).
	GPUUtilTotal units.Percent
	// DRAMBytes and HBMBytes are the Table V footprints (HBM summed over
	// GPUs).
	DRAMBytes, HBMBytes units.Bytes
	// PCIeRate and NVLinkRate are aggregate bus rates (Table V, Mbps).
	PCIeRate, NVLinkRate units.BytesPerSecond
	// Comm is the all-reduce cost detail.
	Comm comm.Result
	// Timeline is the labeled station occupancy of the simulated steps,
	// rebuilt from the event stream by the built-in TimelineObserver and
	// exportable as a Chrome trace (WriteChromeTrace).
	Timeline *Timeline
	// Faults reports what a fault plan injected and what it cost; nil
	// for fault-free runs (see RunWithFaults).
	Faults *FaultReport
}

// LocalBatchFor returns the per-GPU batch after the global-batch cap.
func (j *Job) LocalBatchFor(gpus int) int {
	b := j.BatchPerGPU
	if j.MaxGlobalBatch > 0 && b*gpus > j.MaxGlobalBatch {
		b = j.MaxGlobalBatch / gpus
		if b < 1 {
			b = 1
		}
	}
	return b
}

// Run simulates the job once while streaming every stage event to obs,
// alongside the built-in timeline and counter observers that assemble
// the Result. One simulation therefore feeds every consumer — the
// paper's "one real run, many tools watching" structure: the Chrome
// trace, the Table V counters and the dstat/dmon/nvprof analogs
// (internal/profile) all subscribe to this stream rather than
// re-running the simulator.
func Run(cfg Config, obs ...Observer) (*Result, error) {
	return runObserved(cfg, nil, obs)
}

// runObserved is the shared core behind Run (plan == nil, the
// fault-free pipeline) and RunWithFaults (a compiled fault schedule rides
// along as runPipeline's fault input). Every fault hook is behind a nil
// check, so a fault-free run reads only the compiled lane totals.
func runObserved(cfg Config, plan *fault.Plan, obs []Observer) (*Result, error) {
	if cfg.System == nil {
		return nil, fmt.Errorf("sim: nil system")
	}
	if err := cfg.Job.Validate(); err != nil {
		return nil, err
	}
	g := cfg.GPUCount
	if g <= 0 || g > cfg.System.GPUCount {
		g = cfg.System.GPUCount
	}
	steps := cfg.Steps
	if steps <= 0 {
		steps = 32
	}
	j := &cfg.Job
	gpus := cfg.System.GPUIDs()[:g]
	gpu := &cfg.System.GPU

	localB := j.LocalBatchFor(g)
	globalB := localB * g

	// Build the stages; each constructor owns its slice of the
	// performance model.
	input, cores := newInputStage(cfg.System, j, g, globalB)
	h2d := newCopyStage(cfg.System, j, gpus, localB, globalB)
	compute, kernelTime := newComputeStage(gpu, j, localB, globalB, g)
	allreduce, cr, err := newAllReduceStage(cfg.System, j, gpus, compute.Service)
	if err != nil {
		return nil, err
	}
	optimizer := newOptimizerStage(gpu, j, g)

	ph := Phases{
		Input:       input.Service,
		H2D:         h2d.Service,
		Compute:     compute.Service,
		AllReduce:   cr.Time,
		ExposedComm: allreduce.Service,
		Optimizer:   optimizer.Service,
	}
	gpuWork := ph.Compute + ph.ExposedComm + ph.Optimizer

	// Execute the stage pipeline, publishing every span to the built-in
	// observers plus any external subscribers.
	stages := []stage{input, h2d, compute, allreduce, optimizer}
	lanes := groupLanes(stages)
	var fr *faultRun
	var snapshot units.Bytes
	tlLanes := []string{LaneCPU, LanePCIe, LaneGPU}
	if plan != nil {
		snapshot = units.Bytes(float64(j.Net.ParamBytes(4)) +
			float64(j.Net.OptimizerStateBytes(j.OptimizerSlots)))
		if fr, err = newFaultRun(plan, lanes, steps, snapshot); err != nil {
			return nil, err
		}
		tlLanes = append(tlLanes, LaneFaults)
	}
	use := newUsageObserver()
	tl := NewTimelineObserver(tlLanes...)
	pub := make(publisher, 0, 2+len(obs))
	pub = append(pub, use)
	if !cfg.NoTimeline {
		pub = append(pub, tl)
	}
	pub = append(pub, obs...)
	var stepEnd []float64
	if cfg.FastPath != FastPathOff {
		fastEnd, dirty, reason := tryFastPipeline(lanes, fr, steps, pub)
		if fastEnd == nil && cfg.FastPath == FastPathForce {
			return nil, &FastPathError{Reason: reason}
		}
		if fastEnd == nil && dirty {
			// The abandoned attempt pushed warm-up steps through the
			// stations; rebuild them untouched for the slow run.
			lanes = groupLanes(stages)
			if fr, err = newFaultRun(plan, lanes, steps, snapshot); err != nil {
				return nil, err
			}
		}
		stepEnd = fastEnd
	}
	if stepEnd == nil {
		stepEnd = make([]float64, steps)
		runPipeline(lanes, stepEnd, fr, pub)
	}

	// Steady-state step time over the back half of the run. Checkpoint
	// writes and preemption stalls are subtracted from a faulted window:
	// their cost is charged once, analytically, further down.
	half := steps / 2
	if half < 1 {
		half = 1
	}
	var stepTime float64
	if steps > half {
		window := stepEnd[steps-1] - stepEnd[half-1]
		if fr != nil {
			window -= fr.excludedOverlap(stepEnd[half-1], stepEnd[steps-1])
		}
		stepTime = window / float64(steps-half)
	} else {
		stepTime = stepEnd[steps-1]
	}
	if stepTime <= 0 {
		stepTime = gpuWork + ph.Input + ph.H2D
	}
	span := [2]float64{stepEnd[half-1], stepEnd[steps-1]}

	stepsPerEpoch := j.Data.TrainSamples / globalB
	if stepsPerEpoch < 1 {
		stepsPerEpoch = 1
	}
	epochs := j.EpochsToTarget
	if j.EpochGrowthPerDouble > 0 && globalB > j.BatchPerGPU {
		doublings := math.Log2(float64(globalB) / float64(j.BatchPerGPU))
		epochs *= math.Pow(1+j.EpochGrowthPerDouble, doublings)
	}
	epochTime := float64(stepsPerEpoch)*stepTime + j.HostSerialPerEpoch
	tttSec := epochs * epochTime
	if fr != nil {
		// Checkpoint overhead applies at steady state across the whole
		// run; every plan preemption (fired in-window or not) charges
		// its restart + replay once.
		fr.chargeRemaining()
		if f := fr.report.CheckpointOverheadFrac; f > 0 {
			tttSec *= 1 + f
		}
		tttSec += fr.report.RestartSeconds
	}
	ttt := units.Seconds(tttSec)

	res := &Result{
		Phases:        ph,
		StepTime:      stepTime,
		LocalBatch:    localB,
		GlobalBatch:   globalB,
		StepsPerEpoch: stepsPerEpoch,
		TimeToTrain:   ttt,
		Throughput:    float64(globalB) / stepTime,
		Comm:          cr,
		Timeline:      tl.Timeline(),
	}
	if fr != nil {
		res.Faults = &fr.report
	}

	// Utilizations over the steady-state span. Kernel-gap stalls
	// (GPUIdleFrac) stretch the step but leave the SMs idle, so the
	// dmon-style utilization counts only the un-inflated kernel time plus
	// collective kernels.
	gpuBusy := use.utilizationOver(LaneGPU, span[0], span[1])
	busyWork := kernelTime + j.GPUFixedPerStep + ph.Optimizer + ph.ExposedComm
	if gpuWorkTotal := ph.Compute + ph.ExposedComm + ph.Optimizer; gpuWorkTotal > 0 {
		gpuBusy *= busyWork / gpuWorkTotal
	}
	if gpuBusy > 1 {
		gpuBusy = 1
	}
	res.GPUUtilTotal = units.Percent(gpuBusy * 100 * float64(g))
	// CPU: input workers + serialized per-epoch work amortized per step +
	// a small OS floor.
	totalCores := cfg.System.CPU.Cores * cfg.System.CPUSockets
	serialPerStep := j.HostSerialPerEpoch / float64(stepsPerEpoch)
	coreSeconds := use.utilizationOver(LaneCPU, span[0], span[1])*float64(cores)*stepTime +
		serialPerStep + 0.004*float64(totalCores)*stepTime
	res.CPUUtil = units.Percent(coreSeconds / (stepTime * float64(totalCores)) * 100).Clamp(100)

	// Footprints.
	res.DRAMBytes = j.HostBaseBytes + units.Bytes(g)*j.HostBytesPerGPU
	res.HBMBytes = units.Bytes(g) * hbmPerGPU(j, gpu, localB)

	// Bus rates: input H2D plus the collective traffic split by link
	// kind. PCIe follows the paper's "sum over GPUs" semantics; NVLink is
	// reported as the mean per-GPU rate, the closest consistent reading
	// of the nvidia-smi lane counters (see EXPERIMENTS.md).
	pcieBytes := float64(h2d.Bytes)
	var nvlinkBytes float64
	if g > 1 {
		pcieBytes += float64(cr.TrafficByKind[hw.PCIe3])
		nvlinkBytes = float64(cr.TrafficByKind[hw.NVLink]) / float64(g)
	}
	res.PCIeRate = units.BytesPerSecond(pcieBytes / stepTime)
	res.NVLinkRate = units.BytesPerSecond(nvlinkBytes / stepTime)
	return res, nil
}

// hbmPerGPU estimates per-device memory: weights, gradients, optimizer
// state, activations for the local batch, workspace, and context — or a
// greedy grab of ~97% of the device for allocator-greedy frameworks.
func hbmPerGPU(j *Job, gpu *hw.GPU, localB int) units.Bytes {
	live := j.ActLiveFrac
	if live <= 0 || live > 1 {
		live = 1
	}
	need := float64(j.Net.ParamBytes(4)) +
		float64(j.Net.GradientBytes()) +
		float64(j.Net.OptimizerStateBytes(j.OptimizerSlots)) +
		float64(j.Net.PeakActivationBytes())*float64(localB)*precision.MemoryScale(j.Precision)*live +
		float64(units.GiB) // workspace + CUDA context
	capFrac := 0.93 * float64(gpu.MemCapacity)
	if j.GreedyHBM && need < capFrac {
		return units.Bytes(capFrac)
	}
	if need > capFrac {
		need = capFrac
	}
	return units.Bytes(need)
}
