// Package profile reimplements the paper's measurement toolchain against
// the simulator: an nvprof analog (per-kernel invocations, durations, FLOP
// counts, memory transactions over a region of interest), a dstat analog
// (time series of host CPU, memory, and I/O), and a dmon analog (per-GPU
// SM utilization, memory, and bus counters). It also assembles the
// 8-dimensional workload-characteristic vectors the paper feeds to PCA
// (§IV-A): PCIe utilization, GPU utilization, CPU utilization, DDR
// footprint, HBM2 footprint, FLOP throughput, memory throughput, and
// number of epochs.
//
// Like the paper's toolchain — where nvprof, dstat and nvidia-smi dmon
// all watch the same real training run — every analog here reads from
// one Profile, collected by subscribing to a single simulation's event
// stream (sim.Run). Collect simulates once; the samplers, the
// characteristics vector and the Chrome-trace export then derive their
// views without re-running the simulator.
package profile

import (
	"fmt"

	"mlperf/internal/fault"
	"mlperf/internal/hw"
	"mlperf/internal/precision"
	"mlperf/internal/sim"
	"mlperf/internal/units"
	"mlperf/internal/workload"
)

// CharacteristicNames lists the eight features in PCA column order.
var CharacteristicNames = []string{
	"pcie_util_mbps",
	"gpu_util_pct",
	"cpu_util_pct",
	"ddr_footprint_mb",
	"hbm_footprint_mb",
	"flop_throughput_gflops",
	"mem_throughput_gbps",
	"epochs",
}

// Characteristics is one benchmark's feature vector.
type Characteristics struct {
	Bench  string
	Values [8]float64
}

// Profile is everything the measurement toolchain derives from ONE
// simulated run: the aggregate Result (itself assembled by the
// simulator's built-in observers) plus the raw event stream. The dstat
// and dmon samplers, the characteristics vector, the nvprof analog and
// the Chrome-trace export all read from here, so their outputs provably
// describe the same run.
type Profile struct {
	Bench  workload.Benchmark
	System *hw.System
	// GPUs is the realized device count (requests are clamped to the
	// system, mirroring the simulator).
	GPUs   int
	Result *sim.Result
	// Events is the full stage-event stream in publication order.
	Events []sim.Event
}

// Collect simulates the benchmark once with the profiler's observers
// subscribed and returns the shared profile every tool reads from.
func Collect(b workload.Benchmark, system *hw.System, gpus int) (*Profile, error) {
	return CollectWithFaults(b, system, gpus, nil)
}

// CollectWithFaults is Collect under a fault plan: the run is simulated
// through the fault layer (stragglers, retries, checkpoints, restarts
// land on the event stream and the timeline's "faults" lane), and any
// extra observers — a sim.TelemetryObserver, an external log — ride the
// same single simulation. A nil or empty plan is the plain Collect path.
func CollectWithFaults(b workload.Benchmark, system *hw.System, gpus int, plan *fault.Plan, obs ...sim.Observer) (*Profile, error) {
	log := &sim.EventLog{}
	cfg := sim.Config{System: system, GPUCount: gpus, Job: b.Job}
	all := append([]sim.Observer{log}, obs...)
	res, err := sim.RunWithFaults(cfg, plan, all...)
	if err != nil {
		return nil, err
	}
	if gpus <= 0 || gpus > system.GPUCount {
		gpus = system.GPUCount
	}
	return &Profile{Bench: b, System: system, GPUs: gpus, Result: res, Events: log.Events}, nil
}

// Timeline returns the run's station timeline (Chrome-trace exportable),
// rebuilt from the same event stream the samplers consume.
func (p *Profile) Timeline() *sim.Timeline { return p.Result.Timeline }

// Kernels returns the nvprof-analog per-kernel records for `steps`
// profiled steps of the run's benchmark on its GPU model.
func (p *Profile) Kernels(steps int) []KernelRecord {
	return Nvprof(p.Bench, &p.System.GPU, steps)
}

// Characteristics extracts the paper's eight features from the run.
func (p *Profile) Characteristics() Characteristics {
	res, b := p.Result, p.Bench
	// Achieved FLOP throughput: training FLOPs per wall second.
	flops := float64(b.Job.Net.TrainFLOPs()) * res.Throughput / 1e9
	// HBM traffic throughput.
	memBW := float64(b.Job.Net.TrainMemTraffic()) * res.Throughput / 1e9
	return Characteristics{
		Bench: b.Abbrev,
		Values: [8]float64{
			res.PCIeRate.Mbps(),
			float64(res.GPUUtilTotal),
			float64(res.CPUUtil),
			res.DRAMBytes.MB(),
			res.HBMBytes.MB(),
			flops,
			memBW,
			b.Job.EpochsToTarget,
		},
	}
}

// Characterize profiles one benchmark on a system/GPU-count and extracts
// the paper's eight characteristics from the simulated run.
func Characterize(b workload.Benchmark, system *hw.System, gpus int) (Characteristics, error) {
	p, err := Collect(b, system, gpus)
	if err != nil {
		return Characteristics{}, err
	}
	return p.Characteristics(), nil
}

// CharacterizeAll profiles every benchmark of the given suites at the
// given GPU count on the system (the paper uses 1 GPU on the C4140 (K) for
// the Figure 1 workload space).
func CharacterizeAll(benches []workload.Benchmark, system *hw.System, gpus int) ([]Characteristics, error) {
	out := make([]Characteristics, 0, len(benches))
	for _, b := range benches {
		c, err := Characterize(b, system, gpus)
		if err != nil {
			return nil, fmt.Errorf("profile: %s: %w", b.Abbrev, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// KernelRecord is one nvprof row: a kernel with its invocation count and
// aggregate cost over the profiled region.
type KernelRecord struct {
	Name        string
	Invocations int
	// TotalTime is the aggregate duration in seconds.
	TotalTime float64
	// FLOPs counts floating-point operations across invocations.
	FLOPs units.FLOPs
	// MemBytes counts DRAM read+write transactions (bytes).
	MemBytes units.Bytes
}

// Nvprof profiles `steps` training steps of a benchmark on one GPU,
// returning per-kernel records like nvprof's ROI mode. Each layer
// contributes its forward and two backward kernels.
func Nvprof(b workload.Benchmark, gpu *hw.GPU, steps int) []KernelRecord {
	if steps < 1 {
		steps = 1
	}
	batch := b.Job.LocalBatchFor(1)
	recs := make([]KernelRecord, 0, len(b.Job.Net.Layers))
	for _, l := range b.Job.Net.Layers {
		t := precision.LayerTime(gpu, l, batch, b.Job.Precision)
		// Physical floor: a kernel's wall time cannot undercut its DRAM
		// transaction volume over the bus, or the profile would place the
		// workload above the roofline envelope.
		if floor := float64(precision.LayerTraffic(l, b.Job.Precision)) /
			(float64(gpu.MemBandwidth) * 0.95); t < floor {
			t = floor
		}
		recs = append(recs, KernelRecord{
			Name:        l.Name,
			Invocations: 3 * steps, // fwd, bwd-data, bwd-weight
			TotalTime:   t * float64(batch) * float64(steps),
			FLOPs:       3 * l.FwdFLOPs * units.FLOPs(batch*steps),
			MemBytes:    precision.LayerTraffic(l, b.Job.Precision) * units.Bytes(batch*steps),
		})
	}
	return recs
}

// RooflinePoint reduces an nvprof profile to the (arithmetic intensity,
// achieved FLOPS) coordinates the paper plots in Figure 2.
func RooflinePoint(recs []KernelRecord) (units.Intensity, units.FLOPSRate) {
	var flops units.FLOPs
	var bytes units.Bytes
	var t float64
	for _, r := range recs {
		flops += r.FLOPs
		bytes += r.MemBytes
		t += r.TotalTime
	}
	if t <= 0 {
		return 0, 0
	}
	return units.IntensityOf(flops, bytes), units.FLOPSRate(float64(flops) / t)
}
