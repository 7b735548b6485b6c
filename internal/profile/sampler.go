package profile

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// DstatSample is one dstat row: host-side statistics at a point in time.
type DstatSample struct {
	// TimeSec is seconds since the run started.
	TimeSec float64
	// CPUPct is total host CPU utilization (0-100).
	CPUPct float64
	// MemUsedMB is host memory in use.
	MemUsedMB float64
	// DiskReadMBs is dataset read bandwidth from storage.
	DiskReadMBs float64
	// GPUPct mirrors the dstat NVIDIA plugin: summed GPU utilization.
	GPUPct float64
}

// DmonSample is one nvidia-smi dmon row: per-GPU statistics.
type DmonSample struct {
	TimeSec float64
	GPU     int
	// SMPct is streaming-multiprocessor utilization.
	SMPct float64
	// MemUsedMB is device memory in use.
	MemUsedMB float64
	// PCIeMbps and NVLinkMbps are bus rates for this GPU.
	PCIeMbps, NVLinkMbps float64
}

// Sampler turns one profiled run into tool-shaped time series. Real
// tools sample a noisy process; the simulator's steady state plus a
// short warmup ramp reproduces the shape the paper's figures average
// over. The sampler never simulates: both analogs read the Profile a
// single sim.Run call collected, so dstat and dmon rows describe
// the same run (the paper's "one run, many tools" protocol).
type Sampler struct {
	// Interval between samples in seconds (dstat's default is 1s).
	Interval float64
	// Warmup is the ramp-up time before steady state.
	Warmup float64
}

// NewSampler returns a sampler with tool-default cadence.
func NewSampler() *Sampler { return &Sampler{Interval: 1, Warmup: 5} }

// Dstat derives `duration` seconds of host-side samples from the run.
func (s *Sampler) Dstat(p *Profile, duration float64) []DstatSample {
	res := p.Result
	interval := s.Interval
	if interval <= 0 {
		interval = 1
	}
	var out []DstatSample
	epochSeconds := float64(res.StepsPerEpoch) * res.StepTime
	diskRate := float64(p.Bench.Job.Data.DiskBytes) / 1e6 / max(epochSeconds, 1)
	for t := 0.0; t <= duration; t += interval {
		ramp := 1.0
		if s.Warmup > 0 && t < s.Warmup {
			ramp = t / s.Warmup
		}
		out = append(out, DstatSample{
			TimeSec:     t,
			CPUPct:      float64(res.CPUUtil) * ramp,
			MemUsedMB:   res.DRAMBytes.MB() * (0.5 + 0.5*ramp),
			DiskReadMBs: diskRate * ramp,
			GPUPct:      float64(res.GPUUtilTotal) * ramp,
		})
	}
	return out
}

// Dmon derives `duration` seconds of per-GPU samples from the run.
func (s *Sampler) Dmon(p *Profile, duration float64) []DmonSample {
	res := p.Result
	gpus := p.GPUs
	interval := s.Interval
	if interval <= 0 {
		interval = 1
	}
	perGPUUtil := float64(res.GPUUtilTotal) / float64(gpus)
	perGPUMem := res.HBMBytes.MB() / float64(gpus)
	perGPUPCIe := res.PCIeRate.Mbps() / float64(gpus)
	perGPUNVL := res.NVLinkRate.Mbps() / float64(gpus)
	var out []DmonSample
	for t := 0.0; t <= duration; t += interval {
		ramp := 1.0
		if s.Warmup > 0 && t < s.Warmup {
			ramp = t / s.Warmup
		}
		for g := 0; g < gpus; g++ {
			out = append(out, DmonSample{
				TimeSec:    t,
				GPU:        g,
				SMPct:      perGPUUtil * ramp,
				MemUsedMB:  perGPUMem,
				PCIeMbps:   perGPUPCIe * ramp,
				NVLinkMbps: perGPUNVL * ramp,
			})
		}
	}
	return out
}

// WriteDstatCSV exports samples the way dstat's --output does.
func WriteDstatCSV(w io.Writer, samples []DstatSample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "cpu_pct", "mem_used_mb", "disk_read_mbs", "gpu_pct"}); err != nil {
		return err
	}
	for _, s := range samples {
		rec := []string{
			f(s.TimeSec), f(s.CPUPct), f(s.MemUsedMB), f(s.DiskReadMBs), f(s.GPUPct),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteDmonCSV exports per-GPU samples.
func WriteDmonCSV(w io.Writer, samples []DmonSample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "gpu", "sm_pct", "mem_used_mb", "pcie_mbps", "nvlink_mbps"}); err != nil {
		return err
	}
	for _, s := range samples {
		rec := []string{
			f(s.TimeSec), strconv.Itoa(s.GPU), f(s.SMPct), f(s.MemUsedMB), f(s.PCIeMbps), f(s.NVLinkMbps),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteKernelCSV exports an nvprof profile.
func WriteKernelCSV(w io.Writer, recs []KernelRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kernel", "invocations", "total_time_s", "gflops", "mem_mb"}); err != nil {
		return err
	}
	for _, r := range recs {
		rec := []string{
			r.Name, strconv.Itoa(r.Invocations), f(r.TotalTime), f(r.FLOPs.G()), f(r.MemBytes.MB()),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return fmt.Sprintf("%.4f", v) }
