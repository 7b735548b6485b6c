// Command mlperf-profile runs the measurement toolchain — the nvprof,
// dstat and nvidia-smi-dmon analogs — against ONE simulated training run
// and writes their outputs, plus a Chrome-trace timeline of the training
// pipeline. Like the paper's protocol, every tool observes the same run:
// the simulator executes once with the profiler subscribed to its event
// stream, and each artifact below is a different view of that stream.
//
//	mlperf-profile -bench MLPf_Res50_TF -system c4140k -gpus 4 -out /tmp/prof
//
// writes:
//
//	/tmp/prof/dstat.csv      host time series (dstat --output style)
//	/tmp/prof/dmon.csv       per-GPU time series (nvidia-smi dmon style)
//	/tmp/prof/kernels.csv    per-kernel profile (nvprof ROI style)
//	/tmp/prof/trace.json     pipeline timeline for chrome://tracing
//
// and prints the characteristics vector and a text timeline.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"mlperf/internal/fault"
	"mlperf/internal/hw"
	"mlperf/internal/profile"
	"mlperf/internal/sim"
	"mlperf/internal/telecli"
	"mlperf/internal/telemetry"
	"mlperf/internal/workload"
)

func main() {
	bench := flag.String("bench", "MLPf_Res50_TF", "benchmark abbreviation")
	system := flag.String("system", "c4140k", "system name")
	gpus := flag.Int("gpus", 1, "GPU count")
	duration := flag.Float64("duration", 60, "seconds of dstat/dmon samples")
	out := flag.String("out", "profile-out", "output directory")
	faults := flag.String("faults", "", "JSON fault-plan file applied to the profiled run")
	sink := telecli.Register("mlperf-profile", nil)
	flag.Parse()

	os.Exit(sink.Run(nil, func() error {
		return run(*bench, *system, *gpus, *duration, *out, *faults, sink)
	}))
}

func run(benchName, systemName string, gpus int, duration float64, outDir, faultsPath string, sink *telecli.Sink) error {
	b, err := workload.ByName(benchName)
	if err != nil {
		return err
	}
	sys, err := hw.SystemByName(systemName)
	if err != nil {
		return err
	}
	var plan *fault.Plan
	if faultsPath != "" {
		raw, err := os.ReadFile(faultsPath)
		if err != nil {
			return err
		}
		if plan, err = fault.Parse(string(raw)); err != nil {
			return fmt.Errorf("-faults %s: %w", faultsPath, err)
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	// One simulation; every tool below reads the resulting profile. The
	// telemetry observer (a no-op when -metrics/-manifest are unset)
	// rides the same run as the samplers.
	p, err := profile.CollectWithFaults(b, sys, gpus, plan, sim.NewTelemetryObserver(sink.Reg))
	if err != nil {
		return err
	}
	if sink.Enabled() {
		sink.Config("bench", b.Abbrev)
		sink.Config("system", sys.Name)
		sink.Config("gpus", strconv.Itoa(p.GPUs))
		sink.Manifest.SimulatedSeconds = p.Result.TimeToTrain.Seconds()
		if plan != nil {
			sink.Manifest.Seed = plan.Seed
			if canon, err := plan.Canon(); err == nil {
				sink.Manifest.FaultPlanHash = telemetry.HashPlan(canon)
			}
		}
	}
	sampler := profile.NewSampler()

	if err := writeFile(filepath.Join(outDir, "dstat.csv"), func(f *os.File) error {
		return profile.WriteDstatCSV(f, sampler.Dstat(p, duration))
	}); err != nil {
		return err
	}

	if err := writeFile(filepath.Join(outDir, "dmon.csv"), func(f *os.File) error {
		return profile.WriteDmonCSV(f, sampler.Dmon(p, duration))
	}); err != nil {
		return err
	}

	recs := p.Kernels(16)
	if err := writeFile(filepath.Join(outDir, "kernels.csv"), func(f *os.File) error {
		return profile.WriteKernelCSV(f, recs)
	}); err != nil {
		return err
	}

	if err := writeFile(filepath.Join(outDir, "trace.json"), func(f *os.File) error {
		return p.Timeline().WriteChromeTrace(f)
	}); err != nil {
		return err
	}

	chars := p.Characteristics()
	fmt.Printf("%s on %s with %d GPU(s)\n\n", b.Abbrev, sys.Name, p.GPUs)
	fmt.Println("workload characteristics (the Figure 1 feature vector):")
	for i, name := range profile.CharacteristicNames {
		fmt.Printf("  %-24s %12.2f\n", name, chars.Values[i])
	}
	fmt.Println()
	fmt.Print(p.Timeline().RenderText(72))
	ai, rate := profile.RooflinePoint(recs)
	fmt.Printf("\nroofline point: AI %.2f FLOP/B at %.1f GFLOPS\n", float64(ai), rate.G())
	fmt.Printf("\nwrote dstat.csv, dmon.csv, kernels.csv, trace.json to %s\n", outDir)
	return nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	return f.Close()
}
