// Command mlperf-sched schedules a mix of MLPerf training jobs on a
// multi-GPU machine (paper Figure 4): it simulates each benchmark's
// duration at every GPU width, then compares the naive all-GPUs-sequential
// policy against the optimal plan found by search.
//
//	mlperf-sched                      the paper's 7-benchmark mix on 4 GPUs
//	mlperf-sched -gpus 8
//	mlperf-sched -jobs res50_tf,ncf_py,xfmr_py -gpus 2
//
// With -online the offline study becomes an online multi-tenant
// scheduler: a synthetic arrival trace runs on a fleet of catalog
// machines under a pluggable policy, with preemptions priced through
// the checkpoint/restart model.
//
//	mlperf-sched -online                        compare all policies
//	mlperf-sched -online -policy srtf           one policy, per-job outcomes
//	mlperf-sched -online -policy srtf -trace cluster.json
//	mlperf-sched -online -machines dss8440,dss8440 -n 20 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mlperf/internal/atomicfile"
	"mlperf/internal/experiments"
	"mlperf/internal/hw"
	"mlperf/internal/sched"
	"mlperf/internal/sim"
	"mlperf/internal/sweep"
	"mlperf/internal/telecli"
	"mlperf/internal/telemetry"
	"mlperf/internal/workload"
)

func main() {
	gpus := flag.Int("gpus", 4, "GPU count of the machine (offline mode)")
	jobsFlag := flag.String("jobs", "", "comma-separated benchmark names (default: all 7 MLPerf)")
	online := flag.Bool("online", false, "run the online multi-tenant cluster scheduler")
	policy := flag.String("policy", "", "online: policy to run (fifo, srtf, lpt, moldable); empty compares all")
	n := flag.Int("n", 12, "online: jobs in the synthetic arrival trace")
	seed := flag.Int64("seed", 1, "online: arrival trace seed")
	gap := flag.Float64("gap", 1800, "online: mean interarrival gap in seconds")
	machines := flag.String("machines", "dss8440", "online: comma-separated fleet systems from the hw catalog")
	traceOut := flag.String("trace", "", "online: write the policy's schedule as a Chrome trace to this file (requires -policy)")
	sink := telecli.Register("mlperf-sched", nil)
	flag.Parse()

	// Durations for Figure 4 and the online policies come from the
	// shared memoized sweep engine; the manifest records its traffic.
	os.Exit(sink.Run(sweep.Default, func() error {
		sink.Logger.Info("sched start",
			telemetry.F("online", *online), telemetry.F("policy", *policy))
		if *online {
			sink.Config("mode", "online")
			sink.Config("policy", *policy)
			sink.Config("machines", *machines)
			sink.Config("jobs", strconv.Itoa(*n))
			if sink.Enabled() {
				sink.Manifest.Seed = *seed
			}
			return runOnline(*policy, *machines, *seed, *n, *gap, *traceOut, sink)
		}
		sink.Config("mode", "offline")
		sink.Config("gpus", strconv.Itoa(*gpus))
		sink.Config("jobs", *jobsFlag)
		return run(*gpus, *jobsFlag, sink)
	}))
}

func run(gpus int, jobsFlag string, sink *telecli.Sink) error {
	if gpus < 1 {
		return fmt.Errorf("need at least one GPU, got %d", gpus)
	}
	if jobsFlag == "" {
		r, err := experiments.Fig4(gpus)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig4(r))
		return nil
	}

	// Power-of-two widths up to the machine, plus the machine's exact
	// width when it is not one — Naive needs a width-gpus duration, so
	// without this a 3-GPU machine could never schedule.
	var widths []int
	for _, w := range []int{1, 2, 4, 8} {
		if w <= gpus {
			widths = append(widths, w)
		}
	}
	if widths[len(widths)-1] != gpus {
		widths = append(widths, gpus)
	}

	sys := hw.DSS8440()
	var jobs []sched.Job
	for _, name := range strings.Split(jobsFlag, ",") {
		b, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		j := sched.Job{Name: b.Abbrev, Duration: map[int]float64{}}
		for _, w := range widths {
			res, err := sim.Run(sim.Config{System: sys, GPUCount: w, Job: b.Job},
				sim.NewTelemetryObserver(sink.Reg))
			if err != nil {
				return err
			}
			j.Duration[w] = res.TimeToTrain.Seconds()
		}
		jobs = append(jobs, j)
	}

	naive, err := sched.Naive(jobs, gpus)
	if err != nil {
		return err
	}
	opt, err := sched.Optimal(jobs, gpus)
	if err != nil {
		return err
	}
	fmt.Println("(a) naive")
	fmt.Print(sched.Gantt(naive, gpus, 64))
	fmt.Println("\n(b) optimal")
	fmt.Print(sched.Gantt(opt, gpus, 64))
	fmt.Printf("\nsaving: %.1f h\n", (naive.Makespan-opt.Makespan)/3600)
	return nil
}

func runOnline(policy, machines string, seed int64, n int, gap float64, traceOut string, sink *telecli.Sink) error {
	cfg := experiments.PolicySweepConfig{
		Systems: sweep.SplitList(machines), Seed: seed, Jobs: n, MeanGapSec: gap,
		Telemetry: sink.Reg,
	}

	if policy == "" {
		if traceOut != "" {
			return fmt.Errorf("-trace needs a single policy: add -policy")
		}
		rows, err := experiments.PolicyComparisonWith(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderPolicyComparison(rows))
		return nil
	}

	res, err := experiments.PolicyRun(cfg, policy)
	if err != nil {
		return err
	}
	fmt.Printf("policy %s on %d machine(s), %d jobs\n\n", res.Policy, len(res.Fleet), len(res.Jobs))
	fmt.Printf("%-16s %9s %9s %9s %8s %8s %9s\n",
		"job", "submit_h", "start_h", "done_h", "jct_h", "preempts", "ovhd_min")
	for _, j := range res.Jobs {
		fmt.Printf("%-16s %9.2f %9.2f %9.2f %8.2f %8d %9.1f\n",
			j.Name, j.Submit/3600, j.Start/3600, j.Completed/3600, j.JCT/3600,
			j.Preemptions, j.Overhead/60)
	}
	m := res.Metrics
	fmt.Printf("\nmakespan %.2f h   mean JCT %.2f h   p95 JCT %.2f h   GPU util %.1f%%   preemptions %d\n",
		m.Makespan/3600, m.MeanJCT/3600, m.P95JCT/3600, m.GPUUtil*100, m.Preemptions)

	if traceOut != "" {
		if err := atomicfile.Write(traceOut, res.Timeline().WriteChromeTrace); err != nil {
			return err
		}
		fmt.Printf("chrome trace written to %s\n", traceOut)
	}
	return nil
}
