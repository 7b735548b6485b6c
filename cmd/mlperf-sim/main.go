// Command mlperf-sim regenerates the paper's tables and figures from the
// simulator. Usage:
//
//	mlperf-sim table2|table3|table4|table5|fig1|fig2|fig3|fig5
//	mlperf-sim fig4 [-gpus N]
//	mlperf-sim run -bench MLPf_Res50_TF -system dss8440 -gpus 4
//	mlperf-sim [-workers N] all
//
// Grid-shaped experiments (table4, table5, fig3, fig4, fig5, whatif,
// export, all) run their simulation cells concurrently on the shared
// sweep engine; -workers bounds that pool (0 = GOMAXPROCS). Repeated
// cells across experiments are simulated once and recalled from the
// engine's cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mlperf/internal/experiments"
	"mlperf/internal/hw"
	"mlperf/internal/sim"
	"mlperf/internal/sweep"
	"mlperf/internal/telecli"
	"mlperf/internal/workload"
)

func main() {
	engineFlags := sweep.RegisterCLIFlags(nil)
	sink := telecli.Register("mlperf-sim", nil)
	flag.Usage = func() { usage() }
	flag.Parse()
	// Ctrl-C/SIGTERM exits 130 at once: no experiment observes the
	// interrupt, so the manifest records the cache traffic so far.
	os.Exit(sink.Run(sweep.Default, func() error {
		if err := engineFlags.Apply(sweep.Default); err != nil {
			return telecli.Usage(err)
		}
		sink.Config("subcommand", flag.Arg(0))
		engineFlags.Record(sink.Config)
		return run(flag.Args())
	}))
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "table2":
		fmt.Print(experiments.Table2())
	case "table3":
		fmt.Print(experiments.Table3())
	case "table4":
		rows, err := experiments.Table4()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTable4(rows))
	case "table5":
		rows, err := experiments.Table5()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTable5(rows))
	case "fig1":
		r, err := experiments.Fig1()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig1(r))
	case "fig2":
		r, err := experiments.Fig2()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig2(r))
	case "fig3":
		rows, err := experiments.Fig3()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig3(rows))
	case "fig4":
		fs := flag.NewFlagSet("fig4", flag.ContinueOnError)
		gpus := fs.Int("gpus", 4, "GPU count to schedule on")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		r, err := experiments.Fig4(*gpus)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig4(r))
	case "fig5":
		rows, err := experiments.Fig5()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig5(rows))
	case "whatif":
		rows, err := experiments.WhatIfNVLinkAt8On(context.Background(), sweep.Default)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderWhatIf(rows))
	case "export":
		fs := flag.NewFlagSet("export", flag.ContinueOnError)
		out := fs.String("out", "results", "output directory for CSV/JSON results")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if err := experiments.ExportAll(*out); err != nil {
			return err
		}
		fmt.Printf("wrote table4/table5/fig1/fig2/fig3/fig5 CSVs and summary.json to %s\n", *out)
	case "run":
		return runOne(args[1:])
	case "all":
		for _, sub := range []string{"table2", "table3", "table4", "table5", "fig1", "fig2", "fig3", "fig4", "fig5"} {
			fmt.Printf("==== %s ====\n", sub)
			if err := run([]string{sub}); err != nil {
				return err
			}
			fmt.Println()
		}
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
	return nil
}

func runOne(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	bench := fs.String("bench", "MLPf_Res50_TF", "benchmark abbreviation (see table2)")
	system := fs.String("system", "dss8440", "system name (see table3)")
	gpus := fs.Int("gpus", 1, "GPU count")
	specPath := fs.String("spec", "", "JSON job-spec file overriding the base benchmark")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var job sim.Job
	label := *bench
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			return err
		}
		defer f.Close()
		spec, err := workload.ParseJobSpec(f)
		if err != nil {
			return err
		}
		job, err = spec.Build()
		if err != nil {
			return err
		}
		label = job.Name + " (spec: " + *specPath + ")"
	} else {
		b, err := workload.ByName(*bench)
		if err != nil {
			return err
		}
		job = b.Job
	}
	sys, err := hw.SystemByName(*system)
	if err != nil {
		return err
	}
	res, err := sim.Run(sim.Config{System: sys, GPUCount: *gpus, Job: job})
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s with %d GPU(s)\n", label, sys.Name, *gpus)
	fmt.Printf("  local/global batch : %d / %d\n", res.LocalBatch, res.GlobalBatch)
	fmt.Printf("  step time          : %.4fs (input %.4fs, h2d %.4fs, compute %.4fs, allreduce %.4fs exposed %.4fs, opt %.4fs)\n",
		res.StepTime, res.Input, res.H2D, res.Compute, res.AllReduce, res.ExposedComm, res.Optimizer)
	fmt.Printf("  throughput         : %.1f samples/s\n", res.Throughput)
	fmt.Printf("  steps/epoch        : %d, epochs %.2f\n", res.StepsPerEpoch, job.EpochsToTarget)
	fmt.Printf("  time to train      : %.1f min\n", res.TimeToTrain.Minutes())
	fmt.Printf("  CPU util           : %v\n", res.CPUUtil)
	fmt.Printf("  GPU util (total)   : %v\n", res.GPUUtilTotal)
	fmt.Printf("  DRAM / HBM         : %.0f MB / %.0f MB\n", res.DRAMBytes.MB(), res.HBMBytes.MB())
	fmt.Printf("  PCIe / NVLink      : %.0f Mbps / %.0f Mbps\n", res.PCIeRate.Mbps(), res.NVLinkRate.Mbps())
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: mlperf-sim [-workers N] <subcommand>
  table2             benchmark inventory (Table II)
  table3             system inventory (Table III)
  table4             scaling study (Table IV)
  table5             resource usage study (Table V)
  fig1               PCA workload space (Figure 1)
  fig2               roofline placement (Figure 2)
  fig3               mixed-precision speedups (Figure 3)
  fig4 [-gpus N]     scheduling study (Figure 4)
  fig5               interconnect topology study (Figure 5)
  run -bench B -system S -gpus N [-spec job.json]   simulate one training run
  whatif             8-GPU PCIe vs NVLink extension study
  export [-out DIR]  write all results as CSV/JSON
  all                everything above`)
}
