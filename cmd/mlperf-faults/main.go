// Command mlperf-faults runs the simulator under a fault plan:
// stragglers, degraded or flapping links, transient kernel failures,
// node preemption, and a checkpoint/restart cost model.
//
//	mlperf-faults run -bench gnmt_py -system c4140k -gpus 4 -straggler gpu:2
//	mlperf-faults run -bench res50_tf -gpus 4 -degrade pcie-h2d:0.5:8:4 \
//	    -transient compute:0.05:0.010 -preempt 3.5:30 -ckpt 60:1 -trace trace.json
//	mlperf-faults run -bench ncf_py -plan plan.json -events -
//	mlperf-faults sensitivity -out faults.csv
//
// `run` simulates one cell and prints the fault report next to the
// fault-free baseline; -trace writes a Chrome trace (chrome://tracing)
// with the fault events on a dedicated "faults" track. `sensitivity`
// sweeps straggler severity against the five Figure 5 interconnect
// topologies.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mlperf/internal/atomicfile"
	"mlperf/internal/experiments"
	"mlperf/internal/fault"
	"mlperf/internal/hw"
	"mlperf/internal/sim"
	"mlperf/internal/sweep"
	"mlperf/internal/telecli"
	"mlperf/internal/telemetry"
	"mlperf/internal/units"
	"mlperf/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		os.Exit(runOne(os.Args[2:]))
	case "sensitivity":
		os.Exit(sensitivity(os.Args[2:]))
	}
	usage()
	fmt.Fprintf(os.Stderr, "mlperf-faults: unknown subcommand %q\n", os.Args[1])
	os.Exit(1)
}

// parse parses a subcommand's flags, reporting a bad one the way the
// run's own errors are.
func parse(fs *flag.FlagSet, args []string) bool {
	if err := fs.Parse(args); err != nil {
		fmt.Fprintln(os.Stderr, "mlperf-faults:", err)
		return false
	}
	return true
}

func runOne(args []string) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	bench := fs.String("bench", "gnmt_py", "benchmark abbreviation")
	system := fs.String("system", "c4140k", "system name")
	gpus := fs.Int("gpus", 4, "GPU count")
	seed := fs.Int64("seed", 1, "fault plan seed (transient failure draws)")
	straggler := fs.String("straggler", "", "comma list of lane:factor[:from[:to]] stragglers")
	degrade := fs.String("degrade", "", "comma list of lane:bwfrac[:period:up] link faults")
	transient := fs.String("transient", "", "comma list of lane:prob:retrycost[:max] transient failures")
	preempt := fs.String("preempt", "", "comma list of at[:restartdelay] preemptions (seconds)")
	ckpt := fs.String("ckpt", "", "checkpoint interval[:replayfrac[:gbps]] (seconds)")
	planPath := fs.String("plan", "", "JSON fault-plan file (overrides the individual flags)")
	trace := fs.String("trace", "", "write a Chrome trace of the faulted run to this path")
	events := fs.String("events", "", "write the typed event log to this path (- = stdout)")
	sink := telecli.Register("mlperf-faults", fs)
	if !parse(fs, args) {
		return 1
	}
	return sink.Run(nil, func() error {
		var plan *fault.Plan
		if *planPath != "" {
			raw, err := os.ReadFile(*planPath)
			if err != nil {
				return err
			}
			if plan, err = fault.Parse(string(raw)); err != nil {
				return err
			}
		} else {
			var err error
			if plan, err = planFromFlags(*seed, *straggler, *degrade, *transient, *preempt, *ckpt); err != nil {
				return err
			}
		}
		if err := plan.Validate(); err != nil {
			return err
		}

		b, err := workload.ByName(*bench)
		if err != nil {
			return err
		}
		sys, err := hw.SystemByName(*system)
		if err != nil {
			return err
		}
		cfg := sim.Config{System: sys, GPUCount: *gpus, Job: b.Job}
		if sink.Enabled() {
			sink.Config("bench", b.Abbrev)
			sink.Config("system", sys.Name)
			sink.Config("gpus", strconv.Itoa(*gpus))
			sink.Manifest.Seed = plan.Seed
			if canon, err := plan.Canon(); err == nil {
				sink.Manifest.FaultPlanHash = telemetry.HashPlan(canon)
			}
		}

		base, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		var log sim.EventLog
		// Only the faulted run is instrumented, so the metrics describe the
		// run the report is about — not the fault-free baseline.
		res, err := sim.RunWithFaults(cfg, plan, &log, sim.NewTelemetryObserver(sink.Reg))
		if err != nil {
			return err
		}
		if sink.Enabled() {
			sink.Manifest.SimulatedSeconds = res.TimeToTrain.Seconds()
		}
		fmt.Printf("%s on %s with %d GPU(s), fault plan seed %d\n", b.Abbrev, sys.Name, *gpus, plan.Seed)
		fmt.Printf("  step time          : %.4fs (fault-free %.4fs, x%.2f)\n",
			res.StepTime, base.StepTime, ratio(res.StepTime, base.StepTime))
		fmt.Printf("  time to train      : %.1f min (fault-free %.1f min, x%.2f)\n",
			res.TimeToTrain.Minutes(), base.TimeToTrain.Minutes(),
			ratio(res.TimeToTrain.Minutes(), base.TimeToTrain.Minutes()))
		if fr := res.Faults; fr != nil {
			fmt.Printf("  fault activations  : %d (retries %d)\n", fr.Activations, fr.Retries)
			fmt.Printf("  checkpoints        : %d in-window, %.3fs each, +%.2f%% steady-state overhead\n",
				fr.Checkpoints, fr.CheckpointCost, fr.CheckpointOverheadFrac*100)
			fmt.Printf("  preemptions        : %d, %.1fs restart+replay charged\n",
				fr.Preemptions, fr.RestartSeconds)
		} else {
			fmt.Println("  fault plan empty — identical to the fault-free run")
		}

		if *trace != "" {
			if err := atomicfile.Write(*trace, res.Timeline.WriteChromeTrace); err != nil {
				return err
			}
			fmt.Printf("  wrote Chrome trace : %s (%d events)\n", *trace, len(log.Events))
		}
		write := func(w io.Writer) error {
			for _, ev := range log.Events {
				if _, err := fmt.Fprintf(w, "%.6f %.6f %-10s %s\n", ev.Start, ev.End, ev.Lane, ev.Label()); err != nil {
					return err
				}
			}
			return nil
		}
		switch *events {
		case "":
			return nil
		case "-":
			return write(os.Stdout)
		}
		return atomicfile.Write(*events, write)
	})
}

func sensitivity(args []string) int {
	fs := flag.NewFlagSet("sensitivity", flag.ContinueOnError)
	out := fs.String("out", "", "CSV output path (default: render a table to stdout)")
	workers := fs.Int("workers", 0, "max concurrent cells (0 = GOMAXPROCS)")
	sink := telecli.Register("mlperf-faults", fs)
	if !parse(fs, args) {
		return 1
	}
	// Ctrl-C/SIGTERM abandons the sweep and exits 130 at once, with the
	// cache traffic so far in the manifest.
	return sink.Run(sweep.Default, func() error {
		w, err := sweep.ValidateWorkers(*workers)
		if err != nil {
			return err
		}
		sweep.Default.SetWorkers(w)
		sink.Config("subcommand", "sensitivity")
		sink.Config("workers", strconv.Itoa(w))
		rows, err := experiments.FaultSensitivity()
		if err != nil {
			return err
		}
		if *out == "" {
			fmt.Print(experiments.RenderFaultSensitivity(rows))
			return nil
		}
		if err := atomicfile.Write(*out, func(w io.Writer) error {
			return experiments.WriteFaultSensitivityCSV(w, rows)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %d severity levels x %d systems to %s\n",
			len(rows), len(experiments.TopologySystems()), *out)
		return nil
	})
}

// planFromFlags assembles a Plan from the run subcommand's flag
// grammar; every list is comma-separated, fields within an entry are
// colon-separated.
func planFromFlags(seed int64, straggler, degrade, transient, preempt, ckpt string) (*fault.Plan, error) {
	plan := &fault.Plan{Seed: seed}
	for _, s := range sweep.SplitList(straggler) {
		p, err := floats(s, 2, 4)
		if err != nil {
			return nil, fmt.Errorf("bad -straggler %q: %w", s, err)
		}
		st := fault.Straggler{Lane: p.lane, Factor: p.f[0]}
		if len(p.f) > 1 {
			st.FromStep = int(p.f[1])
		}
		if len(p.f) > 2 {
			st.ToStep = int(p.f[2])
		}
		plan.Stragglers = append(plan.Stragglers, st)
	}
	for _, s := range sweep.SplitList(degrade) {
		p, err := floats(s, 2, 4)
		if err != nil {
			return nil, fmt.Errorf("bad -degrade %q: %w", s, err)
		}
		lf := fault.LinkFault{Lane: p.lane, BandwidthFrac: p.f[0]}
		if len(p.f) > 2 {
			lf.Period, lf.Up = int(p.f[1]), int(p.f[2])
		}
		plan.Links = append(plan.Links, lf)
	}
	for _, s := range sweep.SplitList(transient) {
		p, err := floats(s, 3, 4)
		if err != nil {
			return nil, fmt.Errorf("bad -transient %q: %w", s, err)
		}
		tr := fault.Transient{Lane: p.lane, Prob: p.f[0], RetryCost: p.f[1]}
		if len(p.f) > 2 {
			tr.MaxRetries = int(p.f[2])
		}
		plan.Transients = append(plan.Transients, tr)
	}
	for _, s := range sweep.SplitList(preempt) {
		parts := strings.Split(s, ":")
		at, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return nil, fmt.Errorf("bad -preempt %q: %w", s, err)
		}
		pr := fault.Preemption{At: at}
		if len(parts) > 1 {
			if pr.RestartDelay, err = strconv.ParseFloat(parts[1], 64); err != nil {
				return nil, fmt.Errorf("bad -preempt %q: %w", s, err)
			}
		}
		plan.Preemptions = append(plan.Preemptions, pr)
	}
	if ckpt != "" {
		parts := strings.Split(ckpt, ":")
		iv, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return nil, fmt.Errorf("bad -ckpt %q: %w", ckpt, err)
		}
		plan.Checkpoint.Interval = iv
		plan.Checkpoint.ReplayFrac = 1
		if len(parts) > 1 {
			if plan.Checkpoint.ReplayFrac, err = strconv.ParseFloat(parts[1], 64); err != nil {
				return nil, fmt.Errorf("bad -ckpt %q: %w", ckpt, err)
			}
		}
		if len(parts) > 2 {
			gbps, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return nil, fmt.Errorf("bad -ckpt %q: %w", ckpt, err)
			}
			plan.Checkpoint.WriteBW = units.BytesPerSecond(gbps * float64(units.GB))
		}
	}
	return plan, nil
}

// parsed is one lane:float[:float...] flag entry.
type parsed struct {
	lane string
	f    []float64
}

func floats(s string, minParts, maxParts int) (parsed, error) {
	parts := strings.Split(s, ":")
	if len(parts) < minParts || len(parts) > maxParts {
		return parsed{}, fmt.Errorf("want %d-%d colon-separated fields", minParts, maxParts)
	}
	p := parsed{lane: parts[0]}
	for _, raw := range parts[1:] {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return parsed{}, err
		}
		p.f = append(p.f, v)
	}
	return p, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: mlperf-faults <subcommand>
  run [-bench B] [-system S] [-gpus N] [-seed N]
      [-straggler lane:factor[:from[:to]],...]
      [-degrade lane:bwfrac[:period:up],...]
      [-transient lane:prob:retrycost[:max],...]
      [-preempt at[:restartdelay],...]
      [-ckpt interval[:replayfrac[:gbps]]]
      [-plan plan.json] [-trace out.json] [-events out.log|-]
                       simulate one cell under a fault plan
  sensitivity [-out CSV] [-workers N]
                       straggler severity x interconnect study
lanes: cpu-input, pcie-h2d, gpu — or stage kinds input, h2d, compute,
allreduce, optimizer`)
}
