// Command mlperf-sweep runs a cartesian parameter sweep through the
// simulator and writes CSV — the workhorse behind grid studies like
// Table IV and Figure 5.
//
//	mlperf-sweep -bench res50_tf,ncf_py -system dss8440,dgx1 -gpus 1,2,4,8
//	mlperf-sweep -bench res50_tf -gpus 8 -precision fp32,mixed -out amp.csv
//	mlperf-sweep -workers 4 -bench res50_tf -gpus 1,2,4,8
//	mlperf-sweep -bench gnmt_py -gpus 4 -faults plan.json -partial
//	mlperf-sweep -bench res50_tf -gpus 1,2,4,8 -cache-dir ~/.cache/mlperf-cells
//
// Cells run concurrently on the sweep engine's worker pool (-workers,
// default GOMAXPROCS); -seq forces the sequential reference path. With
// -cache-dir, results persist in a content-addressed store and a later
// run over the same cells replays from disk without simulating. Output
// order and values are identical in every configuration.
//
// Every engine run takes the hardened path (RunWithOptions): each cell
// runs once with panic containment, and -faults applies a fault plan to
// every cell. The simulator is deterministic, so a failed cell is not
// retried and no cell is bounded by a clock: a cell's outcome depends
// only on its inputs. With -partial the sweep degrades gracefully —
// completed cells are written, failed cells are reported to stderr as
// typed errors, and the exit status reflects whether everything
// completed. An interrupt (SIGINT/SIGTERM) writes the completed cells
// and exits 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"mlperf/internal/atomicfile"
	"mlperf/internal/fault"
	"mlperf/internal/sweep"
	"mlperf/internal/telecli"
	"mlperf/internal/telemetry"
)

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.Benchmarks, "bench", "", "comma-separated benchmarks (default: all MLPerf)")
	flag.StringVar(&cfg.Systems, "system", "dss8440", "comma-separated systems")
	flag.StringVar(&cfg.GPUs, "gpus", "1", "comma-separated GPU counts")
	flag.StringVar(&cfg.Batches, "batch", "", "comma-separated per-GPU batches (default: calibrated)")
	flag.StringVar(&cfg.Precisions, "precision", "", "comma-separated precisions: fp32,mixed")
	flag.StringVar(&cfg.out, "out", "", "CSV output path (default: stdout)")
	flag.BoolVar(&cfg.seq, "seq", false, "run cells sequentially without the cache (reference path)")
	flag.StringVar(&cfg.faults, "faults", "", "JSON fault-plan file applied to every cell")
	flag.BoolVar(&cfg.partial, "partial", false, "keep going past failed cells; write completed cells and report the rest")
	engineFlags := sweep.RegisterCLIFlags(nil)
	cfg.sink = telecli.Register("mlperf-sweep", nil)
	flag.Parse()

	// SIGINT/SIGTERM cancels the run context: in-flight cells stop, the
	// completed prefix is written as a partial CSV, and the manifest
	// still flushes — Ctrl-C loses patience, not provenance.
	sink := cfg.sink
	os.Exit(sink.RunContext(sweep.Default, func(ctx context.Context) error {
		if err := engineFlags.Apply(sweep.Default); err != nil {
			return telecli.Usage(err)
		}
		cfg.cacheDir = engineFlags.CacheDir
		for k, v := range map[string]string{
			"bench": cfg.Benchmarks, "system": cfg.Systems, "gpus": cfg.GPUs,
			"batch": cfg.Batches, "precision": cfg.Precisions,
		} {
			sink.Config(k, v)
		}
		engineFlags.Record(sink.Config)
		sink.Logger.Info("sweep start",
			telemetry.F("bench", cfg.Benchmarks), telemetry.F("system", cfg.Systems),
			telemetry.F("gpus", cfg.GPUs), telemetry.F("workers", engineFlags.Workers))
		if err := run(ctx, cfg); err != nil {
			sink.Logger.Error("sweep failed", telemetry.F("err", err.Error()))
			return err
		}
		sink.Logger.Info("sweep complete")
		return nil
	}))
}

type runConfig struct {
	sweep.GridLists
	out, faults, cacheDir string
	seq, partial          bool
	sink                  *telecli.Sink
}

func run(ctx context.Context, cfg runConfig) error {
	g, err := cfg.Grid()
	if err != nil {
		return err
	}
	if cfg.faults != "" {
		raw, err := os.ReadFile(cfg.faults)
		if err != nil {
			return err
		}
		plan, err := fault.Parse(string(raw))
		if err != nil {
			return fmt.Errorf("-faults %s: %w", cfg.faults, err)
		}
		if g.Faults, err = plan.Canon(); err != nil {
			return fmt.Errorf("-faults %s: %w", cfg.faults, err)
		}
		if cfg.sink.Enabled() {
			cfg.sink.Manifest.FaultPlanHash = telemetry.HashPlan(g.Faults)
			cfg.sink.Manifest.Seed = plan.Seed
		}
	}

	var recs []sweep.Record
	var report *sweep.Report
	if cfg.seq {
		if cfg.partial {
			return fmt.Errorf("-seq is the plain reference path; it cannot combine with -partial")
		}
		if cfg.cacheDir != "" {
			return fmt.Errorf("-seq is the plain reference path; it cannot combine with -cache-dir")
		}
		recs, err = sweep.RunSequential(g)
		if err != nil {
			return err
		}
	} else {
		// Every engine path runs Partial internally so an interrupt can
		// salvage the completed prefix; -partial only decides whether cell
		// FAILURES degrade gracefully or abort like before.
		recs, report, err = sweep.Default.RunWithOptions(ctx, g, sweep.Options{Partial: true})
		if err != nil {
			return err
		}
		if report.Failed() && !cfg.partial && !report.Canceled {
			// Without -partial a failed cell aborts with the lowest-index
			// error, exactly as Engine.Run does.
			return report.Failures[0]
		}
	}

	if report != nil && report.Failed() {
		// Graceful degradation: drop the failed cells' zero records so the
		// CSV holds exactly the completed cells, then surface the failures.
		kept := recs[:0]
		failed := make(map[int]bool, len(report.Failures))
		for _, ce := range report.Failures {
			failed[ce.Index] = true
		}
		for i, r := range recs {
			if !failed[i] {
				kept = append(kept, r)
			}
		}
		recs = kept
	}
	if cfg.sink.Enabled() {
		m := cfg.sink.Manifest
		m.Cells = len(recs)
		for _, r := range recs {
			m.SimulatedSeconds += r.TimeToTrainMin * 60
		}
	}
	write := func(w io.Writer) error { return sweep.WriteCSV(w, recs) }
	if cfg.out == "" {
		if err := write(os.Stdout); err != nil {
			return err
		}
	} else {
		if err := atomicfile.Write(cfg.out, write); err != nil {
			return err
		}
		fmt.Printf("wrote %d sweep cells to %s\n", len(recs), cfg.out)
	}
	if report != nil {
		// Print real failures individually; an interrupt marks every
		// unreached cell canceled, which would be pure noise line by line.
		var canceled int
		for _, ce := range report.Failures {
			if ce.Kind == sweep.FailCanceled {
				canceled++
				continue
			}
			fmt.Fprintln(os.Stderr, "mlperf-sweep:", ce)
		}
		if report.Canceled {
			return fmt.Errorf("%w: wrote %d of %d cells (%d canceled)",
				telecli.ErrInterrupted, report.Completed, report.Cells, canceled)
		}
		if report.Failed() {
			return fmt.Errorf("%d of %d cells failed", len(report.Failures), report.Cells)
		}
	}
	return nil
}
