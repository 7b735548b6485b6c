// Command mlperf-sweep runs a cartesian parameter sweep through the
// simulator and writes CSV — the workhorse behind grid studies like
// Table IV and Figure 5.
//
//	mlperf-sweep -bench res50_tf,ncf_py -system dss8440,dgx1 -gpus 1,2,4,8
//	mlperf-sweep -bench res50_tf -gpus 8 -precision fp32,mixed -out amp.csv
//	mlperf-sweep -workers 4 -bench res50_tf -gpus 1,2,4,8
//	mlperf-sweep -bench gnmt_py -gpus 4 -faults plan.json -cell-timeout 30s -partial
//	mlperf-sweep -bench res50_tf -gpus 1,2,4,8 -cache-dir ~/.cache/mlperf-cells
//
// Cells run concurrently on the sweep engine's worker pool (-workers,
// default GOMAXPROCS); -seq forces the sequential reference path. With
// -cache-dir, results persist in a content-addressed store and a later
// run over the same cells replays from disk without simulating. Output
// order and values are identical in every configuration.
//
// Every engine run takes the hardened path (RunWithOptions): each cell
// runs once with panic containment, -cell-timeout bounds each cell, and
// -faults applies a fault plan to every cell. The simulator is
// deterministic, so a failed cell is not retried: it would fail the
// same way again. With -partial the sweep degrades gracefully
// — completed cells are written, failed cells are reported to stderr as
// typed errors, and the exit status reflects whether everything
// completed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mlperf/internal/fault"
	"mlperf/internal/sweep"
	"mlperf/internal/telecli"
	"mlperf/internal/telemetry"
)

// errInterrupted marks a run cut short by SIGINT/SIGTERM: completed
// cells were written, the manifest is flushed, and the exit status is
// 130 (the shell convention for death-by-SIGINT).
var errInterrupted = errors.New("interrupted")

func main() {
	bench := flag.String("bench", "", "comma-separated benchmarks (default: all MLPerf)")
	system := flag.String("system", "dss8440", "comma-separated systems")
	gpus := flag.String("gpus", "1", "comma-separated GPU counts")
	batch := flag.String("batch", "", "comma-separated per-GPU batches (default: calibrated)")
	prec := flag.String("precision", "", "comma-separated precisions: fp32,mixed")
	out := flag.String("out", "", "CSV output path (default: stdout)")
	workers := flag.Int("workers", 0, "max concurrent cells (0 = GOMAXPROCS)")
	seq := flag.Bool("seq", false, "run cells sequentially without the cache (reference path)")
	faults := flag.String("faults", "", "JSON fault-plan file applied to every cell")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-cell deadline (0 = unbounded)")
	partial := flag.Bool("partial", false, "keep going past failed cells; write completed cells and report the rest")
	engineFlags := sweep.RegisterCLIFlags(nil)
	sink := telecli.Register("mlperf-sweep", nil)
	flag.Parse()

	w, err := sweep.ValidateWorkers(*workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlperf-sweep:", err)
		os.Exit(2)
	}
	sweep.Default.SetWorkers(w)
	if err := engineFlags.Apply(sweep.Default); err != nil {
		fmt.Fprintln(os.Stderr, "mlperf-sweep:", err)
		os.Exit(2)
	}
	defer sweep.Default.SetStore(nil)
	if reg := sink.Activate(); reg != nil {
		sweep.Default.SetTelemetry(reg)
		defer sweep.Default.SetTelemetry(nil)
		for k, v := range map[string]string{
			"bench": *bench, "system": *system, "gpus": *gpus, "batch": *batch,
			"precision": *prec, "workers": strconv.Itoa(w),
		} {
			sink.Config(k, v)
		}
		engineFlags.Record(sink.Config)
	}
	cfg := runConfig{
		bench: *bench, system: *system, gpus: *gpus, batch: *batch, prec: *prec,
		out: *out, seq: *seq, faults: *faults,
		cellTimeout: *cellTimeout, partial: *partial,
		cacheDir: engineFlags.CacheDir,
		sink:     sink,
	}
	sink.Log().Info("sweep start",
		telemetry.F("bench", *bench), telemetry.F("system", *system),
		telemetry.F("gpus", *gpus), telemetry.F("workers", w))
	// SIGINT/SIGTERM cancels the run context: in-flight cells stop, the
	// completed prefix is written as a partial CSV, and the manifest
	// still flushes — Ctrl-C loses patience, not provenance.
	ctx, stop := telecli.InterruptContext()
	defer stop()
	if err := run(ctx, cfg); err != nil {
		sink.Log().Error("sweep failed", telemetry.F("err", err.Error()))
		fmt.Fprintln(os.Stderr, "mlperf-sweep:", err)
		sink.MustFlush()
		if errors.Is(err, errInterrupted) {
			os.Exit(130)
		}
		os.Exit(1)
	}
	sink.Log().Info("sweep complete")
	sink.MustFlush()
}

type runConfig struct {
	bench, system, gpus, batch, prec, out, faults string
	cacheDir                                      string
	seq, partial                                  bool
	cellTimeout                                   time.Duration
	sink                                          *telecli.Sink
}

func run(ctx context.Context, cfg runConfig) error {
	g := sweep.Grid{
		Benchmarks: splitList(cfg.bench),
		Systems:    splitList(cfg.system),
		Precisions: splitList(cfg.prec),
	}
	var err error
	if g.GPUCounts, err = splitInts(cfg.gpus); err != nil {
		return err
	}
	if g.BatchPerGPU, err = splitInts(cfg.batch); err != nil {
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
		if cfg.sink != nil && cfg.sink.Enabled() {
			cfg.sink.Manifest.FaultPlanHash = telemetry.HashPlan(g.Faults)
			cfg.sink.Manifest.Seed = plan.Seed
		}
	}

	hardened := cfg.cellTimeout > 0 || cfg.partial
	var recs []sweep.Record
	var report *sweep.Report
	if cfg.seq {
		if hardened {
			return fmt.Errorf("-seq is the plain reference path; it cannot combine with -cell-timeout/-partial")
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
		opts := sweep.Options{
			CellTimeout: cfg.cellTimeout,
			Partial:     true,
		}
		recs, report, err = sweep.Default.RunWithOptions(ctx, g, opts)
		if err != nil {
			return err
		}
		if report.Failed() && !cfg.partial && !report.Canceled {
			// Without -partial a failed cell aborts with the lowest-index
			// error, exactly as Engine.Run does.
			return report.Failures[0]
		}
	}

	w := os.Stdout
	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
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
	if cfg.sink != nil && cfg.sink.Enabled() {
		m := cfg.sink.Manifest
		m.Cells = len(recs)
		sweep.Default.Stats().FillManifest(m)
		for _, r := range recs {
			m.SimulatedSeconds += r.TimeToTrainMin * 60
		}
	}
	if err := sweep.WriteCSV(w, recs); err != nil {
		return err
	}
	if cfg.out != "" {
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
				errInterrupted, report.Completed, report.Cells, canceled)
		}
		if report.Failed() {
			return fmt.Errorf("%d of %d cells failed", len(report.Failures), report.Cells)
		}
	}
	return nil
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var outs []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			outs = append(outs, p)
		}
	}
	return outs
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
