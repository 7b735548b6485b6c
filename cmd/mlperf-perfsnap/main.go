// Command mlperf-perfsnap tracks the simulator's performance trajectory
// through committed snapshot files.
//
//	mlperf-perfsnap -update            # re-measure and bless BENCH_sim.json
//	mlperf-perfsnap                    # re-measure and gate against it
//	mlperf-perfsnap -diff-out d.json   # also dump regressions as JSON
//
// The default mode loads the committed snapshot, collects a fresh one on
// this machine, and compares: wall-clock metrics gate only when both
// snapshots were taken on the same CPU model; allocation counts and
// derived ratios (the analytic fast path's steady_speedup_x) gate
// everywhere, including CI. Any regression prints, optionally lands in
// -diff-out for artifact upload, and exits non-zero.
//
// -update re-measures and rewrites the snapshot. A blessed snapshot must
// demonstrate at least blessSpeedup (10x) on the steady-state cell; the
// compare gate uses the looser minSpeedup (8x) so CI noise does not
// flap the build. The gate's bounds are constants.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"mlperf/internal/atomicfile"
	"mlperf/internal/perfsnap"
)

// The gate's bounds.
const (
	timeTol      = 0.35 // allowed fractional ns/op growth (same-CPU runs only)
	allocTol     = 0.10 // allowed fractional allocs/op and bytes/op growth
	minSpeedup   = 8.0  // compare-mode floor on the derived steady_speedup_x
	blessSpeedup = 10.0 // -update refuses to bless a snapshot below this speedup
)

func main() {
	file := flag.String("file", perfsnap.SimSnapshotFile, "snapshot file to compare against or update")
	update := flag.Bool("update", false, "re-measure and overwrite the snapshot instead of comparing")
	diffOut := flag.String("diff-out", "", "write regressions as JSON to this path on failure")
	flag.Parse()

	if err := run(*file, *update, *diffOut); err != nil {
		fmt.Fprintln(os.Stderr, "mlperf-perfsnap:", err)
		os.Exit(1)
	}
}

func run(file string, update bool, diffOut string) error {
	fmt.Fprintf(os.Stderr, "collecting suite %q (this runs each benchmark for ~1s)...\n", perfsnap.SimSuite)
	fresh, err := perfsnap.CollectSim()
	if err != nil {
		return err
	}
	for _, e := range fresh.Entries {
		fmt.Fprintf(os.Stderr, "  %-20s %12.0f ns/op  %6d allocs/op  %10d B/op\n",
			e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
	}
	for k, v := range fresh.Derived {
		fmt.Fprintf(os.Stderr, "  derived %s = %.1f\n", k, v)
	}

	if update {
		if got := fresh.Derived[perfsnap.SpeedupKey]; got < blessSpeedup {
			return fmt.Errorf("refusing to bless: %s = %.1f, below the %.0fx bar",
				perfsnap.SpeedupKey, got, blessSpeedup)
		}
		if err := fresh.WriteFile(file); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "updated", file)
		return nil
	}

	old, err := perfsnap.ReadFile(file)
	if err != nil {
		return fmt.Errorf("%w (run with -update to create the snapshot)", err)
	}
	regs := perfsnap.Compare(old, fresh, perfsnap.Options{
		TimeTol:    timeTol,
		AllocTol:   allocTol,
		MinDerived: map[string]float64{perfsnap.SpeedupKey: minSpeedup},
	})
	if len(regs) == 0 {
		fmt.Fprintln(os.Stderr, "no regressions against", file)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintln(os.Stderr, "REGRESSION:", r)
	}
	if diffOut != "" {
		if err := atomicfile.Write(diffOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(struct {
				File        string                `json:"file"`
				Regressions []perfsnap.Regression `json:"regressions"`
				Fresh       *perfsnap.Snapshot    `json:"fresh"`
			}{file, regs, fresh})
		}); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote diff to", diffOut)
	}
	return fmt.Errorf("%d regression(s)", len(regs))
}
