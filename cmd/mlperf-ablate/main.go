// Command mlperf-ablate runs the ablation studies of DESIGN.md: each
// isolates one modeling or system-design lever and quantifies its effect.
//
//	mlperf-ablate            all ablations
//	mlperf-ablate collective | overlap | batch | eligibility | ring | lanes
//	mlperf-ablate -workers 4 overlap
//
// The sweeps inside each ablation fan out on the sweep engine's worker
// pool; -workers bounds it (0 = GOMAXPROCS).
package main

import (
	"flag"
	"fmt"
	"os"

	"mlperf/internal/experiments"
	"mlperf/internal/sweep"
	"mlperf/internal/telecli"
)

func main() {
	engineFlags := sweep.RegisterCLIFlags(nil)
	sink := telecli.Register("mlperf-ablate", nil)
	flag.Parse()
	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}
	// Ctrl-C/SIGTERM exits 130 at once with the cache traffic so far.
	os.Exit(sink.Run(sweep.Default, func() error {
		if err := engineFlags.Apply(sweep.Default); err != nil {
			return telecli.Usage(err)
		}
		sink.Config("ablation", which)
		engineFlags.Record(sink.Config)
		return run(which)
	}))
}

func run(which string) error {
	all := which == "all"
	if all || which == "collective" {
		rows, err := experiments.AblateCollectives()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderCollectiveAblation(rows))
	}
	if all || which == "overlap" {
		rows, err := experiments.AblateOverlap()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderOverlapAblation(rows))
	}
	if all || which == "batch" {
		rows, err := experiments.AblateBatch()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderBatchAblation(rows))
	}
	if all || which == "eligibility" {
		rows, err := experiments.AblateEligibility()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderEligibilityAblation(rows))
	}
	if all || which == "lanes" {
		rows, err := experiments.AblateLanes()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderLaneAblation(rows))
	}
	if all || which == "ring" {
		r, err := experiments.AblateRingSearch()
		if err != nil {
			return err
		}
		fmt.Println("Ablation — NCCL-style ring search on the C4140 (K) NVLink mesh")
		fmt.Printf("  naive gpu0-1-2-3 ring bottleneck : %.1f GB/s\n", r.NaiveGBs)
		fmt.Printf("  searched ring bottleneck         : %.1f GB/s\n", r.SearchedGBs)
		fmt.Printf("  search gain                      : %.2fx\n", r.SearchedGBs/r.NaiveGBs)
	}
	switch which {
	case "all", "collective", "overlap", "batch", "eligibility", "ring", "lanes":
		return nil
	}
	return fmt.Errorf("unknown ablation %q", which)
}
