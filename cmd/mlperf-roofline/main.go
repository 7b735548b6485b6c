// Command mlperf-roofline prints roofline models and workload placements
// (paper Figure 2).
//
//	mlperf-roofline             V100 roofline + all 13 benchmarks
//	mlperf-roofline -gpu p100   P100 roofline (no tensor ceiling)
//	mlperf-roofline -host       really micro-benchmark this machine
package main

import (
	"flag"
	"fmt"
	"os"

	"mlperf/internal/experiments"
	"mlperf/internal/hw"
	"mlperf/internal/roofline"
	"mlperf/internal/sweep"
	"mlperf/internal/telecli"
	"mlperf/internal/telemetry"
)

func main() {
	gpu := flag.String("gpu", "v100", "device model: v100, v100-pcie, p100")
	host := flag.Bool("host", false, "micro-benchmark the host CPU instead")
	sink := telecli.Register("mlperf-roofline", nil)
	flag.Parse()

	// Figure 2 placements simulate through the shared sweep engine.
	os.Exit(sink.Run(sweep.Default, func() error {
		sink.Config("gpu", *gpu)
		if *host {
			m := roofline.MeasureHost()
			fmt.Printf("empirical roofline of this machine (%s):\n", m.Name)
			fmt.Printf("  measured bandwidth : %.2f GB/s\n", m.MemBandwidth.GBs())
			for _, c := range m.Ceilings {
				fmt.Printf("  measured %-6s peak: %.2f GFLOPS (ridge %.2f FLOP/B)\n",
					c.Name, c.Peak.G(), float64(m.Ridge(c.Name)))
			}
			return nil
		}

		var g hw.GPU
		switch *gpu {
		case "v100":
			g = hw.TeslaV100SXM2
		case "v100-pcie":
			g = hw.TeslaV100PCIe
		case "p100":
			g = hw.TeslaP100
		default:
			return fmt.Errorf("unknown GPU %q", *gpu)
		}
		m := roofline.ForGPU(&g)
		fmt.Printf("roofline of %s:\n", g.Name)
		fmt.Printf("  memory slope: %.0f GB/s\n", m.MemBandwidth.GBs())
		sink.Reg.Gauge("roofline_mem_bandwidth_gbs", telemetry.L("gpu", g.Name)).Set(m.MemBandwidth.GBs())
		for _, c := range m.Ceilings {
			fmt.Printf("  ceiling %-12s %9.1f GFLOPS (ridge %.1f FLOP/B)\n",
				c.Name, c.Peak.G(), float64(m.Ridge(c.Name)))
			sink.Reg.Gauge("roofline_ceiling_gflops",
				telemetry.L("gpu", g.Name), telemetry.L("ceiling", c.Name)).Set(c.Peak.G())
		}
		fmt.Println()

		r, err := experiments.Fig2()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig2(r))
		return nil
	}))
}
