package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"mlperf/internal/atomicfile"
	"mlperf/internal/workload"
)

// WriteTable4CSV emits the Table IV rows (simulated and paper columns) as
// CSV — the format of testdata/golden/table4_scaling.csv.
func WriteTable4CSV(out io.Writer, rows []ScalingRow) error {
	w := csv.NewWriter(out)
	if err := w.Write([]string{"benchmark", "p100_min", "v100_min", "p_to_v",
		"speedup_2", "speedup_4", "speedup_8",
		"paper_p100_min", "paper_v100_min", "paper_p_to_v",
		"paper_speedup_2", "paper_speedup_4", "paper_speedup_8"}); err != nil {
		return err
	}
	paper := map[string]workload.PaperScaling{}
	for _, p := range workload.TableIV {
		paper[p.Bench] = p
	}
	for _, r := range rows {
		p := paper[r.Bench]
		if err := w.Write([]string{r.Bench,
			ff(r.P100Min), ff(r.V100Min), ff(r.PtoV), ff(r.S2), ff(r.S4), ff(r.S8),
			ff(p.P100Min), ff(p.V100Min), ff(p.PtoV), ff(p.S2), ff(p.S4), ff(p.S8),
		}); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// WriteTable5CSV emits the Table V rows as CSV — the format of
// testdata/golden/table5_usage.csv.
func WriteTable5CSV(out io.Writer, rows []UsageRow) error {
	w := csv.NewWriter(out)
	if err := w.Write([]string{"benchmark", "gpus", "cpu_pct", "gpu_pct",
		"dram_mb", "hbm_mb", "pcie_mbps", "nvlink_mbps"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := w.Write([]string{r.Bench, strconv.Itoa(r.GPUs),
			ff(r.CPUPct), ff(r.GPUPct), ff(r.DRAMMB), ff(r.HBMMB),
			ff(r.PCIeMbps), ff(r.NVLinkMbps)}); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// WriteFig5CSV emits the Figure 5 rows as CSV — the format of
// testdata/golden/fig5_topology.csv.
func WriteFig5CSV(out io.Writer, rows []TopologyRow) error {
	w := csv.NewWriter(out)
	if err := w.Write([]string{"benchmark", "system", "minutes", "nvlink_gain"}); err != nil {
		return err
	}
	for _, r := range rows {
		for _, sys := range TopologySystems() {
			if err := w.Write([]string{r.Bench, sys.Name,
				ff(r.Minutes[sys.Name]), ff(r.NVLinkGain)}); err != nil {
				return err
			}
		}
	}
	w.Flush()
	return w.Error()
}

// ExportAll runs every experiment and writes machine-readable results
// (CSV per table/figure plus a summary JSON) into dir — the artifact a
// downstream analysis notebook would consume.
func ExportAll(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	t4, err := Table4()
	if err != nil {
		return err
	}
	if err := atomicfile.Write(filepath.Join(dir, "table4_scaling.csv"), func(w io.Writer) error {
		return WriteTable4CSV(w, t4)
	}); err != nil {
		return err
	}

	t5, err := Table5()
	if err != nil {
		return err
	}
	if err := atomicfile.Write(filepath.Join(dir, "table5_usage.csv"), func(w io.Writer) error {
		return WriteTable5CSV(w, t5)
	}); err != nil {
		return err
	}

	f1, err := Fig1()
	if err != nil {
		return err
	}
	if err := writeCSV(filepath.Join(dir, "fig1_pca.csv"),
		[]string{"benchmark", "suite", "pc1", "pc2", "pc3", "pc4"},
		func(w *csv.Writer) error {
			for i, b := range f1.Benches {
				if err := w.Write([]string{b, string(f1.Suites[i]),
					ff(f1.Projection.At(i, 0)), ff(f1.Projection.At(i, 1)),
					ff(f1.Projection.At(i, 2)), ff(f1.Projection.At(i, 3))}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
		return err
	}

	f2, err := Fig2()
	if err != nil {
		return err
	}
	if err := writeCSV(filepath.Join(dir, "fig2_roofline.csv"),
		[]string{"benchmark", "intensity_flop_per_byte", "achieved_gflops", "bound"},
		func(w *csv.Writer) error {
			for _, p := range f2.Points {
				bound := "n/a"
				if p.Intensity > 0 {
					bound = f2.Model.Bound(p.Intensity, "")
				}
				if err := w.Write([]string{p.Name, ff(float64(p.Intensity)),
					ff(p.Achieved.G()), bound}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
		return err
	}

	f3, err := Fig3()
	if err != nil {
		return err
	}
	if err := writeCSV(filepath.Join(dir, "fig3_mixed_precision.csv"),
		[]string{"benchmark", "fp32_min", "amp_min", "speedup", "paper_speedup"},
		func(w *csv.Writer) error {
			for _, r := range f3 {
				if err := w.Write([]string{r.Bench, ff(r.FP32Min), ff(r.AMPMin),
					ff(r.Speedup), ff(workload.PaperMixedPrecision[r.Bench])}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
		return err
	}

	f5, err := Fig5()
	if err != nil {
		return err
	}
	if err := atomicfile.Write(filepath.Join(dir, "fig5_topology.csv"), func(w io.Writer) error {
		return WriteFig5CSV(w, f5)
	}); err != nil {
		return err
	}

	f4, err := Fig4(4)
	if err != nil {
		return err
	}

	// Summary JSON with the headline comparisons.
	summary := map[string]any{
		"table4": t4,
		"fig3":   f3,
		"fig4": map[string]any{
			"gpus":        4,
			"naive_hours": f4.Naive.Makespan / 3600,
			"opt_hours":   f4.Optimal.Makespan / 3600,
			"saved_hours": f4.SavedHours,
			"paper_hours": f4.PaperSavedHr,
		},
		"fig1": map[string]any{
			"pc14_variance":       f1.PCA.CumulativeVariance()[3],
			"centroid_separation": f1.CentroidSeparationPC1(),
			"min_intra_distance":  f1.MinIntraMLPerfDistance(),
		},
		"fig2_all_memory_bound": f2.AllMemoryBound(),
	}
	return atomicfile.Write(filepath.Join(dir, "summary.json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(summary)
	})
}

func writeCSV(path string, header []string, body func(*csv.Writer) error) error {
	return atomicfile.Write(path, func(out io.Writer) error {
		w := csv.NewWriter(out)
		if err := w.Write(header); err != nil {
			return err
		}
		if err := body(w); err != nil {
			return err
		}
		w.Flush()
		return w.Error()
	})
}

func ff(v float64) string { return fmt.Sprintf("%.4f", v) }
