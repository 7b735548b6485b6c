package experiments

import (
	"fmt"

	"mlperf/internal/report"
	"mlperf/internal/sweep"
)

// WhatIfRow compares 8-GPU training across interconnect generations for
// one benchmark: the study's PCIe DSS 8440 versus NVIDIA's NVLink DGX-1 —
// quantifying the paper's conclusion (i), "the importance of powerful
// interconnects in multi-GPU systems", at the scale the paper could not
// measure (it had no 8-GPU NVLink machine).
type WhatIfRow struct {
	Bench string
	// DSSMin and DGXMin are 8-GPU training minutes.
	DSSMin, DGXMin float64
	// Speedup8DSS / Speedup8DGX are the 1-to-8 scaling factors.
	Speedup8DSS, Speedup8DGX float64
	// Gain is the DGX-1 time improvement over the DSS 8440.
	Gain float64
}

// WhatIfNVLinkAt8 runs every Table IV benchmark at 1 and 8 GPUs on both
// machines. The DSS 8440 cells alias Table IV's, so a combined run only
// adds the DGX-1 column.
func WhatIfNVLinkAt8() ([]WhatIfRow, error) {
	var keys []sweep.CellKey
	for _, name := range Table4Benches {
		for _, system := range []string{"DSS 8440", "DGX-1"} {
			for _, g := range []int{1, 8} {
				keys = append(keys, sweep.CellKey{Benchmark: name, System: system, GPUs: g})
			}
		}
	}
	recs, err := runCells(keys)
	if err != nil {
		return nil, fmt.Errorf("whatif: %w", err)
	}
	var rows []WhatIfRow
	for i := range Table4Benches {
		cells := recs[i*4 : i*4+4] // [dss@1, dss@8, dgx@1, dgx@8]
		row := WhatIfRow{
			Bench:       cells[0].Benchmark,
			DSSMin:      cells[1].TimeToTrainMin,
			DGXMin:      cells[3].TimeToTrainMin,
			Speedup8DSS: cells[0].TimeToTrainMin / cells[1].TimeToTrainMin,
			Speedup8DGX: cells[2].TimeToTrainMin / cells[3].TimeToTrainMin,
		}
		if row.DSSMin > 0 {
			row.Gain = (row.DSSMin - row.DGXMin) / row.DSSMin
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderWhatIf renders the comparison.
func RenderWhatIf(rows []WhatIfRow) string {
	t := report.NewTable("What-if — 8 GPUs: PCIe DSS 8440 vs NVLink DGX-1",
		"Benchmark", "DSS 8440 (min)", "DGX-1 (min)", "1-to-8 DSS", "1-to-8 DGX", "DGX gain")
	for _, r := range rows {
		t.AddRow(r.Bench,
			fmt.Sprintf("%.0f", r.DSSMin), fmt.Sprintf("%.0f", r.DGXMin),
			report.Fx(r.Speedup8DSS), report.Fx(r.Speedup8DGX),
			fmt.Sprintf("%.0f%%", r.Gain*100))
	}
	return t.String()
}
