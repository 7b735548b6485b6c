// Package experiments implements one entry point per table and figure of
// the paper's evaluation, producing both structured results (consumed by
// tests and benchmarks) and rendered text (consumed by the CLIs and
// EXPERIMENTS.md). The per-experiment index lives in DESIGN.md §3.
package experiments

import (
	"context"
	"fmt"

	"mlperf/internal/hw"
	"mlperf/internal/report"
	"mlperf/internal/sweep"
	"mlperf/internal/workload"
)

// runCells evaluates simulation cells on the shared sweep engine: they
// fan out across its hardened pool and land in its memo cache, so cells
// that recur across experiments (Table IV and Figure 4 share the DSS 8440
// ladder; Table V and Figure 5 share the C4140 (K) column) are simulated
// once per process.
func runCells(keys []sweep.CellKey) ([]sweep.Record, error) {
	recs, _, err := sweep.Default.RunCellsWithOptions(context.Background(), keys, sweep.Options{})
	return recs, err
}

// Table2 renders the benchmark inventory (paper Table II).
func Table2() string {
	t := report.NewTable("Table II — benchmarks under study",
		"Abbreviation", "Suite", "Domain", "Model", "Framework", "Submitter", "Quality target")
	for _, b := range workload.All() {
		t.AddRow(b.Abbrev, string(b.Suite), b.Domain, b.ModelName, b.Framework, b.Submitter, b.QualityTarget)
	}
	return t.String()
}

// Table3 renders the hardware inventory (paper Table III).
func Table3() string {
	t := report.NewTable("Table III — systems under test",
		"System", "CPU", "Sockets", "DIMMs", "DRAM", "GPU", "#GPUs", "HBM/GPU", "Interconnect")
	for _, s := range hw.AllSystems() {
		t.AddRow(
			s.Name,
			s.CPU.Name,
			fmt.Sprintf("%d", s.CPUSockets),
			fmt.Sprintf("%dx %v", s.DIMMCount, s.DIMM.Size),
			s.TotalDRAM().String(),
			s.GPU.Name,
			fmt.Sprintf("%d", s.GPUCount),
			s.GPU.MemCapacity.String(),
			s.Interconnect,
		)
	}
	return t.String()
}
