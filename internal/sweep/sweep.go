// Package sweep is the generic parameter-sweep harness behind the paper's
// grid experiments: it runs the cartesian product of benchmarks × systems
// × GPU counts (optionally × batch sizes or precision policies) through
// the simulator and emits one flat record per cell, ready for CSV export
// or downstream analysis. Table IV is Grid{benchmarks, DSS8440, 1/2/4/8};
// Figure 5 is Grid{MLPerf, five systems, 4}.
//
// Grids execute on an Engine: a bounded worker pool that fans independent
// cells out across goroutines while preserving the deterministic
// sequential output order, backed by a memoizing cache keyed by the full
// cell configuration so repeated cells (across Table IV, Table V, the
// figures and the ablations) are simulated exactly once per process.
// RunSequential is the retained single-goroutine, uncached reference path
// the equivalence tests hold the engine to.
package sweep

import (
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"strconv"

	"mlperf/internal/fault"
	"mlperf/internal/hw"
	"mlperf/internal/precision"
	"mlperf/internal/sim"
	"mlperf/internal/workload"
)

// ValidateWorkers vets a worker-pool bound the way every CLI should:
// negative counts are rejected with a clear error, 0 resolves to
// GOMAXPROCS, and positive counts pass through.
func ValidateWorkers(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("sweep: workers must be >= 0 (0 = GOMAXPROCS), got %d", n)
	}
	if n == 0 {
		return runtime.GOMAXPROCS(0), nil
	}
	return n, nil
}

// Grid declares the sweep space. Empty dimensions default to sensible
// singletons (all MLPerf benchmarks, the DSS 8440, 1 GPU, the calibrated
// batch/precision).
type Grid struct {
	// Benchmarks by abbreviation (short forms allowed).
	Benchmarks []string
	// Systems by name.
	Systems []string
	// GPUCounts to sweep. A count above a system's GPUs skips that
	// system's cells; a count below 1 is an error.
	GPUCounts []int
	// BatchPerGPU values to sweep (0 entry = calibrated default).
	BatchPerGPU []int
	// Precisions to sweep: "" (calibrated), "fp32", "mixed".
	Precisions []string
	// Faults, when non-empty, applies one fault plan (canonical or plain
	// JSON; see fault.Parse) to every cell of the grid.
	Faults string
}

// Record is one sweep cell's outcome.
type Record struct {
	Benchmark string
	System    string
	GPUs      int
	Batch     int
	Precision string

	TimeToTrainMin float64
	StepMs         float64
	Throughput     float64
	CPUPct         float64
	GPUPct         float64
	DRAMMB         float64
	HBMMB          float64
	PCIeMbps       float64
	NVLinkMbps     float64
}

// CellKey is the full configuration of one sweep cell — the memo-cache
// key. Keys are normalized before use (canonical benchmark abbreviation,
// canonical system name, "" precision resolved to the calibrated policy
// label), so different spellings of the same cell share one cache slot.
type CellKey struct {
	// Benchmark is the abbreviation (short forms accepted).
	Benchmark string
	// Ref selects the benchmark's reference-implementation job (the
	// Table IV 1xP100 column) instead of the optimized submission.
	Ref bool
	// System is the platform name or alias.
	System string
	// GPUs is the device count, 1..the system's GPUs.
	GPUs int
	// Batch overrides the calibrated per-GPU batch (0 = calibrated).
	Batch int
	// Precision is "" (calibrated), "fp32" or "mixed".
	Precision string
	// Faults is a fault plan in its canonical JSON form ("" = fault-free;
	// see fault.Plan.Canon). Keeping the plan as a canonical string keeps
	// CellKey comparable, so faulted cells memoize like any other.
	Faults string
}

// Normalize canonicalizes the key so equal cells hash equally, and
// rejects a key no simulation can honour: an unknown benchmark, system
// or precision, a GPU count outside 1..the system's GPUs, or a negative
// batch. Normalizing a normalized key returns it unchanged.
func (k CellKey) Normalize() (CellKey, error) {
	b, err := workload.ByName(k.Benchmark)
	if err != nil {
		return CellKey{}, err
	}
	k.Benchmark = b.Abbrev
	sys, err := hw.SharedSystemByName(k.System)
	if err != nil {
		return CellKey{}, err
	}
	k.System = sys.Name
	if k.GPUs < 1 || k.GPUs > sys.GPUCount {
		return CellKey{}, fmt.Errorf("sweep: %d GPUs on %s (want 1..%d)", k.GPUs, sys.Name, sys.GPUCount)
	}
	if k.Batch < 0 {
		return CellKey{}, fmt.Errorf("sweep: negative batch %d", k.Batch)
	}
	job := b.Job
	if k.Ref {
		job = b.RefJob
	}
	switch k.Precision {
	case "":
		// The calibrated policy: folding "" into its explicit label lets a
		// defaulted cell and an explicit "fp32"/"mixed" cell share a slot.
		k.Precision = job.Precision.Policy.String()
	case "fp32", "mixed":
	default:
		return CellKey{}, fmt.Errorf("sweep: unknown precision %q", k.Precision)
	}
	if k.Faults != "" {
		plan, err := fault.Parse(k.Faults)
		if err != nil {
			return CellKey{}, err
		}
		if k.Faults, err = plan.Canon(); err != nil {
			return CellKey{}, err
		}
	}
	return k, nil
}

// runCell simulates one normalized cell. It is a pure function of the
// key and the fast-path mode: everything it touches (benchmark registry,
// the shared system instances, the simulator) is read-only, which is
// what makes concurrent cells race-free. Resolution is two map probes —
// the benchmark registry index and the shared-system memo — so a cell
// resolved once by Normalize is not rebuilt here (that used to
// reconstruct the whole topology per cell, twice). Cells run with
// sim.Config.NoTimeline set — Records only carry aggregates, so
// materializing per-step timelines would be pure overhead — and with the
// given fast-path mode, which cannot change any Record: either path is
// bit-identical by the simulator's contract.
func runCell(k CellKey, mode sim.FastPathMode) (Record, error) {
	b, err := workload.ByName(k.Benchmark)
	if err != nil {
		return Record{}, err
	}
	sys, err := hw.SharedSystemByName(k.System)
	if err != nil {
		return Record{}, err
	}
	job := b.Job
	if k.Ref {
		job = b.RefJob
	}
	if k.Batch > 0 {
		job.BatchPerGPU = k.Batch
	}
	switch k.Precision {
	case "":
	case "fp32":
		job.Precision.Policy = precision.FP32
	case "mixed":
		job.Precision.Policy = precision.AMP
	default:
		return Record{}, fmt.Errorf("sweep: unknown precision %q", k.Precision)
	}
	var res *sim.Result
	if k.Faults != "" {
		plan, perr := fault.Parse(k.Faults)
		if perr != nil {
			return Record{}, perr
		}
		res, err = sim.RunWithFaults(sim.Config{
			System: sys, GPUCount: k.GPUs, Job: job,
			FastPath: mode, NoTimeline: true,
		}, plan)
	} else {
		res, err = sim.Run(sim.Config{
			System: sys, GPUCount: k.GPUs, Job: job,
			FastPath: mode, NoTimeline: true,
		})
	}
	if err != nil {
		return Record{}, fmt.Errorf("sweep: %s on %s @%d: %w", b.Abbrev, sys.Name, k.GPUs, err)
	}
	precLabel := k.Precision
	if precLabel == "" {
		precLabel = job.Precision.Policy.String()
	}
	return Record{
		Benchmark:      b.Abbrev,
		System:         sys.Name,
		GPUs:           k.GPUs,
		Batch:          res.LocalBatch,
		Precision:      precLabel,
		TimeToTrainMin: res.TimeToTrain.Minutes(),
		StepMs:         res.StepTime * 1e3,
		Throughput:     res.Throughput,
		CPUPct:         float64(res.CPUUtil),
		GPUPct:         float64(res.GPUUtilTotal),
		DRAMMB:         res.DRAMBytes.MB(),
		HBMMB:          res.HBMBytes.MB(),
		PCIeMbps:       res.PCIeRate.Mbps(),
		NVLinkMbps:     res.NVLinkRate.Mbps(),
	}, nil
}

// expand enumerates the grid's feasible cells in deterministic order,
// validating every dimension up front. Both the engine and the
// sequential reference path run exactly this list, which is what makes
// their outputs comparable cell for cell.
func expand(g Grid) ([]CellKey, error) {
	if len(g.Benchmarks) == 0 {
		for _, b := range workload.MLPerfSuite() {
			g.Benchmarks = append(g.Benchmarks, b.Abbrev)
		}
	}
	if len(g.Systems) == 0 {
		g.Systems = []string{"dss8440"}
	}
	if len(g.GPUCounts) == 0 {
		g.GPUCounts = []int{1}
	}
	if len(g.BatchPerGPU) == 0 {
		g.BatchPerGPU = []int{0}
	}
	if len(g.Precisions) == 0 {
		g.Precisions = []string{""}
	}

	benches := make([]workload.Benchmark, len(g.Benchmarks))
	for i, name := range g.Benchmarks {
		b, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		benches[i] = b
	}
	systems := make([]*hw.System, len(g.Systems))
	for i, name := range g.Systems {
		sys, err := hw.SharedSystemByName(name)
		if err != nil {
			return nil, err
		}
		systems[i] = sys
	}
	for _, prec := range g.Precisions {
		switch prec {
		case "", "fp32", "mixed":
		default:
			return nil, fmt.Errorf("sweep: unknown precision %q", prec)
		}
	}

	var keys []CellKey
	for _, b := range benches {
		for _, sys := range systems {
			for _, gpus := range g.GPUCounts {
				if gpus > sys.GPUCount {
					continue // silently infeasible cells are skipped
				}
				for _, batch := range g.BatchPerGPU {
					for _, prec := range g.Precisions {
						k, err := (CellKey{
							Benchmark: b.Abbrev,
							System:    sys.Name,
							GPUs:      gpus,
							Batch:     batch,
							Precision: prec,
							Faults:    g.Faults,
						}).Normalize()
						if err != nil {
							return nil, err
						}
						keys = append(keys, k)
					}
				}
			}
		}
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("sweep: empty grid (no feasible cells)")
	}
	return keys, nil
}

// Cells enumerates the grid's feasible cells in deterministic order —
// the exact normalized list every Run variant executes. Callers that
// need the cell count before committing to a run (the serve daemon's
// admission controller prices requests by it) expand once here and hand
// the keys to RunCellsWithOptions.
func (g Grid) Cells() ([]CellKey, error) { return expand(g) }

// RunSequential executes the grid one cell at a time on the calling
// goroutine, with no caching and with the analytic fast path disabled —
// the step-by-step reference every engine configuration (parallel,
// cached, fast-path) is proven byte-identical to.
func RunSequential(g Grid) ([]Record, error) {
	keys, err := expand(g)
	if err != nil {
		return nil, err
	}
	out := make([]Record, len(keys))
	for i, k := range keys {
		rec, err := runCell(k, sim.FastPathOff)
		if err != nil {
			return nil, err
		}
		out[i] = rec
	}
	return out, nil
}

// WriteCSV emits the records with a header.
func WriteCSV(w io.Writer, recs []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"benchmark", "system", "gpus", "batch", "precision",
		"time_to_train_min", "step_ms", "samples_per_s",
		"cpu_pct", "gpu_pct", "dram_mb", "hbm_mb", "pcie_mbps", "nvlink_mbps",
	}); err != nil {
		return err
	}
	for _, r := range recs {
		rec := []string{
			r.Benchmark, r.System, strconv.Itoa(r.GPUs), strconv.Itoa(r.Batch), r.Precision,
			f4(r.TimeToTrainMin), f4(r.StepMs), f4(r.Throughput),
			f4(r.CPUPct), f4(r.GPUPct), f4(r.DRAMMB), f4(r.HBMMB), f4(r.PCIeMbps), f4(r.NVLinkMbps),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f4(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
