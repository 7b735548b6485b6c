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
	"math"
	"runtime"
	"strconv"
	"strings"

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

// GridLists is a grid spelled as comma lists — the form both the
// mlperf-sweep flags and the serving tier's query parameters carry.
type GridLists struct {
	Benchmarks, Systems, GPUs, Batches, Precisions string
}

// Grid parses the lists (blank entries dropped) into a Grid without
// faults; a GPU count or batch that is not an integer is an error.
func (l GridLists) Grid() (Grid, error) {
	g := Grid{
		Benchmarks: SplitList(l.Benchmarks),
		Systems:    SplitList(l.Systems),
		Precisions: SplitList(l.Precisions),
	}
	var err error
	if g.GPUCounts, err = splitInts(l.GPUs); err != nil {
		return Grid{}, err
	}
	if g.BatchPerGPU, err = splitInts(l.Batches); err != nil {
		return Grid{}, err
	}
	return g, nil
}

// SplitList splits a comma list, trimming blanks around entries and
// dropping empty ones (nil for none).
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, part := range SplitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
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

// RunCell simulates one normalized cell, outside any engine's memo and
// store. It is a pure function of the key and the fast-path mode:
// everything it touches (benchmark registry, the shared system
// instances, the simulator) is read-only, which is what makes
// concurrent cells race-free. Resolution is two map probes —
// the benchmark registry index and the shared-system memo — so a cell
// resolved once by Normalize is not rebuilt here (that used to
// reconstruct the whole topology per cell, twice). Cells run with
// sim.Config.NoTimeline set — Records only carry aggregates, so
// materializing per-step timelines would be pure overhead — and with the
// given fast-path mode, which cannot change any Record: either path is
// bit-identical by the simulator's contract.
func RunCell(k CellKey, mode sim.FastPathMode) (Record, error) {
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
	var plan *fault.Plan
	if k.Faults != "" {
		if plan, err = fault.Parse(k.Faults); err != nil {
			return Record{}, err
		}
	}
	res, err := sim.RunWithFaults(sim.Config{
		System: sys, GPUCount: k.GPUs, Job: job,
		FastPath: mode, NoTimeline: true,
	}, plan)
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

// space is a grid with its empty dimensions defaulted and its
// benchmarks and systems resolved.
type space struct {
	benches []workload.Benchmark
	systems []*hw.System
	gpus    []int
	batches []int
	precs   []string
	faults  string
}

// resolve defaults and validates the grid's dimensions, each value once,
// and counts its feasible cells (saturating at math.MaxInt). The errors
// are the ones expanding cell by cell would meet first: an unknown
// benchmark, system or precision, then the first feasible (system, GPU
// count) pair's GPU count below 1, negative batch or bad fault plan.
// CellsWithin prices and expands a grid from one resolve.
func resolve(g Grid) (space, int, error) {
	if len(g.Benchmarks) == 0 {
		for _, b := range workload.MLPerfSuite() {
			g.Benchmarks = append(g.Benchmarks, b.Abbrev)
		}
	}
	systems := orDefault(g.Systems, "dss8440")
	sp := space{
		benches: make([]workload.Benchmark, len(g.Benchmarks)),
		systems: make([]*hw.System, len(systems)),
		gpus:    orDefault(g.GPUCounts, 1),
		batches: orDefault(g.BatchPerGPU, 0),
		precs:   orDefault(g.Precisions, ""),
		faults:  g.Faults,
	}
	for i, name := range g.Benchmarks {
		b, err := workload.ByName(name)
		if err != nil {
			return space{}, 0, err
		}
		sp.benches[i] = b
	}
	for i, name := range systems {
		sys, err := hw.SharedSystemByName(name)
		if err != nil {
			return space{}, 0, err
		}
		sp.systems[i] = sys
	}
	for _, prec := range sp.precs {
		switch prec {
		case "", "fp32", "mixed":
		default:
			return space{}, 0, fmt.Errorf("sweep: unknown precision %q", prec)
		}
	}

	pairs := 0
	for _, sys := range sp.systems {
		for _, gpus := range sp.gpus {
			if gpus > sys.GPUCount {
				continue // silently infeasible cells are skipped
			}
			if gpus < 1 {
				return space{}, 0, fmt.Errorf("sweep: %d GPUs on %s (want 1..%d)", gpus, sys.Name, sys.GPUCount)
			}
			if pairs == 0 {
				// The first feasible pair is where expansion meets a bad
				// fault plan (at its first batch, unless that batch is
				// negative) and a negative batch.
				if sp.batches[0] >= 0 {
					k := CellKey{Benchmark: sp.benches[0].Abbrev, System: sys.Name, GPUs: gpus, Faults: g.Faults}
					if _, err := k.Normalize(); err != nil {
						return space{}, 0, err
					}
				}
				for _, batch := range sp.batches {
					if batch < 0 {
						return space{}, 0, fmt.Errorf("sweep: negative batch %d", batch)
					}
				}
			}
			pairs++
		}
	}
	if pairs == 0 {
		return space{}, 0, fmt.Errorf("sweep: empty grid (no feasible cells)")
	}
	n := len(sp.benches)
	for _, d := range []int{pairs, len(sp.batches), len(sp.precs)} {
		if n > math.MaxInt/d {
			return sp, math.MaxInt, nil
		}
		n *= d
	}
	return sp, n, nil
}

// orDefault is xs, or the one-value list d when xs is empty.
func orDefault[T any](xs []T, d T) []T {
	if len(xs) == 0 {
		return []T{d}
	}
	return xs
}

// CellsWithin prices the grid and, when it costs at most limit cells,
// enumerates them in deterministic order, validating every dimension up
// front. It returns the keys, their count and Cells' errors. A grid
// costing more than limit comes back with nil keys and its cost
// (saturating at math.MaxInt), so a grid too large to run is refused
// for the cost of its parameter lists, not of its cells. Each
// benchmark and system is resolved once for both the price and the
// keys.
func (g Grid) CellsWithin(limit int) ([]CellKey, int, error) {
	sp, n, err := resolve(g)
	if err != nil || n > limit {
		return nil, n, err
	}
	keys := make([]CellKey, 0, n)
	for _, b := range sp.benches {
		for _, sys := range sp.systems {
			for _, gpus := range sp.gpus {
				if gpus > sys.GPUCount {
					continue
				}
				for _, batch := range sp.batches {
					for _, prec := range sp.precs {
						k, err := (CellKey{
							Benchmark: b.Abbrev,
							System:    sys.Name,
							GPUs:      gpus,
							Batch:     batch,
							Precision: prec,
							Faults:    sp.faults,
						}).Normalize()
						if err != nil {
							return nil, 0, err
						}
						keys = append(keys, k)
					}
				}
			}
		}
	}
	return keys, n, nil
}

// Cells enumerates the grid's feasible cells in deterministic order —
// the exact normalized list every Run variant executes. Both the engine
// and the sequential reference path run exactly this list, which is
// what makes their outputs comparable cell for cell. Callers that run
// the keys themselves (the serve daemon, through CellsWithin) hand them
// to RunCellsWithOptions.
func (g Grid) Cells() ([]CellKey, error) {
	keys, _, err := g.CellsWithin(math.MaxInt)
	return keys, err
}

// RunSequential executes the grid one cell at a time on the calling
// goroutine, with no caching and with the analytic fast path disabled —
// the step-by-step reference every engine configuration (parallel,
// cached, fast-path) is proven byte-identical to.
func RunSequential(g Grid) ([]Record, error) {
	keys, err := g.Cells()
	if err != nil {
		return nil, err
	}
	out := make([]Record, len(keys))
	for i, k := range keys {
		rec, err := RunCell(k, sim.FastPathOff)
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
