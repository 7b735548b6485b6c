// Package mlperf is a Go reproduction of "Demystifying the MLPerf Training
// Benchmark Suite" (ISPASS 2020): a characterization laboratory for the
// MLPerf v0.5 training suite, DAWNBench and DeepBench, built on a
// discrete-event simulator of multi-GPU training systems.
//
// The package is a facade over the internal implementation:
//
//   - Systems() and SystemByName() give the six Dell PowerEdge platforms of
//     the paper's Table III as interconnect topology graphs.
//   - Benchmarks() and BenchmarkByName() give the thirteen calibrated
//     benchmarks of Table II.
//   - Simulate() runs one training job on one system and reports the
//     time-to-train, step breakdown, and the Table V utilization metrics;
//     SimulateObserved/SimulateWithFaults add event observers and fault
//     plans.
//   - Table4/Table5/Fig1..Fig5 and FaultSensitivity regenerate the
//     paper's tables and figures (see EXPERIMENTS.md for
//     paper-vs-simulated).
//   - SweepWithOptions/SweepSequential run benchmark x system x GPU grids
//     on a parallel, memoizing execution engine with an optional
//     persistent cell cache (DESIGN.md §2 "sweep").
//   - NewTelemetry, WithTelemetry and NewRunManifest instrument runs.
//   - V100Roofline builds the Figure 2 roofline model.
//   - ScheduleNaive/ScheduleOptimal search training-mix schedules
//     (Figure 4).
//   - NewNCF/TrainNCFToTarget, TrainClassifierToAccuracy and
//     TrainMiniGoToWinRate really train models to a quality target —
//     MLPerf's time-to-quality metric executing for real.
//
// See the examples/ directory for runnable walkthroughs.
package mlperf

import (
	"context"
	"io"
	"math/rand"

	"mlperf/internal/dataset"
	"mlperf/internal/experiments"
	"mlperf/internal/fault"
	"mlperf/internal/hw"
	"mlperf/internal/minigo"
	"mlperf/internal/roofline"
	"mlperf/internal/sched"
	"mlperf/internal/sim"
	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
	"mlperf/internal/train"
	"mlperf/internal/workload"
)

// System is a hardware platform: CPUs, memory, GPUs and the interconnect
// topology between them.
type System = hw.System

// Benchmark is one Table II entry bound to a calibrated simulator job.
type Benchmark = workload.Benchmark

// SimConfig configures one simulated training run.
type SimConfig = sim.Config

// SimResult is a simulated training run's outcome.
type SimResult = sim.Result

// Job is a simulator workload description.
type Job = sim.Job

// Systems returns the six Table III systems.
func Systems() []*System { return hw.AllSystems() }

// SystemByName resolves "t640", "c4140k", "dss8440", "p100", ...
func SystemByName(name string) (*System, error) { return hw.SystemByName(name) }

// Benchmarks returns all thirteen benchmarks across the three suites.
func Benchmarks() []Benchmark { return workload.All() }

// MLPerfBenchmarks returns the seven MLPerf GPU submissions.
func MLPerfBenchmarks() []Benchmark { return workload.MLPerfSuite() }

// BenchmarkByName resolves an abbreviation such as "MLPf_Res50_TF" (or the
// short form "res50_tf").
func BenchmarkByName(name string) (Benchmark, error) { return workload.ByName(name) }

// Simulate runs one benchmark on a system with the given GPU count.
func Simulate(system *System, gpus int, b Benchmark) (*SimResult, error) {
	return sim.Run(sim.Config{System: system, GPUCount: gpus, Job: b.Job})
}

// SimulateJob runs a custom job (advanced use: modified batch, precision,
// or calibration).
func SimulateJob(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// SimEvent is one typed stage event from the simulator's event bus: an
// input-prepare, H2D copy, compute, all-reduce, optimizer or step-done
// span with its lane, step, time bounds, bytes moved and FLOPs executed.
type SimEvent = sim.Event

// SimObserver receives every SimEvent of a run as it is published.
// Implementations must not block; they watch the simulation, they do not
// steer it.
type SimObserver = sim.Observer

// SimEventLog is a ready-made observer that records the full event
// stream in publication order. Attaching one forces the step-by-step
// pipeline: its contract is the discrete-event publication order, which
// the analytic fast path does not produce.
type SimEventLog = sim.EventLog

// SimFastPathMode selects the simulator's execution strategy: Auto (the
// default) collapses steady-state step windows analytically when no
// per-step divergence source exists and falls back to the discrete-event
// pipeline otherwise, Off always walks the pipeline, Force demands the
// analytic path or fails. Either path yields
// bit-identical results — the mode is a performance knob, never a
// modeling one.
type SimFastPathMode = sim.FastPathMode

// Fast-path modes for SimConfig.FastPath; the zero value is Auto.
const (
	SimFastPathOff   = sim.FastPathOff
	SimFastPathForce = sim.FastPathForce
)

// SimulateObserved runs one benchmark like Simulate but additionally
// publishes the run's typed event stream to the given observers — the
// hook the profiling toolchain uses to derive dstat/dmon/nvprof views
// and Chrome traces from a single simulation instead of re-running it.
func SimulateObserved(system *System, gpus int, b Benchmark, obs ...SimObserver) (*SimResult, error) {
	return sim.RunObserved(sim.Config{System: system, GPUCount: gpus, Job: b.Job}, obs...)
}

// ---- Fault injection (DESIGN.md §"Fault model") ----

// FaultPlan is a deterministic, seed-driven fault scenario: straggler
// lanes, degraded or flapping interconnect links, transient kernel
// failures with retry cost, node preemptions, and a checkpoint/restart
// cost model. The zero plan is fault-free and simulates bit-identically
// to Simulate.
type FaultPlan = fault.Plan

// ParseFaultPlan decodes a JSON fault plan (see fault.Parse for the
// schema).
func ParseFaultPlan(s string) (*FaultPlan, error) { return fault.Parse(s) }

// SimulateWithFaults runs one benchmark under a fault plan. Observers
// see the faulted event stream, including the FaultInjected /
// StageRetried / CheckpointSaved / Restarted event kinds; the result's
// Faults field holds the quantified damage. A nil or empty plan routes
// through the unmodified pipeline.
func SimulateWithFaults(system *System, gpus int, b Benchmark, plan *FaultPlan, obs ...SimObserver) (*SimResult, error) {
	return sim.RunWithFaults(sim.Config{System: system, GPUCount: gpus, Job: b.Job}, plan, obs...)
}

// FaultRow is one severity level of the fault-sensitivity study.
type FaultRow = experiments.FaultRow

// FaultSensitivity sweeps straggler severity against the five Figure 5
// interconnect topologies at 4 GPUs.
func FaultSensitivity() ([]FaultRow, error) { return experiments.FaultSensitivity() }

// ---- Experiments (one per paper table/figure) ----

// ScalingRow is one simulated Table IV row.
type ScalingRow = experiments.ScalingRow

// Table4 runs the scaling study (Table IV).
func Table4() ([]ScalingRow, error) { return experiments.Table4() }

// UsageRow is one simulated Table V row.
type UsageRow = experiments.UsageRow

// Table5 runs the resource-usage study (Table V).
func Table5() ([]UsageRow, error) { return experiments.Table5() }

// PCAResult is the Figure 1 workload-space analysis.
type PCAResult = experiments.PCAResult

// Fig1 runs the PCA similarity analysis (Figure 1).
func Fig1() (*PCAResult, error) { return experiments.Fig1() }

// RooflineResult is the Figure 2 analysis.
type RooflineResult = experiments.RooflineResult

// Fig2 places every benchmark on the V100 roofline (Figure 2).
func Fig2() (*RooflineResult, error) { return experiments.Fig2() }

// MixedPrecisionRow is one Figure 3 bar.
type MixedPrecisionRow = experiments.MixedPrecisionRow

// Fig3 runs the mixed-precision study (Figure 3).
func Fig3() ([]MixedPrecisionRow, error) { return experiments.Fig3() }

// SchedulingResult compares naive and optimal plans (Figure 4).
type SchedulingResult = experiments.SchedulingResult

// Fig4 runs the scheduling study on n GPUs (Figure 4).
func Fig4(gpus int) (*SchedulingResult, error) { return experiments.Fig4(gpus) }

// TopologyRow is one Figure 5 comparison row.
type TopologyRow = experiments.TopologyRow

// Fig5 runs the interconnect-topology study (Figure 5).
func Fig5() ([]TopologyRow, error) { return experiments.Fig5() }

// ---- Sweep engine (parallel grid execution with memoization) ----

// SweepGrid declares a benchmarks x systems x GPU counts (x batch x
// precision) sweep space.
type SweepGrid = sweep.Grid

// SweepRecord is one sweep cell's outcome.
type SweepRecord = sweep.Record

// SweepCellKey identifies one simulation cell — the memo-cache key.
type SweepCellKey = sweep.CellKey

// SweepEngine executes cells on a bounded worker pool and memoizes every
// result, so repeated cells across experiments simulate exactly once.
type SweepEngine = sweep.Engine

// SweepSequential runs the grid one cell at a time with no caching — the
// reference path parallel execution is tested byte-identical to.
func SweepSequential(g SweepGrid) ([]SweepRecord, error) { return sweep.RunSequential(g) }

// NewSweepEngine builds an isolated engine with its own cache and worker
// bound (<= 0 means GOMAXPROCS).
func NewSweepEngine(workers int) *SweepEngine { return sweep.NewEngine(workers) }

// SweepOptions harden a grid run: panic containment and graceful
// (partial) degradation. Each cell gets one attempt; the simulator is
// deterministic, so a retry could only repeat it. A run is bounded by
// its context's deadline, not by a per-cell clock.
type SweepOptions = sweep.Options

// SweepReport is a hardened run's structured outcome: completed count
// and one typed cell error per failed cell.
type SweepReport = sweep.Report

// SweepWithOptions runs the grid on the shared engine with the hardened
// execution path; ctx cancels the run cooperatively.
func SweepWithOptions(ctx context.Context, g SweepGrid, opts SweepOptions) ([]SweepRecord, *SweepReport, error) {
	return sweep.Default.RunWithOptions(ctx, g, opts)
}

// ---- Persistent sweep cache ----

// SweepStore is the pluggable persistent tier behind a sweep engine's
// in-memory memo cache: consulted on a memory miss, written through
// after every successful simulation. Its Get and Put report
// environmental errors; the engine treats them as a miss or a dropped
// write.
type SweepStore = sweep.Store

// SweepCellDigest returns the cell's canonical content address: the
// SHA-256 of its normalized key under the current key schema. Spelling
// variants of one cell share a digest; distinct configurations never do.
func SweepCellDigest(k SweepCellKey) (string, error) { return k.Digest() }

// OpenSweepCacheDir opens (creating if needed) a persistent
// content-addressed cell cache rooted at dir, sharable across engines,
// runs and processes. Attach it with SetSweepStore or
// SweepEngine.SetStore.
func OpenSweepCacheDir(dir string) (*sweep.DiskStore, error) { return sweep.OpenDiskStore(dir) }

// SetSweepStore attaches a persistent cache tier to the shared engine
// (nil detaches): misses replay from disk instead of simulating, and
// new results are written through. Results are never affected — only
// how fast they arrive.
func SetSweepStore(s SweepStore) { sweep.Default.SetStore(s) }

// ---- Telemetry (DESIGN.md §"Telemetry") ----

// Telemetry is a zero-dependency metrics registry plus a hierarchical
// span tracer: counters, gauges and fixed-bucket histograms, all
// atomic and race-clean, with a strict no-op guarantee — a nil
// *Telemetry disables every instrument and observer in the library at
// zero cost, leaving all outputs byte-identical.
type Telemetry = telemetry.Registry

// RunManifest is the reproducibility record of one CLI run: tool,
// version, configuration, seeds, fault-plan hash, cache statistics,
// metrics snapshot and wall-clock provenance. Manifests from equal
// seeds are identical modulo the volatile wall-clock fields.
type RunManifest = telemetry.Manifest

// NewTelemetry returns an enabled registry on a monotonic wall clock.
func NewTelemetry() *Telemetry { return telemetry.New() }

// WithTelemetry adapts a registry into a SimObserver that publishes
// per-stage event counts and duration histograms for any simulated run
// (pass it to SimulateObserved or SimulateWithFaults). A nil registry
// yields a no-op observer.
func WithTelemetry(reg *Telemetry) SimObserver { return sim.NewTelemetryObserver(reg) }

// SetSweepTelemetry attaches a registry to the shared sweep engine:
// cell latency histograms, cache hit/miss counters, failed-cell
// counters by kind, worker-pool occupancy gauges and per-cell spans.
// Pass nil to detach.
func SetSweepTelemetry(reg *Telemetry) { sweep.Default.SetTelemetry(reg) }

// NewRunManifest starts a manifest for the named tool.
func NewRunManifest(tool string) *RunManifest { return telemetry.NewManifest(tool) }

// WriteTelemetryPrometheus exports every instrument of the registry in
// the Prometheus text exposition format.
func WriteTelemetryPrometheus(w io.Writer, reg *Telemetry) error { return reg.WritePrometheus(w) }

// ---- Roofline ----

// Roofline is a bandwidth/compute envelope model.
type Roofline = roofline.Model

// V100Roofline returns the empirical V100 roofline of Figure 2.
func V100Roofline() *Roofline {
	g := hw.TeslaV100SXM2
	return roofline.ForGPU(&g)
}

// ---- Scheduling ----

// SchedJob is a moldable training job for the scheduler.
type SchedJob = sched.Job

// Schedule is a placement plan with its makespan.
type Schedule = sched.Schedule

// ScheduleNaive runs every job on all GPUs sequentially (Figure 4a).
func ScheduleNaive(jobs []SchedJob, gpus int) (Schedule, error) { return sched.Naive(jobs, gpus) }

// ScheduleOptimal searches allocations and placements for the minimal
// makespan (Figure 4b).
func ScheduleOptimal(jobs []SchedJob, gpus int) (Schedule, error) { return sched.Optimal(jobs, gpus) }

// RenderGantt draws a schedule as text.
func RenderGantt(s Schedule, gpus, width int) string { return sched.Gantt(s, gpus, width) }

// ---- Real training (time-to-quality for real) ----

// NCFConfig configures the runnable NCF recommender.
type NCFConfig = train.Config

// NCFModel is the runnable NeuMF recommender.
type NCFModel = train.NCF

// NCFRunResult reports a real training run.
type NCFRunResult = train.RunResult

// RatingSplit is a leave-one-out train/test split.
type RatingSplit = dataset.Split

// DefaultNCFConfig returns a fast-converging small configuration.
func DefaultNCFConfig(users, items int) NCFConfig { return train.DefaultConfig(users, items) }

// NewNCF builds a runnable NCF model.
func NewNCF(cfg NCFConfig) (*NCFModel, error) { return train.NewNCF(cfg) }

// TrainNCFToTarget trains until hit-rate@10 reaches target, for real.
func TrainNCFToTarget(m *NCFModel, sp RatingSplit, target float64, maxEpochs int) (*NCFRunResult, error) {
	return train.TrainToTarget(m, sp, target, maxEpochs)
}

// TopKRecommendations returns the model's k best unseen items for a user.
func TopKRecommendations(m *NCFModel, user int32, k int, exclude map[int32]bool) []int32 {
	return train.TopK(m, user, k, exclude)
}

// Classifier is the runnable MLP image classifier (DAWNBench's
// time-to-accuracy protocol, executed for real).
type Classifier = train.Classifier

// ClassifierResult reports a real time-to-accuracy run.
type ClassifierResult = train.ClassifierResult

// NewClassifier builds an MLP classifier.
func NewClassifier(rng *rand.Rand, inputDim int, hidden []int, classes int, lr, momentum float64) (*Classifier, error) {
	return train.NewClassifier(rng, inputDim, hidden, classes, lr, momentum)
}

// TrainClassifierToAccuracy trains until test accuracy clears the target.
func TrainClassifierToAccuracy(c *Classifier, trainX [][]float64, trainY []int,
	testX [][]float64, testY []int, target float64, maxEpochs int, seed int64) (*ClassifierResult, error) {
	return train.TrainClassifierToAccuracy(c, trainX, trainY, testX, testY, target, maxEpochs, seed)
}

// SyntheticImages generates the learnable CIFAR-like task the classifier
// trains on.
func SyntheticImages(rng *rand.Rand, classes, perClass, dim int, noise float64) ([][]float64, []int) {
	return dataset.SyntheticImages(rng, classes, perClass, dim, noise)
}

// ---- MiniGo (the RL benchmark the paper excludes, executed for real) ----

// GoBoard is a real Go board with capture, suicide and superko rules.
type GoBoard = minigo.Board

// GoMCTS is a Monte-Carlo tree searcher over Go positions.
type GoMCTS = minigo.MCTS

// MiniGoResult reports a real self-play training run.
type MiniGoResult = minigo.RunResult

// NewGoBoard creates an empty board (sizes 2-19).
func NewGoBoard(size int) *GoBoard { return minigo.NewBoard(size) }

// NewGoMCTS builds a searcher with the given playout budget.
func NewGoMCTS(playouts int, komi float64, seed int64) *GoMCTS {
	return minigo.NewMCTS(playouts, komi, seed)
}

// TrainMiniGoToWinRate runs the reinforcement-learning loop for real at
// reduced scale: MCTS self-play generates games, a policy net clones the
// searched moves, and training stops when the policy beats a random
// player at the target rate.
func TrainMiniGoToWinRate(size, games, playouts int, target float64, maxGenerations int, seed int64) (*MiniGoResult, error) {
	return minigo.TrainToWinRate(size, games, playouts, target, maxGenerations, seed)
}

// ExtensionBenchmarks returns benchmarks beyond the paper's study set
// (currently the simulated MiniGo RL entry; see workload.Extensions).
func ExtensionBenchmarks() []Benchmark { return workload.Extensions() }
