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
//     time-to-train, step breakdown, and the Table V utilization metrics.
//   - Table4/Table5/Fig1..Fig5 regenerate every table and figure of the
//     paper's evaluation (see EXPERIMENTS.md for paper-vs-simulated).
//   - Sweep()/SweepSequential() run benchmark x system x GPU grids on a
//     parallel, memoizing execution engine (DESIGN.md §2 "sweep").
//   - V100Roofline/MeasureHostRoofline build roofline models (Figure 2);
//     the host variant really micro-benchmarks the machine you run on.
//   - ScheduleNaive/ScheduleOptimal search training-mix schedules
//     (Figure 4).
//   - NewNCF/TrainNCFToTarget really train a recommender to a hit-rate@10
//     target — MLPerf's time-to-quality metric executing for real.
//
// See the examples/ directory for runnable walkthroughs.
package mlperf

import (
	"context"
	"io"
	"math/rand"

	"mlperf/internal/cluster"
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

// Topology is an interconnect graph with path/bandwidth queries.
type Topology = hw.Topology

// Benchmark is one Table II entry bound to a calibrated simulator job.
type Benchmark = workload.Benchmark

// Suite identifies MLPerf, DAWNBench or DeepBench.
type Suite = workload.Suite

// Suites.
const (
	MLPerf    = workload.MLPerf
	DAWNBench = workload.DAWNBench
	DeepBench = workload.DeepBench
)

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
// analytic path or fails with a *SimFastPathError. Either path yields
// bit-identical results — the mode is a performance knob, never a
// modeling one.
type SimFastPathMode = sim.FastPathMode

// Fast-path modes for SimConfig.FastPath and SetSweepFastPath.
const (
	SimFastPathAuto  = sim.FastPathAuto
	SimFastPathOff   = sim.FastPathOff
	SimFastPathForce = sim.FastPathForce
)

// SimFastPathError reports why a Force-mode run could not take the
// analytic fast path.
type SimFastPathError = sim.FastPathError

// SimBulkObserver is the capability an observer implements to keep the
// fast path available: it accepts a whole steady-state window as one
// SimSteadySteps block instead of per-step events.
type SimBulkObserver = sim.BulkObserver

// SimSteadySteps is the analytically collapsed steady-state window a
// bulk observer receives; its Events method replays the exact event
// stream of the window in canonical step-major order.
type SimSteadySteps = sim.SteadySteps

// SetSweepFastPath pins the fast-path mode the shared sweep engine (and
// with it every experiment/table/figure helper) simulates cells with.
// Records are bit-identical across modes; the knob exists for perf
// comparisons and forcing-tests.
func SetSweepFastPath(m SimFastPathMode) { sweep.Default.SetFastPath(m) }

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

// FaultStraggler slows one lane by a constant factor.
type FaultStraggler = fault.Straggler

// FaultLink degrades one link's bandwidth, optionally flapping.
type FaultLink = fault.LinkFault

// FaultTransient injects seeded random per-stage failures with a retry
// cost.
type FaultTransient = fault.Transient

// FaultPreemption kills the node at a simulated time; recovery pays a
// restart delay plus replay back to the last checkpoint.
type FaultPreemption = fault.Preemption

// FaultCheckpoint is the periodic snapshot cost model.
type FaultCheckpoint = fault.Checkpoint

// FaultReport quantifies what a fault plan did to one run: activations,
// retries, checkpoints, preemptions and the resulting time-to-train
// surcharges.
type FaultReport = sim.FaultReport

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

// Table2 renders the benchmark inventory.
func Table2() string { return experiments.Table2() }

// Table3 renders the system inventory.
func Table3() string { return experiments.Table3() }

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

// SweepCacheStats reports a sweep engine's cache activity.
type SweepCacheStats = sweep.CacheStats

// Sweep runs the grid on the shared engine: cells fan out across the
// worker pool, in deterministic output order.
func Sweep(g SweepGrid) ([]SweepRecord, error) { return sweep.Run(g) }

// SweepSequential runs the grid one cell at a time with no caching — the
// reference path parallel execution is tested byte-identical to.
func SweepSequential(g SweepGrid) ([]SweepRecord, error) { return sweep.RunSequential(g) }

// NewSweepEngine builds an isolated engine with its own cache and worker
// bound (<= 0 means GOMAXPROCS).
func NewSweepEngine(workers int) *SweepEngine { return sweep.NewEngine(workers) }

// SetSweepWorkers bounds the shared engine's concurrency (the CLIs'
// -workers flag lands here; <= 0 restores the GOMAXPROCS default).
func SetSweepWorkers(n int) { sweep.Default.SetWorkers(n) }

// WriteSweepCSV emits sweep records as CSV with a header.
func WriteSweepCSV(w io.Writer, recs []SweepRecord) error { return sweep.WriteCSV(w, recs) }

// SweepOptions harden a grid run: per-cell timeout, bounded
// exponential-backoff retry, panic containment and graceful (partial)
// degradation.
type SweepOptions = sweep.Options

// SweepReport is a hardened run's structured outcome: completed count,
// retries used, and one typed SweepCellError per failed cell.
type SweepReport = sweep.Report

// SweepCellError is one failed cell: which cell, how it failed (error,
// panic, timeout, canceled) and after how many attempts.
type SweepCellError = sweep.CellError

// SweepWithOptions runs the grid on the shared engine with the hardened
// execution path; ctx cancels the run cooperatively.
func SweepWithOptions(ctx context.Context, g SweepGrid, opts SweepOptions) ([]SweepRecord, *SweepReport, error) {
	return sweep.Default.RunWithOptions(ctx, g, opts)
}

// ---- Persistent sweep cache ----

// SweepStore is the pluggable persistent tier behind a sweep engine's
// in-memory memo cache: consulted on a memory miss, written through
// after every successful simulation.
type SweepStore = sweep.Store

// SweepTierStats counts one cache tier's traffic (hits, misses,
// evictions).
type SweepTierStats = sweep.TierStats

// SweepKeySchema is the cell-key content-address schema version: the
// namespace persistent cache entries and the front tier's routing are
// keyed under. Changing key normalization or encoding bumps it.
const SweepKeySchema = sweep.KeySchema

// SweepCellDigest returns the cell's canonical content address: the
// SHA-256 of its normalized key under SweepKeySchema. Spelling variants
// of one cell share a digest; distinct configurations never do.
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

// TelemetrySpan is one recorded span of the run → experiment → sweep
// cell / cluster job hierarchy.
type TelemetrySpan = telemetry.Span

// TelemetryMetric is one exported instrument value from a registry
// snapshot.
type TelemetryMetric = telemetry.MetricValue

// RunManifest is the reproducibility record of one CLI run: tool,
// version, configuration, seeds, fault-plan hash, cache statistics,
// metrics snapshot and wall-clock provenance. Manifests from equal
// seeds are identical modulo the volatile wall-clock fields.
type RunManifest = telemetry.Manifest

// NewTelemetry returns an enabled registry on a monotonic wall clock.
func NewTelemetry() *Telemetry { return telemetry.New() }

// NewTelemetryWithClock returns a registry on an injected clock — a
// simulated or tick clock makes span replay fully deterministic.
func NewTelemetryWithClock(clock func() float64) *Telemetry { return telemetry.NewWithClock(clock) }

// WithTelemetry adapts a registry into a SimObserver that publishes
// per-stage event counts and duration histograms for any simulated run
// (pass it to SimulateObserved or SimulateWithFaults). A nil registry
// yields a no-op observer.
func WithTelemetry(reg *Telemetry) SimObserver { return sim.NewTelemetryObserver(reg) }

// SetSweepTelemetry attaches a registry to the shared sweep engine:
// cell latency histograms, cache hit/miss counters, retry/timeout/
// panic counters, worker-pool occupancy gauges and per-cell spans.
// Pass nil to detach.
func SetSweepTelemetry(reg *Telemetry) { sweep.Default.SetTelemetry(reg) }

// NewRunManifest starts a manifest for the named tool.
func NewRunManifest(tool string) *RunManifest { return telemetry.NewManifest(tool) }

// ParseRunManifest decodes and schema-validates a manifest produced by
// any of the CLIs' -manifest flags.
func ParseRunManifest(data []byte) (*RunManifest, error) { return telemetry.ParseManifest(data) }

// WriteTelemetryPrometheus exports every instrument of the registry in
// the Prometheus text exposition format.
func WriteTelemetryPrometheus(w io.Writer, reg *Telemetry) error { return reg.WritePrometheus(w) }

// HashFaultPlan returns the SHA-256 hex digest of a fault plan's
// canonical JSON — the provenance field run manifests carry ("" for a
// nil or empty plan).
func HashFaultPlan(plan *FaultPlan) (string, error) {
	canon, err := plan.Canon()
	if err != nil {
		return "", err
	}
	return telemetry.HashPlan(canon), nil
}

// ---- Roofline ----

// Roofline is a bandwidth/compute envelope model.
type Roofline = roofline.Model

// V100Roofline returns the empirical V100 roofline of Figure 2.
func V100Roofline() *Roofline {
	g := hw.TeslaV100SXM2
	return roofline.ForGPU(&g)
}

// MeasureHostRoofline micro-benchmarks the current machine (a real GEMM
// and a real streaming triad) and returns its empirical roofline.
func MeasureHostRoofline() *Roofline { return roofline.MeasureHost() }

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

// ---- Online cluster scheduling (the Figure 4 study made multi-tenant) ----

// ClusterMachine is one fleet member: a named hw-catalog system with its
// schedulable GPU count.
type ClusterMachine = cluster.Machine

// ClusterJob is one moldable job of an arrival trace.
type ClusterJob = cluster.Job

// ClusterPolicy decides placements, widths and preemptions at every
// scheduling point (fifo, srtf, lpt-backfill, moldable, or your own).
type ClusterPolicy = cluster.Policy

// ClusterConfig is one online scheduling run: fleet, trace, policy, and
// the fault plan that prices preemptions.
type ClusterConfig = cluster.Config

// ClusterResult is a completed online run: per-job outcomes, executed
// segments, summary metrics and the full decision event stream.
type ClusterResult = cluster.Result

// ClusterMetrics summarizes one policy's run (makespan, mean/p95 JCT,
// GPU utilization, preemption charges).
type ClusterMetrics = cluster.Metrics

// ClusterFleet builds machines from hw catalog names; duplicates make a
// multi-machine fleet ("dss8440,dss8440").
func ClusterFleet(systems ...string) ([]ClusterMachine, error) { return cluster.Fleet(systems...) }

// ClusterTrace draws a deterministic synthetic arrival trace of n MLPerf
// jobs with exponential interarrival gaps and mixed GPU demands.
func ClusterTrace(seed int64, n int, meanGapSec float64) []ClusterJob {
	return cluster.SyntheticTrace(seed, n, meanGapSec)
}

// ClusterPolicies returns the built-in policy set in comparison order.
func ClusterPolicies() []ClusterPolicy { return cluster.Policies() }

// ClusterPolicyByName resolves "fifo", "srtf", "lpt", "moldable".
func ClusterPolicyByName(name string) (ClusterPolicy, error) { return cluster.PolicyByName(name) }

// RunCluster executes one online scheduling run; the result validates
// and exports to a Chrome trace via its Timeline.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) { return cluster.Run(cfg) }

// PolicyRow is one scheduling policy's line in the comparison table.
type PolicyRow = experiments.PolicyRow

// PolicyComparison runs every built-in policy over one synthetic trace
// on a DSS 8440 and tabulates makespan, mean/p95 JCT, utilization and
// preemption cost per policy.
func PolicyComparison(seed int64, n int) ([]PolicyRow, error) {
	return experiments.PolicyComparison(seed, n)
}

// RenderPolicyComparison renders the comparison table as text.
func RenderPolicyComparison(rows []PolicyRow) string {
	return experiments.RenderPolicyComparison(rows)
}

// ---- Real training (time-to-quality for real) ----

// NCFConfig configures the runnable NCF recommender.
type NCFConfig = train.Config

// NCFModel is the runnable NeuMF recommender.
type NCFModel = train.NCF

// NCFRunResult reports a real training run.
type NCFRunResult = train.RunResult

// Rating is one implicit-feedback interaction.
type Rating = dataset.Rating

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
