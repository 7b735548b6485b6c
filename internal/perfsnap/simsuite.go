package perfsnap

import (
	"os"
	"testing"

	"mlperf/internal/hw"
	"mlperf/internal/sim"
	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
	"mlperf/internal/workload"
)

// SimSuite is the snapshot suite name for the simulation benchmarks, and
// SimSnapshotFile the committed file that tracks them.
const (
	SimSuite        = "sim"
	SimSnapshotFile = "BENCH_sim.json"
)

// SpeedupKey is the derived ratio the fast path is gated on: step-by-step
// ns/op over analytic ns/op for the 1000-step sweep cell.
const SpeedupKey = "steady_speedup_x"

// simSteps is the window the headline entries collapse; it matches the
// paper-scale runs the sweep engine issues.
const simSteps = 1000

// SimSpecs returns the simulation benchmark suite. The per-cell pairs
// measure the same configuration under both execution strategies:
//
//	sim_cell_fast_1000 / sim_cell_step_1000  - the sweep-cell shape
//	  (NoTimeline, the configuration every grid cell runs)
//	sim_full_fast_1000 / sim_full_step_1000  - timeline materialized
//	sim_fixed_overhead                       - Steps=1 forced collapse;
//	  the floor a run pays before any step is saved
//
// The whole-grid entries measure the Table IV sweep end to end through
// the engine's cache tiers, on one worker for deterministic allocation
// counts:
//
//	grid_table4_cold        - fresh engine per iteration: every cell
//	  simulates
//	grid_table4_memwarm     - one warmed engine: every cell hits the
//	  memory tier
//	grid_table4_memwarm_tel - the same with a telemetry registry
//	  attached, as every daemon runs: what counting each cell costs
//	grid_table4_diskwarm    - fresh engine + fresh store handle over a
//	  filled cache directory per iteration: every cell replays from disk
//	  (the cross-process -cache-dir story)
//
// Each spec builds its System once and reuses it across iterations, so
// topology caches warm exactly as they do across a long-lived run; the
// cost under measurement is the simulation itself.
func SimSpecs() ([]Spec, error) {
	bench, err := workload.ByName("res50_tf")
	if err != nil {
		return nil, err
	}
	job := bench.Job

	mk := func(steps int, mode sim.FastPathMode, noTimeline bool) func(*testing.B) {
		return func(b *testing.B) {
			cfg := sim.Config{
				System:     hw.DSS8440(),
				GPUCount:   8,
				Job:        job,
				Steps:      steps,
				FastPath:   mode,
				NoTimeline: noTimeline,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(steps), "ns_per_step")
		}
	}

	return []Spec{
		{Name: "sim_cell_fast_1000", Bench: mk(simSteps, sim.FastPathForce, true)},
		{Name: "sim_cell_step_1000", Bench: mk(simSteps, sim.FastPathOff, true)},
		{Name: "sim_full_fast_1000", Bench: mk(simSteps, sim.FastPathForce, false)},
		{Name: "sim_full_step_1000", Bench: mk(simSteps, sim.FastPathOff, false)},
		{Name: "sim_fixed_overhead", Bench: mk(1, sim.FastPathForce, true)},
		{Name: "grid_table4_cold", Bench: gridCold},
		{Name: "grid_table4_memwarm", Bench: func(b *testing.B) { gridMemWarm(b, nil) }},
		{Name: "grid_table4_memwarm_tel", Bench: func(b *testing.B) { gridMemWarm(b, telemetry.New()) }},
		{Name: "grid_table4_diskwarm", Bench: gridDiskWarm},
	}, nil
}

// gridTable4 is the paper's Table IV sweep space: the six MLPerf GPU
// benchmarks scaling 1-8 GPUs on the DSS 8440.
func gridTable4() sweep.Grid {
	return sweep.Grid{
		Benchmarks: []string{"res50_tf", "res50_mx", "ssd_py", "mrcnn_py", "xfmr_py", "ncf_py"},
		Systems:    []string{"dss8440"},
		GPUCounts:  []int{1, 2, 4, 8},
	}
}

// gridCold measures the full Table IV grid with nothing cached: a fresh
// single-worker engine per iteration, so every cell simulates.
func gridCold(b *testing.B) {
	g := gridTable4()
	if _, err := sweep.NewEngine(1).Run(g); err != nil { // warm shared resolvers
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.NewEngine(1).Run(g); err != nil {
			b.Fatal(err)
		}
	}
}

// gridMemWarm measures the grid replayed from the in-memory memo tier
// by an engine that publishes into reg (nil = telemetry off).
func gridMemWarm(b *testing.B, reg *telemetry.Registry) {
	g := gridTable4()
	e := sweep.NewEngine(1)
	e.SetTelemetry(reg)
	if _, err := e.Run(g); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(g); err != nil {
			b.Fatal(err)
		}
	}
}

// gridDiskWarm measures the grid replayed from a warm persistent store
// by a fresh engine and a fresh store handle each iteration — the
// second-process -cache-dir scenario. Any simulation fails the
// benchmark: the measurement is only meaningful if every cell came off
// disk.
func gridDiskWarm(b *testing.B) {
	g := gridTable4()
	dir, err := os.MkdirTemp("", "perfsnap-cache-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fill, err := sweep.OpenDiskStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	seed := sweep.NewEngine(1)
	seed.SetStore(fill)
	if _, err := seed.Run(g); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := sweep.OpenDiskStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		e := sweep.NewEngine(1)
		e.SetStore(ds)
		if _, err := e.Run(g); err != nil {
			b.Fatal(err)
		}
		if st := e.Stats(); st.Simulations != 0 {
			b.Fatalf("disk-warm iteration simulated %d cells", st.Simulations)
		}
	}
}

// CollectSim measures the simulation suite and derives the
// machine-independent speedup ratios.
func CollectSim() (*Snapshot, error) {
	specs, err := SimSpecs()
	if err != nil {
		return nil, err
	}
	snap := Collect(SimSuite, specs)
	snap.Derived = map[string]float64{}
	ratio := func(num, den string) (float64, bool) {
		n, d := snap.Entry(num), snap.Entry(den)
		if n == nil || d == nil || d.NsPerOp <= 0 {
			return 0, false
		}
		return n.NsPerOp / d.NsPerOp, true
	}
	if r, ok := ratio("sim_cell_step_1000", "sim_cell_fast_1000"); ok {
		snap.Derived[SpeedupKey] = r
	}
	if r, ok := ratio("sim_full_step_1000", "sim_full_fast_1000"); ok {
		snap.Derived["timeline_speedup_x"] = r
	}
	if r, ok := ratio("grid_table4_cold", "grid_table4_memwarm"); ok {
		snap.Derived["grid_mem_replay_x"] = r
	}
	if r, ok := ratio("grid_table4_cold", "grid_table4_diskwarm"); ok {
		snap.Derived["grid_disk_replay_x"] = r
	}
	return snap, nil
}
