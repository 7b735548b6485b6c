package perfsnap

import (
	"path/filepath"
	"strings"
	"testing"
)

// fakeSpecs are cheap deterministic benchmarks: one no-op and one that
// allocates a fixed amount per op.
func fakeSpecs() []Spec {
	sink := make([]byte, 0)
	return []Spec{
		{Name: "alloc", Bench: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = make([]byte, 1024)
			}
			_ = sink
			b.ReportMetric(42, "custom")
		}},
		{Name: "noop", Bench: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
			}
		}},
	}
}

func TestCollect(t *testing.T) {
	snap := Collect("fake", fakeSpecs())
	if snap.Schema != Schema || snap.Suite != "fake" {
		t.Fatalf("snapshot header = %d/%q", snap.Schema, snap.Suite)
	}
	if len(snap.Entries) != 2 || snap.Entries[0].Name != "alloc" || snap.Entries[1].Name != "noop" {
		t.Fatalf("entries not collected sorted by name: %+v", snap.Entries)
	}
	a := snap.Entry("alloc")
	if a.AllocsPerOp != 1 || a.BytesPerOp < 1024 {
		t.Fatalf("alloc entry %d allocs / %d bytes per op, want 1 / >=1024", a.AllocsPerOp, a.BytesPerOp)
	}
	if a.Extra["custom"] != 42 {
		t.Fatalf("custom metric %v, want 42", a.Extra["custom"])
	}
	if a.NsPerOp <= 0 || a.Iters <= 0 {
		t.Fatalf("implausible measurement: %+v", a)
	}
	if snap.Entry("missing") != nil {
		t.Fatal("Entry returned a ghost")
	}
	if snap.Machine.GOOS == "" || snap.Machine.CPUs <= 0 {
		t.Fatalf("machine identity incomplete: %+v", snap.Machine)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := &Snapshot{
		Schema:  Schema,
		Suite:   "rt",
		Machine: CurrentMachine(),
		Entries: []Entry{{Name: "x", Iters: 10, NsPerOp: 1.5, AllocsPerOp: 2, BytesPerOp: 3,
			Extra: map[string]float64{"m": 4}}},
		Derived: map[string]float64{SpeedupKey: 12.5},
	}
	path := filepath.Join(t.TempDir(), "BENCH_rt.json")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := snap.Marshal()
	b2, _ := got.Marshal()
	if string(b1) != string(b2) {
		t.Fatalf("round trip drifted:\n%s\nvs\n%s", b1, b2)
	}
	if !strings.HasSuffix(string(b1), "\n") {
		t.Fatal("Marshal should end with a newline for clean diffs")
	}

	bad := *snap
	bad.Schema = Schema + 1
	if err := bad.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("ReadFile accepted an unknown schema version")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("ReadFile on a missing path should fail")
	}
}

// compareBase builds an old/new snapshot pair on the same CPU model.
func compareBase() (*Snapshot, *Snapshot) {
	m := Machine{GOOS: "linux", GOARCH: "amd64", CPUs: 8, CPU: "TestCPU v1"}
	old := &Snapshot{Schema: Schema, Suite: "s", Machine: m, Entries: []Entry{
		{Name: "a", NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 1000},
	}}
	new := &Snapshot{Schema: Schema, Suite: "s", Machine: m, Entries: []Entry{
		{Name: "a", NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 1000},
	}, Derived: map[string]float64{SpeedupKey: 16}}
	return old, new
}

func TestCompareClean(t *testing.T) {
	old, new := compareBase()
	opts := Options{TimeTol: 0.35, AllocTol: 0.10, MinDerived: map[string]float64{SpeedupKey: 10}}
	if regs := Compare(old, new, opts); len(regs) != 0 {
		t.Fatalf("clean comparison reported regressions: %v", regs)
	}
}

func TestCompareTimeGatedOnCPU(t *testing.T) {
	opts := Options{TimeTol: 0.35}

	old, new := compareBase()
	new.Entries[0].NsPerOp = 200 // +100%, past the 35% tolerance
	regs := Compare(old, new, opts)
	if len(regs) != 1 || regs[0].Metric != "ns_per_op" || regs[0].Entry != "a" {
		t.Fatalf("same-CPU time regression not caught: %v", regs)
	}
	if s := regs[0].String(); !strings.Contains(s, "ns_per_op") {
		t.Fatalf("regression string %q", s)
	}

	// Different CPU model: the same time growth must be ignored.
	new.Machine.CPU = "TestCPU v2"
	if regs := Compare(old, new, opts); len(regs) != 0 {
		t.Fatalf("cross-machine time comparison should be skipped: %v", regs)
	}

	// Unknown CPU on both sides also disables time comparison.
	old.Machine.CPU, new.Machine.CPU = "", ""
	if regs := Compare(old, new, opts); len(regs) != 0 {
		t.Fatalf("empty CPU model should disable time comparison: %v", regs)
	}
}

func TestCompareAllocsAlwaysGate(t *testing.T) {
	old, new := compareBase()
	new.Machine.CPU = "TestCPU v2" // different machine: allocs still gate
	new.Entries[0].AllocsPerOp = 12
	new.Entries[0].BytesPerOp = 1200
	regs := Compare(old, new, Options{AllocTol: 0.10})
	if len(regs) != 2 {
		t.Fatalf("alloc regressions across machines: %v", regs)
	}
	if regs[0].Metric != "allocs_per_op" || regs[1].Metric != "bytes_per_op" {
		t.Fatalf("unexpected metrics: %v", regs)
	}

	// Within tolerance passes.
	new.Entries[0].AllocsPerOp = 11
	new.Entries[0].BytesPerOp = 1100
	if regs := Compare(old, new, Options{AllocTol: 0.10}); len(regs) != 0 {
		t.Fatalf("within-tolerance growth flagged: %v", regs)
	}
}

func TestCompareMissingEntry(t *testing.T) {
	old, new := compareBase()
	new.Entries = nil
	regs := Compare(old, new, Options{})
	if len(regs) != 1 || regs[0].Metric != "missing" || regs[0].Entry != "a" {
		t.Fatalf("vanished entry not reported: %v", regs)
	}
}

func TestCompareDerivedFloor(t *testing.T) {
	old, new := compareBase()
	opts := Options{MinDerived: map[string]float64{SpeedupKey: 10}}
	if regs := Compare(old, new, opts); len(regs) != 0 {
		t.Fatalf("floor met but flagged: %v", regs)
	}

	new.Derived[SpeedupKey] = 7.5
	regs := Compare(old, new, opts)
	if len(regs) != 1 || regs[0].Metric != "derived:"+SpeedupKey {
		t.Fatalf("below-floor derived not reported: %v", regs)
	}
	if s := regs[0].String(); !strings.Contains(s, "below floor") {
		t.Fatalf("regression string %q", s)
	}

	delete(new.Derived, SpeedupKey)
	if regs := Compare(old, new, opts); len(regs) != 1 {
		t.Fatalf("missing derived key should fail the gate: %v", regs)
	}
}

// The sim suite itself must assemble: specs resolve their workload and
// the configuration at least survives a single collapsed step. Running
// the full 1000-step measurement is the CLI's job, not the test's.
func TestSimSpecsBuild(t *testing.T) {
	specs, err := SimSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 9 {
		t.Fatalf("%d specs, want 9", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		names[s.Name] = true
		if s.Bench == nil {
			t.Fatalf("%s has no bench func", s.Name)
		}
	}
	for _, want := range []string{"sim_cell_fast_1000", "sim_cell_step_1000",
		"sim_full_fast_1000", "sim_full_step_1000", "sim_fixed_overhead",
		"grid_table4_cold", "grid_table4_memwarm", "grid_table4_memwarm_tel", "grid_table4_diskwarm"} {
		if !names[want] {
			t.Fatalf("suite missing %s", want)
		}
	}
}
