package sweep

import (
	"testing"

	"mlperf/internal/fault"
)

// goldenPlanJSON is a representative fault plan for the digest golden
// set (loose JSON; the key embeds its canonical form).
const goldenPlanJSON = `{"Seed":7,"Stragglers":[{"Lane":"compute","Factor":1.5,"FromStep":10,"ToStep":20}]}`

// TestDigestGolden pins the canonical content address of a
// representative sample of cells — clean, reference-implementation,
// explicit-precision, batch-override and faulted — under KeySchema 1.
//
// If this test fails you have changed the key normalization, the wire
// encoding, or something they depend on (canonical benchmark/system
// names, the fault plan's canonical JSON). That silently cold-starts
// every persistent cache in the fleet and reroutes every cell the
// front tier places. Either revert the change, or accept the cold start
// EXPLICITLY by bumping KeySchema and re-pinning these digests.
func TestDigestGolden(t *testing.T) {
	plan, err := fault.Parse(goldenPlanJSON)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := plan.Canon()
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		name string
		key  CellKey
		want string
	}{
		{"clean", CellKey{Benchmark: "res50_tf", System: "dss8440", GPUs: 4},
			"54799cce23d2d178ec078c4767d288229360ca1dfbe1fdbdbde9f8789d0dc07a"},
		{"ref", CellKey{Benchmark: "res50_tf", Ref: true, System: "p100", GPUs: 1},
			"5e87ce9b67b460724d90cd9673e848551836098d032eb0ff1c7890573344836a"},
		{"explicit fp32", CellKey{Benchmark: "ncf_py", System: "c4140k", GPUs: 2, Precision: "fp32"},
			"30bd8155928c1aecd543e7609dea80fa500b9bd8e6d274dd032a18900c75c5a4"},
		{"batch override", CellKey{Benchmark: "xfmr_py", System: "t640", GPUs: 2, Batch: 32},
			"a058fbe42ffbd92f20369e01f9adbb20ecf4ebb669017f7667e91f9eb81c3767"},
		{"faulted", CellKey{Benchmark: "gnmt_py", System: "dss8440", GPUs: 8, Faults: canon},
			"234f2cb9650b34d746fd6dd881c1c98f033d3015cac55a718f26be10e59b65e9"},
		{"explicit mixed", CellKey{Benchmark: "dawn_res18_py", System: "r940xa", GPUs: 1, Precision: "mixed"},
			"1b023c6f590187af4a68ca3abfd881c18fda848dbd8c02173294ffe42fcfd404"},
	}
	for _, g := range golden {
		got, err := g.key.Digest()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got != g.want {
			t.Errorf("%s: digest %s, want %s — key normalization or encoding changed; see test comment", g.name, got, g.want)
		}
	}
	if KeySchema != 1 {
		t.Errorf("KeySchema = %d but the golden digests above encode schema 1: re-pin them", KeySchema)
	}
}

// TestDigestNormalization proves spelling variants of one cell share a
// digest while distinct configurations never do.
func TestDigestNormalization(t *testing.T) {
	a, err := CellKey{Benchmark: "res50_tf", System: "dss8440", GPUs: 4}.Digest()
	if err != nil {
		t.Fatal(err)
	}
	// Canonical abbreviation, alias-cased system, explicit calibrated
	// precision: same cell, same address.
	b, err := CellKey{Benchmark: "MLPf_Res50_TF", System: "DSS 8440", GPUs: 4, Precision: "mixed"}.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("spelling variants address different content: %s vs %s", a, b)
	}
	seen := map[string]CellKey{a: {Benchmark: "res50_tf", System: "dss8440", GPUs: 4}}
	distinct := []CellKey{
		{Benchmark: "res50_tf", System: "dss8440", GPUs: 8},
		{Benchmark: "res50_tf", System: "dss8440", GPUs: 4, Batch: 32},
		{Benchmark: "res50_tf", System: "dss8440", GPUs: 4, Precision: "fp32"},
		{Benchmark: "res50_tf", Ref: true, System: "dss8440", GPUs: 4},
		{Benchmark: "res50_mx", System: "dss8440", GPUs: 4},
		{Benchmark: "res50_tf", System: "c4140k", GPUs: 4},
	}
	for _, k := range distinct {
		d, err := k.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[d]; dup {
			t.Errorf("distinct cells %+v and %+v share digest %s", prev, k, d)
		}
		seen[d] = k
	}
	if _, err := (CellKey{Benchmark: "nope", System: "dss8440", GPUs: 1}).Digest(); err == nil {
		t.Error("digest of an invalid key succeeded")
	}
}
