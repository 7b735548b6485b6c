package experiments

import (
	"strings"
	"testing"
)

// TestPolicyComparisonDefaults pins the headline property of the online
// study at the default trace: the informed policies (SRTF and
// LPT-with-backfill) beat strict FIFO on mean job completion time.
// Every run inside PolicyComparisonWith is already Validate-checked.
func TestPolicyComparisonDefaults(t *testing.T) {
	rows, err := PolicyComparisonWith(PolicySweepConfig{Seed: 1, Jobs: 12})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PolicyRow{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	for _, want := range []string{"fifo", "srtf", "lpt-backfill", "moldable"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("missing policy %s in %v", want, rows)
		}
	}
	fifo := byName["fifo"]
	if got := byName["srtf"]; got.MeanJCTH >= fifo.MeanJCTH {
		t.Errorf("srtf mean JCT %.2fh does not beat fifo %.2fh", got.MeanJCTH, fifo.MeanJCTH)
	}
	if got := byName["lpt-backfill"]; got.MeanJCTH >= fifo.MeanJCTH {
		t.Errorf("lpt-backfill mean JCT %.2fh does not beat fifo %.2fh", got.MeanJCTH, fifo.MeanJCTH)
	}
	for _, r := range rows {
		if r.MakespanH <= 0 || r.MeanJCTH <= 0 || r.P95JCTH < r.MeanJCTH {
			t.Errorf("implausible row %+v", r)
		}
		if r.GPUUtilPct <= 0 || r.GPUUtilPct > 100 {
			t.Errorf("utilization out of range: %+v", r)
		}
	}
}

// TestRenderPolicyComparison checks the table layout the CLI prints.
func TestRenderPolicyComparison(t *testing.T) {
	rows, err := PolicyComparisonWith(PolicySweepConfig{Seed: 1, Jobs: 6})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderPolicyComparison(rows)
	for _, col := range []string{"policy", "makespan_h", "mean_jct_h", "p95_jct_h", "gpu_pct", "preempts"} {
		if !strings.Contains(out, col) {
			t.Errorf("table missing column %s:\n%s", col, out)
		}
	}
	if lines := strings.Count(strings.TrimSpace(out), "\n"); lines != len(rows) {
		t.Errorf("table has %d data lines, want %d", lines, len(rows))
	}
}
