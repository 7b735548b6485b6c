package experiments

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"mlperf/internal/sweep"
)

// update re-blesses the golden snapshots:
//
//	go test ./internal/experiments/ -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden snapshots")

// goldenCases maps each snapshot to the export that regenerates it. The
// snapshots pin the paper numbers: any modeling or engine change that
// moves Table IV, Table V or Figure 5 must re-bless them explicitly.
func goldenCases() map[string]func(io.Writer) error {
	return map[string]func(io.Writer) error{
		"table4_scaling.csv": func(w io.Writer) error {
			rows, err := Table4()
			if err != nil {
				return err
			}
			return WriteTable4CSV(w, rows)
		},
		"table5_usage.csv": func(w io.Writer) error {
			rows, err := Table5()
			if err != nil {
				return err
			}
			return WriteTable5CSV(w, rows)
		},
		"fig5_topology.csv": func(w io.Writer) error {
			rows, err := Fig5()
			if err != nil {
				return err
			}
			return WriteFig5CSV(w, rows)
		},
	}
}

func TestGolden(t *testing.T) {
	for name, gen := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := gen(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", name)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to bless)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s drifted from golden snapshot: paper numbers changed.\n"+
					"If intentional, re-bless with: go test ./internal/experiments/ -run TestGolden -update\n%s",
					name, diffLines(want, buf.Bytes()))
			}
		})
	}
}

// diffLines reports the first few differing lines, enough to see what
// moved without dumping both files.
func diffLines(want, got []byte) string {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	var out bytes.Buffer
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if !bytes.Equal(wl, gl) {
			fmt.Fprintf(&out, "line %d:\n  golden: %s\n  got:    %s\n", i+1, wl, gl)
			if shown++; shown >= 5 {
				fmt.Fprintf(&out, "  ... (further differences omitted)\n")
				break
			}
		}
	}
	return out.String()
}

// TestCacheDedupAcrossExperiments pins the exact sharing structure the
// memo cache exploits: Table V and Figure 5 share the C4140 (K) 4-GPU
// column, Table IV and Figure 4 share the DSS 8440 ladder, and a repeated
// experiment costs zero simulations. The hit/miss deltas are computed
// against the engine's counters stage by stage.
func TestCacheDedupAcrossExperiments(t *testing.T) {
	sweep.Default.ResetCache()
	defer sweep.Default.ResetCache()

	assertStats := func(stage string, wantMisses, wantHits int64) {
		t.Helper()
		st := sweep.Default.Stats()
		if st.Misses != wantMisses || st.Hits != wantHits {
			t.Fatalf("after %s: %d misses / %d hits, want %d / %d",
				stage, st.Misses, st.Hits, wantMisses, wantHits)
		}
	}

	// Table V: 7 MLPerf benchmarks and Deep_Red at 1/2/4 GPUs plus 5
	// single-GPU runs on the C4140 (K) — 29 distinct cells, all cold.
	if _, err := Table5(); err != nil {
		t.Fatal(err)
	}
	assertStats("Table5", 29, 0)

	// Figure 5: 7 benchmarks x 5 systems at 4 GPUs. The C4140 (K) column
	// was just simulated by Table V.
	if _, err := Fig5(); err != nil {
		t.Fatal(err)
	}
	assertStats("Fig5", 29+28, 7)

	// Table IV: 6 benchmarks x (P100 reference + DSS 8440 at 1/2/4/8) —
	// all new systems, all cold.
	if _, err := Table4(); err != nil {
		t.Fatal(err)
	}
	assertStats("Table4", 29+28+30, 7)

	// Figure 4 at 8 GPUs: 7 benchmarks x 4 widths on the DSS 8440. Only
	// GNMT's 4 widths are new; Table IV covered the other 24.
	if _, err := Fig4(8); err != nil {
		t.Fatal(err)
	}
	assertStats("Fig4", 29+28+30+4, 7+24)

	// Replaying Table V costs zero simulations.
	first, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	assertStats("Table5 replay", 91, 60)

	// And the replay is record-for-record what a cold engine computes.
	fresh := sweep.NewEngine(1)
	var keys []sweep.CellKey
	for _, r := range first {
		keys = append(keys, sweep.CellKey{Benchmark: r.Bench, System: "C4140 (K)", GPUs: r.GPUs})
	}
	recs, _, err := fresh.RunCellsWithOptions(context.Background(), keys, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if r.CPUPct != first[i].CPUPct || r.GPUPct != first[i].GPUPct ||
			r.HBMMB != first[i].HBMMB || r.TimeToTrainMin <= 0 {
			t.Fatalf("row %d: cached %+v != fresh %+v", i, first[i], r)
		}
	}
}
