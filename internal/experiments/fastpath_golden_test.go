package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mlperf/internal/sim"
	"mlperf/internal/sweep"
)

// forcedStore answers every cell lookup by simulating the cell with the
// analytic fast path forced, so an engine over it simulates nothing
// itself. A cell that cannot take the fast path is recorded and left to
// the engine.
type forcedStore struct {
	mu      sync.Mutex
	cells   int
	refused []error
}

func (s *forcedStore) Get(k sweep.CellKey) (sweep.Record, bool, error) {
	rec, err := sweep.RunCell(k, sim.FastPathForce)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cells++
	if err != nil {
		s.refused = append(s.refused, err)
		return sweep.Record{}, false, nil
	}
	return rec, true, nil
}

func (s *forcedStore) Put(sweep.CellKey, sweep.Record) error { return nil }
func (s *forcedStore) Stats() sweep.TierStats                { return sweep.TierStats{} }

// TestGoldenFastPathForced re-runs the full golden suite on a fresh
// engine whose every cell is computed with the analytic fast path
// force-enabled: every cell must collapse (Force errors otherwise) and
// every CSV must match the committed snapshot byte for byte. Combined
// with TestGolden — whose cells may take either path — this pins the
// paper numbers to both execution strategies.
func TestGoldenFastPathForced(t *testing.T) {
	old := sweep.Default
	forced := sweep.NewEngine(0)
	store := &forcedStore{}
	forced.SetStore(store)
	sweep.Default = forced
	defer func() { sweep.Default = old }()

	for name, gen := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := gen(&buf); err != nil {
				t.Fatalf("forced fast path: %v", err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s under forced fast path drifted from golden snapshot:\n%s",
					name, diffLines(want, buf.Bytes()))
			}
		})
	}
	if store.cells == 0 || len(store.refused) > 0 {
		t.Errorf("%d cells forced, %d refused the fast path: %v", store.cells, len(store.refused), store.refused)
	}
}
