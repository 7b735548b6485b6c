package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"mlperf/internal/telemetry"
)

// sweepOK runs mlperf-sweep and requires exit status 0.
func sweepOK(t *testing.T, args ...string) {
	t.Helper()
	if got := runSweep(t, args...); got.status != 0 {
		t.Fatalf("mlperf-sweep %q: status %d, stderr %q", args, got.status, got.stderr)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func readManifest(t *testing.T, path string) *telemetry.Manifest {
	t.Helper()
	m, err := telemetry.ParseManifest(readFile(t, path))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return m
}

// sameBytes requires the files at paths to be byte-identical to the first.
func sameBytes(t *testing.T, paths ...string) {
	t.Helper()
	first := readFile(t, paths[0])
	for _, p := range paths[1:] {
		if !bytes.Equal(readFile(t, p), first) {
			t.Errorf("%s differs from %s", filepath.Base(p), filepath.Base(paths[0]))
		}
	}
}

// TestCacheRoundtrip is the persistence contract: a second run over the
// same grid in a fresh process with a warm -cache-dir replays entirely
// from disk, with zero simulations and every cell a disk hit, and
// writes CSV byte-identical to the cold run, the sequential reference
// and the hardened (-partial) path. Each manifest's disk cache fields
// equal its own sweep_disk_cache_total samples.
func TestCacheRoundtrip(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	grid := []string{"-bench", "res50_tf,ncf_py,xfmr_py", "-gpus", "1,2,4"}
	run := func(args ...string) { sweepOK(t, append(append([]string{}, grid...), args...)...) }
	run("-cache-dir", at("cells"), "-manifest", at("cold.json"), "-out", at("cold.csv"))
	run("-cache-dir", at("cells"), "-manifest", at("warm.json"), "-out", at("warm.csv"))
	run("-seq", "-out", at("seq.csv"))
	run("-partial", "-out", at("hardened.csv"))
	sameBytes(t, at("cold.csv"), at("warm.csv"), at("seq.csv"), at("hardened.csv"))

	const cells = 9
	cold, warm := readManifest(t, at("cold.json")), readManifest(t, at("warm.json"))
	if cold.Cells != cells || cold.Simulations != cells || cold.DiskCacheMisses != cells {
		t.Errorf("cold run: %d cells, %d simulations, %d disk misses; want %d of each",
			cold.Cells, cold.Simulations, cold.DiskCacheMisses, cells)
	}
	if warm.Cells != cells || warm.Simulations != 0 || warm.DiskCacheHits != cells {
		t.Errorf("warm run: %d cells, %d simulations, %d disk hits; want %d, 0, %d",
			warm.Cells, warm.Simulations, warm.DiskCacheHits, cells, cells)
	}
	if cold.CacheSchema == 0 || warm.CacheSchema != cold.CacheSchema {
		t.Errorf("cache schema cold %d, warm %d; want equal and set", cold.CacheSchema, warm.CacheSchema)
	}
	// The engine counts each disk lookup once, and the registry reads
	// that count: both fields equal their one sample, present even at 0.
	for _, m := range []*telemetry.Manifest{cold, warm} {
		for _, c := range []struct {
			label string
			field int64
		}{{`{result="hit"}`, m.DiskCacheHits}, {`{result="miss"}`, m.DiskCacheMisses}} {
			var samples []float64
			for _, v := range m.Metrics {
				if v.Name == "sweep_disk_cache_total" && v.Labels == c.label {
					samples = append(samples, v.Value)
				}
			}
			if len(samples) != 1 || int64(samples[0]) != c.field {
				t.Errorf("manifest field for %s is %d, its sweep_disk_cache_total%s samples %v",
					c.label, c.field, c.label, samples)
			}
		}
	}
}

// TestCacheCorruption is the robustness contract: a truncated store
// entry is a graceful miss, never an error or a wrong hit. The cell is
// simulated again (identical CSV) and the damaged entry lands in
// quarantine/ as evidence.
func TestCacheCorruption(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	grid := []string{"-bench", "res50_tf", "-gpus", "1,2", "-cache-dir", at("cells")}
	sweepOK(t, append(grid, "-out", at("before.csv"))...)

	var entries []string
	if err := filepath.WalkDir(at("cells"), func(path string, e os.DirEntry, err error) error {
		if err == nil && !e.IsDir() && filepath.Base(filepath.Dir(path)) != "quarantine" {
			entries = append(entries, path)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("the first run stored no entry")
	}
	sort.Strings(entries)
	if err := os.Truncate(entries[0], 16); err != nil {
		t.Fatal(err)
	}

	sweepOK(t, append(grid, "-manifest", at("after.json"), "-out", at("after.csv"))...)
	sameBytes(t, at("before.csv"), at("after.csv"))
	if q, err := os.ReadDir(at("cells/quarantine")); err != nil || len(q) == 0 {
		t.Errorf("quarantine holds %d entries (%v); want the truncated one", len(q), err)
	}
	m := readManifest(t, at("after.json"))
	if m.Simulations != 1 || m.DiskCacheHits != 1 || m.DiskCacheMisses != 1 {
		t.Errorf("after the truncation: %d simulations, %d disk hits, %d disk misses; want 1 of each",
			m.Simulations, m.DiskCacheHits, m.DiskCacheMisses)
	}
}
