package atomicfile_test

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlperf/internal/atomicfile"
	"mlperf/internal/telemetry"
)

// killChildEnv, when set, turns the test binary into the kill test's
// writer: it rewrites the named manifest until killed. killRoundEnv
// gives the round, so every round writes fresh content.
const (
	killChildEnv = "MLPERF_ATOMICFILE_KILL_PATH"
	killRoundEnv = "MLPERF_ATOMICFILE_KILL_ROUND"
)

// killMetrics sizes the manifest to about 1 MiB, so a kill often lands
// inside a write.
const killMetrics = 8000

// killManifest is the round's manifest; each write sets its Cells.
func killManifest(round int) *telemetry.Manifest {
	m := &telemetry.Manifest{Tool: "atomicfile-kill", Version: telemetry.Version, Seed: int64(round)}
	for j := 0; j < killMetrics; j++ {
		m.Metrics = append(m.Metrics, telemetry.MetricValue{
			Name: "kill_test_total", Labels: `{i="` + strconv.Itoa(j) + `"}`, Type: "counter", Value: float64(j),
		})
	}
	return m
}

// killChild is the writer process: write after write until SIGKILL (or
// a bound, so an orphaned child stops), printing a line just before
// each write.
func killChild(path string) {
	round, _ := strconv.Atoi(os.Getenv(killRoundEnv))
	m := killManifest(round)
	for i := 0; i < 64; i++ {
		m.Cells = i
		fmt.Println(i)
		if err := atomicfile.Write(path, m.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	os.Exit(0)
}

// tempFiles lists the writer temp files in dir.
func tempFiles(dir string) []string {
	entries, _ := os.ReadDir(dir)
	var temps []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), atomicfile.TempPrefix) {
			temps = append(temps, filepath.Join(dir, e.Name()))
		}
	}
	return temps
}

// TestWriteSurvivesKill SIGKILLs a process that rewrites one manifest in
// a loop, round after round: after every kill the manifest is absent or
// parses whole, never torn. Each kill is aimed into a write: it lands a
// random few hundred microseconds after the write's temp file appears.
func TestWriteSurvivesKill(t *testing.T) {
	if path := os.Getenv(killChildEnv); path != "" {
		killChild(path)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestWriteSurvivesKill$")
		cmd.Env = append(os.Environ(), killChildEnv+"="+path, killRoundEnv+"="+strconv.Itoa(round))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Some rounds kill the first write, the others a later one.
		sc := bufio.NewScanner(out)
		var last string
		for n := 0; n < 1+round%3 && sc.Scan(); n++ {
			last = sc.Text()
		}
		if _, err := strconv.Atoi(last); err != nil {
			cmd.Wait()
			t.Fatalf("round %d: writer stopped early (last line %q)", round, last)
		}
		for deadline := time.Now().Add(2 * time.Second); len(tempFiles(dir)) == 0 && time.Now().Before(deadline); {
		}
		time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait() // reports the kill

		data, err := os.ReadFile(path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
		case err != nil:
			t.Fatal(err)
		default:
			m, err := telemetry.ParseManifest(data)
			if err != nil {
				t.Fatalf("round %d: manifest torn by the kill (%d bytes): %v", round, len(data), err)
			}
			if m.Seed != int64(round) || len(m.Metrics) != killMetrics {
				t.Fatalf("round %d: manifest holds round %d with %d metrics", round, m.Seed, len(m.Metrics))
			}
		}
		// A killed writer may leave its temp file, and nothing else.
		for _, tmp := range tempFiles(dir) {
			if err := os.Remove(tmp); err != nil {
				t.Fatal(err)
			}
		}
		if entries, _ := os.ReadDir(dir); len(entries) > 1 {
			t.Fatalf("round %d: %d files in the directory, want only the manifest", round, len(entries))
		}
		os.Remove(path) // the next round starts from nothing
	}
}
