package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// asMainEnv, when set, turns the test binary into mlperf-sweep: it runs
// main on its own arguments.
const asMainEnv = "MLPERF_SWEEP_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main() // main exits with the command's status
	}
	os.Exit(m.Run())
}

// outcome is everything a caller of the command can observe.
type outcome struct {
	stdout, stderr string
	status         int
}

// runSweep runs mlperf-sweep with args in a child process.
func runSweep(t *testing.T, args ...string) outcome {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("mlperf-sweep %q: %v", args, err)
	}
	return outcome{stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()}
}

// runs is how many times the battery repeats each failing command.
const runs = 20

// TestFailurePathsRepeat is the failure-path battery: each refused
// command answers with the same stdout, stderr and exit status on every
// one of 20 runs, and that answer is the documented refusal.
func TestFailurePathsRepeat(t *testing.T) {
	dir := t.TempDir()
	malformed := filepath.Join(dir, "malformed.json")
	if err := os.WriteFile(malformed, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.json")
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-seq", "-partial"}, "mlperf-sweep: -seq is the plain reference path; it cannot combine with -partial\n"},
		{[]string{"-bench", "res50_tf,nope"}, `mlperf-sweep: workload: unknown benchmark "nope" (have `},
		{[]string{"-bench", "res50_tf", "-faults", missing}, "mlperf-sweep: open " + missing + ": no such file or directory\n"},
		{[]string{"-bench", "res50_tf", "-faults", malformed}, "mlperf-sweep: -faults " + malformed + ": fault: bad plan: unexpected end of JSON input\n"},
		{[]string{"-bench", "res50_tf", "-gpus", "1,x"}, "mlperf-sweep: bad integer \"x\"\n"},
		{[]string{"-bench", "res50_tf", "-batch", "8,-y"}, "mlperf-sweep: bad integer \"-y\"\n"},
	} {
		first := runSweep(t, tc.args...)
		if first.status != 1 || first.stdout != "" || !strings.HasPrefix(first.stderr, tc.stderr) {
			t.Errorf("mlperf-sweep %q: status %d, stdout %q, stderr %q; want status 1, no stdout, stderr %q",
				tc.args, first.status, first.stdout, first.stderr, tc.stderr)
			continue
		}
		for i := 1; i < runs; i++ {
			if got := runSweep(t, tc.args...); got != first {
				t.Errorf("mlperf-sweep %q run %d: %+v, want %+v as on run 0", tc.args, i, got, first)
				break
			}
		}
	}
}
