package cas

import (
	"bufio"
	"bytes"
	"encoding/binary"
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
)

// crashChildEnv, when set, turns the test binary into the crash test's
// writer: it loops Put into the named store directory until killed.
// crashRoundEnv gives the round, so every round writes fresh digests.
const (
	crashChildEnv = "MLPERF_CAS_CRASH_DIR"
	crashRoundEnv = "MLPERF_CAS_CRASH_ROUND"
)

// crashPayload is the round's i-th payload: 1 MiB, so a kill often lands
// inside a write, and unique to (round, i).
func crashPayload(round, i int) []byte {
	p := bytes.Repeat([]byte{byte(i), byte(round), 0x5a}, 1<<20/3)
	binary.LittleEndian.PutUint64(p, uint64(round)<<32|uint64(i))
	return p
}

// crashChild is the writer process: Put after Put until SIGKILL (or a
// bound, so an orphaned child stops), printing each digest to stdout
// just before its Put.
func crashChild(dir string) {
	round, _ := strconv.Atoi(os.Getenv(crashRoundEnv))
	s, err := Open(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for i := 0; i < 64; i++ {
		p := crashPayload(round, i)
		d := digestOf(p)
		fmt.Println(d)
		if err := s.Put(d, p); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	os.Exit(0)
}

// writeStarted reports whether a Put of digest d into the store at dir
// has created a file: the entry itself, or any temp file in its shard
// directory.
func writeStarted(dir, d string) bool {
	shard := filepath.Join(dir, d[:2])
	if _, err := os.Stat(filepath.Join(shard, d)); err == nil {
		return true
	}
	entries, _ := os.ReadDir(shard) // not there yet: no write started
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tempPrefix) {
			return true
		}
	}
	return false
}

// TestPutSurvivesKill SIGKILLs a process in the middle of a Put loop,
// round after round, and reopens the store each time: every entry on
// disk must read back complete and verified — a kill leaves an entry
// whole or absent, never torn. Each kill is aimed into a write: it lands
// a random few hundred microseconds after the Put's first file appears.
func TestPutSurvivesKill(t *testing.T) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		crashChild(dir)
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 12; round++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestPutSurvivesKill$")
		cmd.Env = append(os.Environ(), crashChildEnv+"="+dir, crashRoundEnv+"="+strconv.Itoa(round))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Let the child store at least one entry, then kill it just after
		// a later Put starts writing.
		sc := bufio.NewScanner(out)
		var next string
		for n := 0; n < 2+round%3 && sc.Scan(); n++ {
			next = sc.Text()
		}
		if validDigest(next) != nil {
			cmd.Wait()
			t.Fatalf("round %d: writer stopped early (last line %q)", round, next)
		}
		for deadline := time.Now().Add(2 * time.Second); !writeStarted(dir, next) && time.Now().Before(deadline); {
		}
		time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait() // reports the kill

		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || validDigest(d.Name()) != nil {
				return err
			}
			p, ok, err := s.Get(d.Name())
			if err != nil || !ok {
				t.Errorf("round %d: entry %s unreadable after kill: ok=%v err=%v", round, d.Name()[:8], ok, err)
			} else if digestOf(p) != d.Name() {
				t.Errorf("round %d: entry %s holds another payload", round, d.Name()[:8])
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if q := s.Stats().Quarantined; q != 0 || t.Failed() {
			t.Fatalf("round %d: %d of %d entries quarantined after kill", round, q, n)
		}
		if n == 0 {
			t.Fatalf("round %d: no entries on disk", round)
		}
	}
}
