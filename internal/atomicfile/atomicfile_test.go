package atomicfile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// writeBytes is a Write callback that writes b.
func writeBytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

// noTemps fails the test if dir holds a writer temp file.
func noTemps(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), TempPrefix) {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

func TestWriteCreatesAndReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	for _, body := range []string{"first\n", "second, longer\n", "3\n"} {
		if err := Write(path, writeBytes([]byte(body))); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != body {
			t.Fatalf("read %q, %v; want %q", got, err, body)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode() != 0o644 {
			t.Errorf("mode %v, want -rw-r--r--", info.Mode())
		}
	}
	noTemps(t, dir)
}

// A failing callback, even one that wrote some bytes first, leaves the
// old file as it was and no temp file behind.
func TestFailedWriteLeavesTargetUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	if err := os.WriteFile(path, []byte("old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		w.Write([]byte("half a new fi"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want the callback's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old\n" {
		t.Fatalf("target now %q, want it untouched", got)
	}
	noTemps(t, dir)
}

// A missing directory is an error that names the target, and nothing is
// created anywhere.
func TestMissingDirectoryFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "missing", "run.json")
	err := Write(path, writeBytes([]byte("x")))
	if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), path) {
		t.Fatalf("Write = %v, want a not-exist error naming %s", err, path)
	}
	if _, err := os.Stat(filepath.Dir(path)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("directory created: %v", err)
	}
	noTemps(t, dir)
}

// Concurrent writers of one path each get their own temp file: all
// succeed, and the file is one writer's payload, whole.
func TestConcurrentWritersOfOnePath(t *testing.T) {
	const writers = 8
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.json")
	payloads := make([][]byte, writers)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte(fmt.Sprintf("writer %d\n", i)), 8<<10)
	}
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for i := range payloads {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = Write(path, writeBytes(payloads[i]))
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: writer %d: %v", round, i, err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		whole := false
		for _, p := range payloads {
			whole = whole || bytes.Equal(got, p)
		}
		if !whole {
			t.Fatalf("round %d: file (%d bytes) is no writer's payload", round, len(got))
		}
	}
	noTemps(t, dir)
}

// A symlink is written through, not renamed over: the link survives
// and its target holds the new bytes.
func TestSymlinkWrittenThrough(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "target.json")
	link := filepath.Join(dir, "link.json")
	if err := os.WriteFile(target, []byte("old, and longer than the new\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(target, link); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	if err := Write(link, writeBytes([]byte("new\n"))); err != nil {
		t.Fatal(err)
	}
	info, err := os.Lstat(link)
	if err != nil || info.Mode()&fs.ModeSymlink == 0 {
		t.Fatalf("link replaced: mode %v, %v", info.Mode(), err)
	}
	if got, _ := os.ReadFile(target); string(got) != "new\n" {
		t.Fatalf("link target holds %q, want %q", got, "new\n")
	}
	noTemps(t, dir)
}
