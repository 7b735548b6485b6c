//go:build unix

package atomicfile

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// A FIFO is a stream, not a file: it is opened and written in place,
// and is still a FIFO afterwards.
func TestFIFOWrittenInPlace(t *testing.T) {
	dir := t.TempDir()
	fifo := filepath.Join(dir, "events")
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Skipf("no FIFOs here: %v", err)
	}
	read := make(chan string, 1)
	go func() {
		f, err := os.Open(fifo) // blocks until Write opens the other end
		if err != nil {
			read <- err.Error()
			return
		}
		defer f.Close()
		b, _ := io.ReadAll(f)
		read <- string(b)
	}()
	if err := Write(fifo, writeBytes([]byte("one event\n"))); err != nil {
		t.Fatal(err)
	}
	if got := <-read; got != "one event\n" {
		t.Fatalf("reader got %q", got)
	}
	info, err := os.Lstat(fifo)
	if err != nil || info.Mode()&fs.ModeNamedPipe == 0 {
		t.Fatalf("FIFO replaced: mode %v, %v", info.Mode(), err)
	}
	noTemps(t, dir)
}
