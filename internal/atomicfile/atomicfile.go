// Package atomicfile writes a file whole or not at all. Every artifact
// of the repository goes through Write: the content-addressed cache's
// entries, run manifests, metrics files, span traces, flight dumps,
// performance snapshots and the CLIs' output files. A reader, or a
// process that runs after a crash, sees the old file, no file, or the
// complete new one, never a torn one.
package atomicfile

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// TempPrefix starts the name of every temp file Write creates. Each
// call gets a fresh name, so concurrent writers of one path never share
// a temp file. A file with this prefix that outlives its writer is the
// leftover of a process killed mid-write.
const TempPrefix = ".tmp-"

// Write writes path with write. The bytes go to a fresh temp file in
// path's directory, which is synced, closed, given mode 0644 and
// renamed onto path; the directory is then synced, so a returned nil
// survives a crash. On any error the temp file is removed, path is left
// as it was, and the error is returned. The directory must exist.
//
// A path that exists but is not a regular file (a symlink, a FIFO, a
// device such as /dev/stdout) is opened and written in place, never
// renamed over: its bytes are a stream, not a file that could be torn.
func Write(path string, write func(io.Writer) error) error {
	if info, err := os.Lstat(path); err == nil && !info.Mode().IsRegular() {
		return writeInPlace(path, write)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, TempPrefix+"*")
	if err != nil {
		if pe, ok := err.(*fs.PathError); ok {
			// Name the target, not the temp pattern.
			return &fs.PathError{Op: "open", Path: path, Err: pe.Err}
		}
		return err
	}
	err = tmp.Chmod(0o644)
	if err == nil {
		err = write(tmp)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// writeInPlace opens path for writing, as os.Create would, and writes it
// with write, reporting the first error including the close.
func writeInPlace(path string, write func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory, making a rename into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
