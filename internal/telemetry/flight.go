package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"mlperf/internal/atomicfile"
)

// FlightRecorder is a fixed-size, lock-free ring of the most recent
// request summaries and lifecycle events in a process — the black box
// that survives to disk when the process panics, receives SIGQUIT, or
// drains. Recording is a single atomic counter increment plus a pointer
// store, cheap enough to sit on every request unconditionally; readers
// snapshot without stopping writers. A nil *FlightRecorder is valid and
// strictly no-op, like the rest of the telemetry instruments.

// FlightEntry is one ring slot: a request summary (Kind "request") or a
// lifecycle event (Kind "event": drain phases, contained panics,
// backend health flips).
type FlightEntry struct {
	Seq        int64   `json:"seq"`
	TS         string  `json:"ts"`
	Kind       string  `json:"kind"`
	TraceID    string  `json:"trace_id,omitempty"`
	Msg        string  `json:"msg,omitempty"`
	Method     string  `json:"method,omitempty"`
	Path       string  `json:"path,omitempty"`
	Status     int     `json:"status,omitempty"`
	Tenant     string  `json:"tenant,omitempty"`
	Backend    string  `json:"backend,omitempty"`
	Reason     string  `json:"reason,omitempty"`
	DurationMS float64 `json:"duration_ms,omitempty"`
}

// FlightRecorder holds the ring. Create with NewFlightRecorder.
type FlightRecorder struct {
	slots []atomic.Pointer[FlightEntry]
	mask  uint64
	seq   atomic.Uint64
	clock func() time.Time
	// target is where DumpToTarget writes: set by the daemon shell from
	// -flight-dump, read by the HTTP kernel on a contained panic and by
	// the shell on drain and SIGQUIT.
	target atomic.Pointer[dumpTarget]
}

// dumpTarget names a dump's file and the tool its envelope names.
type dumpTarget struct{ path, tool string }

// DefaultFlightSize is the ring capacity when none is configured.
const DefaultFlightSize = 512

// NewFlightRecorder builds a ring of at least size entries (rounded up
// to a power of two; <= 0 = DefaultFlightSize).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &FlightRecorder{
		slots: make([]atomic.Pointer[FlightEntry], n),
		mask:  uint64(n - 1),
		clock: time.Now,
	}
}

// WithClock returns the recorder reading timestamps from clock — the
// test seam. The ring is shared, not copied.
func (f *FlightRecorder) WithClock(clock func() time.Time) *FlightRecorder {
	if f != nil && clock != nil {
		f.clock = clock
	}
	return f
}

// Record stamps e (Seq, TS) and stores it; the oldest entry in a full
// ring is overwritten. Lock-free and safe for concurrent use.
func (f *FlightRecorder) Record(e FlightEntry) {
	if f == nil {
		return
	}
	seq := f.seq.Add(1) - 1
	e.Seq = int64(seq)
	e.TS = f.clock().UTC().Format(time.RFC3339Nano)
	f.slots[seq&f.mask].Store(&e)
}

// Event records a lifecycle event (Kind "event").
func (f *FlightRecorder) Event(msg, traceID string) {
	f.Record(FlightEntry{Kind: "event", Msg: msg, TraceID: traceID})
}

// Cap reports the ring capacity (0 on nil).
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.slots)
}

// Len reports how many entries the ring retains (0 on nil): every
// recorded entry until the ring fills, then its capacity. Unlike
// len(Snapshot()) it copies nothing.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	return int(min(f.seq.Load(), uint64(len(f.slots))))
}

// Snapshot returns the retained entries oldest-first. Entries being
// overwritten concurrently may be skipped; what is returned is always
// internally consistent (whole entries, ascending Seq).
func (f *FlightRecorder) Snapshot() []FlightEntry {
	if f == nil {
		return nil
	}
	hi := int64(f.seq.Load())
	lo := hi - int64(len(f.slots))
	if lo < 0 {
		lo = 0
	}
	out := make([]FlightEntry, 0, hi-lo)
	for s := lo; s < hi; s++ {
		p := f.slots[uint64(s)&f.mask].Load()
		// A slot can hold an older or newer entry than expected while a
		// writer laps the ring; keep only entries from the window.
		if p != nil && p.Seq >= lo && p.Seq < hi {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Requests returns only the request summaries from the snapshot — the
// /debug/requests view.
func (f *FlightRecorder) Requests() []FlightEntry {
	all := f.Snapshot()
	out := all[:0]
	for _, e := range all {
		if e.Kind == "request" {
			out = append(out, e)
		}
	}
	return out
}

// FlightDump is the on-disk / on-wire envelope of a snapshot.
type FlightDump struct {
	Tool     string        `json:"tool"`
	Reason   string        `json:"reason"`
	DumpedAt string        `json:"dumped_at"`
	Cap      int           `json:"cap"`
	Entries  []FlightEntry `json:"entries"`
}

// Dump assembles the envelope. Valid on nil (an empty dump).
func (f *FlightRecorder) Dump(tool, reason string) FlightDump {
	d := FlightDump{Tool: tool, Reason: reason, Cap: f.Cap(), Entries: f.Snapshot()}
	if f != nil {
		d.DumpedAt = f.clock().UTC().Format(time.RFC3339Nano)
	}
	return d
}

// WriteDump writes the envelope as indented JSON.
func (f *FlightRecorder) WriteDump(w io.Writer, tool, reason string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f.Dump(tool, reason))
}

// SetDumpTarget makes DumpToTarget write the ring to path under tool
// ("" path = no target). Safe for concurrent use with DumpToTarget.
func (f *FlightRecorder) SetDumpTarget(path, tool string) {
	if f != nil {
		f.target.Store(&dumpTarget{path: path, tool: tool})
	}
}

// DumpToTarget writes the ring to its dump target under reason
// ("panic", "drain", "sigquit") and returns the path written: "" and
// nil when no target is set. It creates the target's directory and
// writes through atomicfile.Write, so a panicking process never leaves
// a half-written forensic artifact and concurrent dumpers never lose one.
func (f *FlightRecorder) DumpToTarget(reason string) (string, error) {
	if f == nil {
		return "", nil
	}
	t := f.target.Load()
	if t == nil || t.path == "" {
		return "", nil
	}
	if err := os.MkdirAll(filepath.Dir(t.path), 0o755); err != nil {
		return t.path, err
	}
	return t.path, atomicfile.Write(t.path, func(w io.Writer) error {
		return f.WriteDump(w, t.tool, reason)
	})
}

// ParseFlightDump parses and validates a dump: known fields only, a
// named tool, and entries in ascending Seq order — what the CI smoke
// job asserts about a SIGQUIT artifact.
func ParseFlightDump(data []byte) (*FlightDump, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d FlightDump
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("telemetry: flight dump: %w", err)
	}
	if d.Tool == "" {
		return nil, fmt.Errorf("telemetry: flight dump names no tool")
	}
	for i := 1; i < len(d.Entries); i++ {
		if d.Entries[i].Seq <= d.Entries[i-1].Seq {
			return nil, fmt.Errorf("telemetry: flight dump entries out of order at %d", i)
		}
	}
	for i, e := range d.Entries {
		if e.Kind == "" {
			return nil, fmt.Errorf("telemetry: flight dump entry %d has no kind", i)
		}
	}
	return &d, nil
}
