// Package perfsnap records and compares performance snapshots: named Go
// benchmarks run through testing.Benchmark, serialized to a committed
// JSON file (BENCH_*.json) so the repository tracks its own performance
// trajectory. A snapshot carries enough machine identity to make
// comparisons honest — wall-clock metrics are only compared between runs
// on the same CPU model, while allocation counts (deterministic for a
// given build) and derived ratios (machine-independent) gate everywhere,
// including CI.
package perfsnap

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"mlperf/internal/atomicfile"
)

// Schema is the snapshot file format version.
const Schema = 1

// Spec is one benchmark to collect: a stable entry name and the function
// to measure.
type Spec struct {
	Name  string
	Bench func(b *testing.B)
}

// Machine identifies where a snapshot was taken.
type Machine struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	// CPU is the processor model string ("" when undetectable). Time
	// comparisons are gated on it matching.
	CPU string `json:"cpu"`
}

// Entry is one benchmark's measurement.
type Entry struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Extra carries custom per-op metrics (e.g. "ns_per_step").
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Snapshot is a full performance record.
type Snapshot struct {
	Schema  int     `json:"schema"`
	Suite   string  `json:"suite"`
	Machine Machine `json:"machine"`
	Entries []Entry `json:"entries"`
	// Derived holds machine-independent figures computed from the
	// entries — ratios like "steady_speedup_x" — which compare (and
	// gate) across machines.
	Derived map[string]float64 `json:"derived,omitempty"`
}

// CurrentMachine describes the host.
func CurrentMachine() Machine {
	return Machine{
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
		CPU:    cpuModel(),
	}
}

// cpuModel extracts the processor model string, Linux-style ("" when the
// platform offers none).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// Collect runs every spec through testing.Benchmark (allocation
// reporting on) and assembles a snapshot.
func Collect(suite string, specs []Spec) *Snapshot {
	snap := &Snapshot{Schema: Schema, Suite: suite, Machine: CurrentMachine()}
	for _, s := range specs {
		fn := s.Bench
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		e := Entry{
			Name:        s.Name,
			Iters:       r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			e.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				e.Extra[k] = v
			}
		}
		snap.Entries = append(snap.Entries, e)
	}
	sort.Slice(snap.Entries, func(i, j int) bool { return snap.Entries[i].Name < snap.Entries[j].Name })
	return snap
}

// Entry returns the named measurement, or nil.
func (s *Snapshot) Entry(name string) *Entry {
	for i := range s.Entries {
		if s.Entries[i].Name == name {
			return &s.Entries[i]
		}
	}
	return nil
}

// Marshal renders the snapshot as stable, human-diffable JSON.
func (s *Snapshot) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the snapshot to path, whole or not at all.
func (s *Snapshot) WriteFile(path string) error {
	b, err := s.Marshal()
	if err != nil {
		return err
	}
	return atomicfile.Write(path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// ReadFile loads a snapshot, rejecting unknown schema versions.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("perfsnap: %s: %w", path, err)
	}
	if s.Schema != Schema {
		return nil, fmt.Errorf("perfsnap: %s: schema %d, want %d", path, s.Schema, Schema)
	}
	return &s, nil
}

// Options tunes a comparison.
type Options struct {
	// TimeTol is the allowed fractional ns/op growth (e.g. 0.35 = +35%)
	// before a time regression is reported. Time metrics are only
	// compared when both snapshots name the same non-empty CPU model.
	TimeTol float64
	// AllocTol is the allowed fractional allocs/op and bytes/op growth.
	// Allocation counts are deterministic per build, so this can be
	// tight; it applies across machines.
	AllocTol float64
	// MinDerived are floors on the new snapshot's Derived values: e.g.
	// {"steady_speedup_x": 8}. A missing key fails the gate.
	MinDerived map[string]float64
}

// Regression is one comparison failure.
type Regression struct {
	Entry  string  `json:"entry"`
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	Limit  float64 `json:"limit"`
}

func (r Regression) String() string {
	if r.Entry == "" {
		return fmt.Sprintf("%s: %.3f below floor %.3f", r.Metric, r.New, r.Limit)
	}
	return fmt.Sprintf("%s %s: %.1f -> %.1f (limit %.1f)", r.Entry, r.Metric, r.Old, r.New, r.Limit)
}

// Compare reports every way the new snapshot regressed from the old one
// under the options: time growth past TimeTol (same-CPU runs only),
// allocation growth past AllocTol, entries that disappeared, and Derived
// floors not met. An empty result means the gate passes.
func Compare(old, new *Snapshot, o Options) []Regression {
	var regs []Regression
	sameCPU := old.Machine.CPU != "" && old.Machine.CPU == new.Machine.CPU
	for i := range old.Entries {
		oe := &old.Entries[i]
		ne := new.Entry(oe.Name)
		if ne == nil {
			regs = append(regs, Regression{Entry: oe.Name, Metric: "missing"})
			continue
		}
		if sameCPU && oe.NsPerOp > 0 {
			if limit := oe.NsPerOp * (1 + o.TimeTol); ne.NsPerOp > limit {
				regs = append(regs, Regression{Entry: oe.Name, Metric: "ns_per_op",
					Old: oe.NsPerOp, New: ne.NsPerOp, Limit: limit})
			}
		}
		if limit := float64(oe.AllocsPerOp) * (1 + o.AllocTol); float64(ne.AllocsPerOp) > limit {
			regs = append(regs, Regression{Entry: oe.Name, Metric: "allocs_per_op",
				Old: float64(oe.AllocsPerOp), New: float64(ne.AllocsPerOp), Limit: limit})
		}
		if limit := float64(oe.BytesPerOp) * (1 + o.AllocTol); float64(ne.BytesPerOp) > limit {
			regs = append(regs, Regression{Entry: oe.Name, Metric: "bytes_per_op",
				Old: float64(oe.BytesPerOp), New: float64(ne.BytesPerOp), Limit: limit})
		}
	}
	keys := make([]string, 0, len(o.MinDerived))
	for k := range o.MinDerived {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		floor := o.MinDerived[k]
		v, ok := new.Derived[k]
		if !ok || v < floor {
			regs = append(regs, Regression{Metric: "derived:" + k, New: v, Limit: floor})
		}
	}
	return regs
}
