package telemetry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Manifest is the JSON provenance record of one harness run: what ran,
// with which configuration and seeds, against which fault plan, how the
// memo cache behaved, and how long it took in both simulated and wall
// time. Two runs with equal seeds and configs produce byte-identical
// manifests modulo the wall-clock fields (StartedAt, WallSeconds,
// Hostname) — StripVolatile zeroes exactly those for comparison.
type Manifest struct {
	// Tool is the emitting command ("mlperf-sweep").
	Tool string `json:"tool"`
	// Version is the telemetry schema version.
	Version string `json:"version"`
	// Config holds the run's effective settings (flag name → value).
	Config map[string]string `json:"config,omitempty"`
	// Seed is the run's primary random seed, when one applies.
	Seed int64 `json:"seed,omitempty"`
	// FaultPlanHash is the SHA-256 of the canonical fault-plan JSON
	// ("" when fault-free) — provenance without embedding the plan.
	FaultPlanHash string `json:"fault_plan_hash,omitempty"`
	// Cells is the number of sweep cells (or jobs, or runs) executed.
	Cells int `json:"cells,omitempty"`
	// CacheHits/CacheMisses snapshot the sweep engine's in-memory memo
	// counters.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// CacheSchema is the cell-key content-address schema version the run's
	// cache traffic (memory and disk) was keyed under; 0 when the run did
	// not touch the sweep cache.
	CacheSchema int `json:"cache_schema,omitempty"`
	// DiskCacheHits/DiskCacheMisses/DiskCacheEvictions/DiskCacheQuarantined
	// snapshot the persistent cache tier (all zero when none was
	// attached). Evictions are intact entries dropped for capacity;
	// Quarantined are corrupt, foreign-codec or misfiled entries moved
	// into quarantine/.
	DiskCacheHits        int64 `json:"disk_cache_hits,omitempty"`
	DiskCacheMisses      int64 `json:"disk_cache_misses,omitempty"`
	DiskCacheEvictions   int64 `json:"disk_cache_evictions,omitempty"`
	DiskCacheQuarantined int64 `json:"disk_cache_quarantined,omitempty"`
	// Simulations counts cells that actually ran the simulator — memory
	// misses not answered by the disk tier. A warm-cache replay is
	// Simulations == 0, which CI asserts.
	Simulations int64 `json:"simulations,omitempty"`
	// SimulatedSeconds totals simulated time covered by the run's
	// results (0 when not applicable).
	SimulatedSeconds float64 `json:"simulated_seconds"`
	// Spans counts closed telemetry spans; SpansDropped counts those the
	// tracer's retention bound discarded, so a trace export holds
	// Spans - SpansDropped of them.
	Spans        int `json:"spans,omitempty"`
	SpansDropped int `json:"spans_dropped,omitempty"`
	// Metrics is the registry snapshot in deterministic order.
	Metrics []MetricValue `json:"metrics,omitempty"`

	// Wall-clock provenance — the only fields allowed to differ between
	// two otherwise-identical runs.

	// StartedAt is the run's RFC3339 start time.
	StartedAt string `json:"started_at,omitempty"`
	// WallSeconds is the run's elapsed wall time.
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// Hostname records where the run executed.
	Hostname string `json:"hostname,omitempty"`
}

// NewManifest starts a manifest for the named tool, stamping version
// and wall-clock provenance.
func NewManifest(tool string) *Manifest {
	host, _ := os.Hostname()
	return &Manifest{
		Tool:      tool,
		Version:   Version,
		Config:    map[string]string{},
		StartedAt: time.Now().UTC().Format(time.RFC3339),
		Hostname:  host,
	}
}

// Finish snapshots the registry (counters, gauges, histograms, span
// count) into the manifest and records the elapsed wall time.
func (m *Manifest) Finish(reg *Registry, wall time.Duration) {
	m.WallSeconds = wall.Seconds()
	if reg.Enabled() {
		m.Metrics = reg.Snapshot()
		m.Spans, m.SpansDropped = reg.Tracer().SpanCounts()
	}
}

// StripVolatile zeroes the wall-clock fields, leaving exactly the
// deterministic content two equal-seed runs must agree on.
func (m *Manifest) StripVolatile() {
	m.StartedAt = ""
	m.WallSeconds = 0
	m.Hostname = ""
}

// WriteJSON emits the manifest as indented JSON with a trailing
// newline. Field order is fixed by the struct; map keys marshal sorted,
// so the encoding is deterministic.
func (m *Manifest) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ParseManifest decodes and validates a manifest against its schema:
// unknown fields are rejected, required fields must be present, and
// every numeric field must be sane. It is the inspector's and CI's
// validation gate.
func ParseManifest(data []byte) (*Manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	m := &Manifest{}
	if err := dec.Decode(m); err != nil {
		return nil, fmt.Errorf("telemetry: bad manifest: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("telemetry: trailing data after manifest")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate checks the manifest's schema invariants.
func (m *Manifest) Validate() error {
	if m.Tool == "" {
		return fmt.Errorf("telemetry: manifest missing tool")
	}
	if m.Version == "" {
		return fmt.Errorf("telemetry: manifest missing version")
	}
	if m.CacheHits < 0 || m.CacheMisses < 0 || m.Cells < 0 || m.Spans < 0 || m.SpansDropped < 0 ||
		m.CacheSchema < 0 || m.DiskCacheHits < 0 || m.DiskCacheMisses < 0 ||
		m.DiskCacheEvictions < 0 || m.DiskCacheQuarantined < 0 || m.Simulations < 0 {
		return fmt.Errorf("telemetry: manifest has negative counters")
	}
	if m.SimulatedSeconds < 0 || m.WallSeconds < 0 {
		return fmt.Errorf("telemetry: manifest has negative durations")
	}
	if m.FaultPlanHash != "" {
		if len(m.FaultPlanHash) != 64 {
			return fmt.Errorf("telemetry: fault plan hash %q is not a SHA-256 hex digest", m.FaultPlanHash)
		}
		if _, err := hex.DecodeString(m.FaultPlanHash); err != nil {
			return fmt.Errorf("telemetry: fault plan hash %q is not hex", m.FaultPlanHash)
		}
	}
	if m.StartedAt != "" {
		if _, err := time.Parse(time.RFC3339, m.StartedAt); err != nil {
			return fmt.Errorf("telemetry: started_at %q is not RFC3339: %v", m.StartedAt, err)
		}
	}
	for _, mv := range m.Metrics {
		if mv.Name == "" {
			return fmt.Errorf("telemetry: manifest metric with empty name")
		}
		switch mv.Type {
		case "counter", "gauge", "histogram":
		default:
			return fmt.Errorf("telemetry: manifest metric %q has unknown type %q", mv.Name, mv.Type)
		}
	}
	return nil
}

// HashPlan returns the SHA-256 hex digest of a canonical fault-plan
// string ("" hashes to "", meaning fault-free).
func HashPlan(canon string) string {
	if canon == "" {
		return ""
	}
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:])
}
