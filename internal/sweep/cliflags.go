package sweep

import (
	"flag"
	"fmt"
	"strconv"

	"mlperf/internal/telemetry"
)

// CLIFlags binds the engine-shaping flags every sweep-driving CLI
// shares: the persistent cache directory and its size cap. Register
// before flag.Parse, Apply after.
type CLIFlags struct {
	// CacheDir is the -cache-dir value ("" = memory-only).
	CacheDir string
	// CacheMaxBytes is the -cache-max-bytes value (0 = unbounded); past
	// it the oldest cached cells are evicted on write-through.
	CacheMaxBytes int64
}

// RegisterCLIFlags declares -cache-dir and -cache-max-bytes on fs (nil = the
// default flag set).
func RegisterCLIFlags(fs *flag.FlagSet) *CLIFlags {
	if fs == nil {
		fs = flag.CommandLine
	}
	f := &CLIFlags{}
	fs.StringVar(&f.CacheDir, "cache-dir", "",
		"persistent content-addressed cell cache directory (created if missing; sharable across runs and processes)")
	fs.Int64Var(&f.CacheMaxBytes, "cache-max-bytes", 0,
		"cap the cache directory's size in bytes, evicting oldest entries on overflow (0 = unbounded)")
	return f
}

// Apply configures the engine from the parsed flags: validates the
// size cap, then opens (creating if needed) and attaches the persistent
// tier. Callers should detach the store at exit
// (defer e.SetStore(nil)) so a process-shared engine does not outlive
// the flag scope.
func (f *CLIFlags) Apply(e *Engine) error {
	if f.CacheMaxBytes < 0 {
		return fmt.Errorf("sweep: -cache-max-bytes must be >= 0 (0 = unbounded), got %d", f.CacheMaxBytes)
	}
	if f.CacheMaxBytes > 0 && f.CacheDir == "" {
		return fmt.Errorf("sweep: -cache-max-bytes requires -cache-dir")
	}
	if f.CacheDir != "" {
		ds, err := OpenDiskStore(f.CacheDir)
		if err != nil {
			return fmt.Errorf("sweep: -cache-dir %s: %w", f.CacheDir, err)
		}
		ds.SetMaxBytes(f.CacheMaxBytes)
		e.SetStore(ds)
	}
	return nil
}

// Record writes the set flags into a telemetry sink's config via set
// (the CLI's sink.Config function); a manifest without a cache-dir key
// ran memory-only.
func (f *CLIFlags) Record(set func(key, value string)) {
	if f.CacheDir != "" {
		set("cache-dir", f.CacheDir)
	}
	if f.CacheMaxBytes > 0 {
		set("cache-max-bytes", strconv.FormatInt(f.CacheMaxBytes, 10))
	}
}

// FillManifest copies the cache snapshot into a run manifest — the
// shared tail every sweep-driving CLI runs before flushing telemetry.
func (st CacheStats) FillManifest(m *telemetry.Manifest) {
	m.CacheHits, m.CacheMisses = st.Hits, st.Misses
	m.CacheSchema = st.Schema
	m.DiskCacheHits = st.Disk.Hits
	m.DiskCacheMisses = st.Disk.Misses
	m.DiskCacheEvictions = st.Disk.Evictions
	m.DiskCacheQuarantined = st.Disk.Quarantined
	m.Simulations = st.Simulations
}
