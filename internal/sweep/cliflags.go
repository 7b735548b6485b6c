package sweep

import (
	"flag"
	"fmt"
	"strconv"

	"mlperf/internal/telemetry"
)

// CLIFlags binds the engine-shaping flags every sweep-driving CLI
// shares: the worker pool bound, the persistent cache directory and its
// size cap. Register before flag.Parse, Apply after.
type CLIFlags struct {
	// Workers is the -workers value; Apply resolves 0 to GOMAXPROCS.
	Workers int
	// CacheDir is the -cache-dir value ("" = memory-only).
	CacheDir string
	// CacheMaxBytes is the -cache-max-bytes value (0 = unbounded); past
	// it the oldest cached cells are evicted on write-through.
	CacheMaxBytes int64
}

// RegisterCLIFlags declares -workers, -cache-dir and -cache-max-bytes
// on fs (nil = the default flag set).
func RegisterCLIFlags(fs *flag.FlagSet) *CLIFlags {
	if fs == nil {
		fs = flag.CommandLine
	}
	f := &CLIFlags{}
	fs.IntVar(&f.Workers, "workers", 0, "max concurrent simulation cells (0 = GOMAXPROCS)")
	fs.StringVar(&f.CacheDir, "cache-dir", "",
		"persistent content-addressed cell cache directory (created if missing; sharable across runs and processes)")
	fs.Int64Var(&f.CacheMaxBytes, "cache-max-bytes", 0,
		"cap the cache directory's size in bytes, evicting oldest entries on overflow (0 = unbounded)")
	return f
}

// Apply configures the engine from the parsed flags: bounds its worker
// pool, then attaches the persistent tier (AttachCache).
func (f *CLIFlags) Apply(e *Engine) error {
	w, err := ValidateWorkers(f.Workers)
	if err != nil {
		return err
	}
	f.Workers = w
	e.SetWorkers(w)
	return e.AttachCache(f.CacheDir, f.CacheMaxBytes)
}

// AttachCache checks a cache directory and size cap as every CLI takes
// them (-cache-dir, -cache-max-bytes) — the cap is >= 0 (0 = unbounded)
// and needs a directory — then opens (creating if needed) the
// directory's store and attaches it to e. An empty dir attaches
// nothing: the engine runs memory-only.
func (e *Engine) AttachCache(dir string, maxBytes int64) error {
	if maxBytes < 0 {
		return fmt.Errorf("sweep: -cache-max-bytes must be >= 0 (0 = unbounded), got %d", maxBytes)
	}
	if dir == "" {
		if maxBytes > 0 {
			return fmt.Errorf("sweep: -cache-max-bytes requires -cache-dir")
		}
		return nil
	}
	ds, err := OpenDiskStore(dir)
	if err != nil {
		return fmt.Errorf("sweep: -cache-dir %s: %w", dir, err)
	}
	ds.SetMaxBytes(maxBytes)
	e.SetStore(ds)
	return nil
}

// Record writes the applied flags into a telemetry sink's config via
// set (the CLI's sink.Config function); a manifest without a cache-dir
// key ran memory-only.
func (f *CLIFlags) Record(set func(key, value string)) {
	set("workers", strconv.Itoa(f.Workers))
	if f.CacheDir != "" {
		set("cache-dir", f.CacheDir)
	}
	if f.CacheMaxBytes > 0 {
		set("cache-max-bytes", strconv.FormatInt(f.CacheMaxBytes, 10))
	}
}

// FillManifest copies the cache snapshot into a run manifest.
func (st CacheStats) FillManifest(m *telemetry.Manifest) {
	m.CacheHits, m.CacheMisses = st.Hits, st.Misses
	m.CacheSchema = st.Schema
	m.DiskCacheHits = st.Disk.Hits
	m.DiskCacheMisses = st.Disk.Misses
	m.DiskCacheEvictions = st.Disk.Evictions
	m.DiskCacheQuarantined = st.Disk.Quarantined
	m.Simulations = st.Simulations
}
