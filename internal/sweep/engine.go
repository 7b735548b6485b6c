package sweep

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"mlperf/internal/memo"
	"mlperf/internal/sim"
	"mlperf/internal/telemetry"
)

// Engine executes sweep cells on a bounded worker pool and memoizes
// results by their full cell configuration in a bounded memory tier.
// Output order is the grid's deterministic expansion order regardless
// of worker count, so parallel and sequential runs are byte-identical.
// An Engine is safe for concurrent use; Default is the process-wide
// instance the experiments share, which is what deduplicates the cells
// Table IV, Table V, Figure 4 and Figure 5 have in common.
type Engine struct {
	workers atomic.Int64
	// fastPath is the sim.FastPathMode cells run with (default
	// sim.FastPathAuto). Any mode yields bit-identical Records; the knob
	// exists so equivalence tests can pin a path and perf-sensitive
	// callers can assert one.
	fastPath atomic.Int32

	// simulate is the cell evaluator — runCell in production, swappable
	// in tests to exercise panic containment and cancellation.
	simulate func(CellKey) (Record, error)

	// tel is the attached telemetry registry (nil = disabled; every
	// instrument call is then a nil no-op). Held atomically so it can be
	// attached to the shared Default engine mid-process without racing
	// in-flight sweeps.
	tel atomic.Pointer[telemetry.Registry]
	// disk is the optional persistent second tier (nil = memory only),
	// consulted on a memory miss before simulating and written through
	// after every successful simulation. Held atomically for the same
	// mid-process attach reason as tel.
	disk atomic.Pointer[storeRef]

	// diskHits/diskMisses count second-tier traffic and diskErrors its
	// failed operations; simulations counts cells that actually ran the
	// simulator (a memory miss promoted from disk is NOT a simulation —
	// that distinction is the whole point of the persistent tier, and CI
	// asserts it).
	diskHits    atomic.Int64
	diskMisses  atomic.Int64
	diskErrors  atomic.Int64
	simulations atomic.Int64

	mu sync.Mutex
	// cache memoizes cells, at most maxMemoCells of them. Its length is
	// NOT the miss count: rotations drop entries, so misses get their own
	// monotone counter below.
	cache  *memo.Map[CellKey, *cellEntry]
	hits   int64
	misses int64
	joins  int64
}

// maxMemoCells bounds the memory tier. Full, it holds about 25 MB of
// live heap (measured: the heap plateaus there under a stream of unique
// cells). Every paper grid fits many times over; a daemon answering
// unique cells for days stays flat instead of growing by one entry per
// distinct cell. A constant, not a knob.
const maxMemoCells = 1 << 16

// storeRef boxes the Store interface so it can live in an
// atomic.Pointer.
type storeRef struct{ s Store }

// cellEntry memoizes one cell, singleflight-style: the first goroutine to
// request a key simulates it inside once; everyone else blocks on the
// same once and reads the settled result. Evicting an entry only drops
// the map's reference, so goroutines already holding it still get the
// result.
type cellEntry struct {
	once    sync.Once
	settled atomic.Bool // once has returned; a hit before then is a join
	rec     Record
	err     error
}

// NewEngine returns an engine running at most workers cells concurrently
// (<= 0 means GOMAXPROCS).
func NewEngine(workers int) *Engine {
	e := &Engine{cache: memo.New[CellKey, *cellEntry](maxMemoCells)}
	e.simulate = func(k CellKey) (Record, error) { return runCell(k, e.FastPath()) }
	e.workers.Store(int64(workers))
	return e
}

// Default is the shared process-wide engine behind the experiments
// package.
var Default = NewEngine(0)

// SetWorkers changes the concurrency bound (<= 0 restores the GOMAXPROCS
// default), the one worker setting every grid run uses. It applies to
// subsequent runs.
func (e *Engine) SetWorkers(n int) { e.workers.Store(int64(n)) }

// SetFastPath pins the sim.FastPathMode subsequent cell simulations use.
// The default, sim.FastPathAuto, collapses steady-state windows
// analytically where possible and falls back to the discrete-event
// pipeline otherwise; any mode produces bit-identical Records. Already
// memoized cells are not re-simulated — safe precisely because the modes
// cannot disagree.
func (e *Engine) SetFastPath(m sim.FastPathMode) { e.fastPath.Store(int32(m)) }

// FastPath reports the engine's current cell fast-path mode.
func (e *Engine) FastPath() sim.FastPathMode { return sim.FastPathMode(e.fastPath.Load()) }

// SetTelemetry attaches (or, with nil, detaches) a metrics registry.
// While attached, the engine publishes cache traffic, per-cell latency
// histograms, failure counters, worker-pool occupancy and one
// span per simulated cell. Detached (the default), every telemetry
// call is a nil no-op and results are byte-identical to an engine that
// never heard of telemetry.
func (e *Engine) SetTelemetry(reg *telemetry.Registry) { e.tel.Store(reg) }

// Telemetry returns the attached registry (nil when detached).
func (e *Engine) Telemetry() *telemetry.Registry { return e.tel.Load() }

// SetStore attaches (or, with nil, detaches) a persistent second cache
// tier. While attached, a memory miss first consults the store — a disk
// hit is promoted into the memory tier without simulating — and every
// successful simulation is written through, so a later process pointed
// at the same store replays the grid instead of recomputing it. Stored
// records are verified content (digest-addressed, checksummed,
// strictly decoded), so attaching a store can change performance but
// never results.
func (e *Engine) SetStore(s Store) {
	if s == nil {
		e.disk.Store(nil)
		return
	}
	e.disk.Store(&storeRef{s: s})
}

// Store returns the attached persistent tier (nil when detached).
func (e *Engine) Store() Store {
	if ref := e.disk.Load(); ref != nil {
		return ref.s
	}
	return nil
}

// Metric names the engine registers. Exported so CLIs and tests share
// one schema.
const (
	MetricCacheTotal     = "sweep_cache_total"         // counter, result=hit|miss (memory tier)
	MetricDiskCacheTotal = "sweep_disk_cache_total"    // counter, result=hit|miss (persistent tier, consulted on memory misses)
	MetricDiskErrors     = "sweep_disk_errors_total"   // counter, op=get|put (failed persistent-tier operations)
	MetricCellSeconds    = "sweep_cell_seconds"        // histogram, wall time per simulated cell
	MetricFailures       = "sweep_cell_failures_total" // counter, kind=error|panic|canceled (per failed cell)
	MetricWorkersBusy    = "sweep_workers_busy"        // gauge, live busy workers
	MetricWorkersPeak    = "sweep_workers_busy_peak"   // gauge, high-water occupancy
)

// WorkerCount reports the effective concurrency bound.
func (e *Engine) WorkerCount() int {
	if w := int(e.workers.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes the grid's cells on the hardened pool with zero Options,
// returning records in the same deterministic order as RunSequential.
// A failing grid returns the lowest-index *CellError, which wraps the
// cell's own error for errors.Is/As.
func (e *Engine) Run(g Grid) ([]Record, error) {
	recs, _, err := e.RunWithOptions(context.Background(), g, Options{})
	return recs, err
}

// startRunSpan opens the top-level grid span and returns its ID, which
// the run's cells pass down as their span parent, and its closer. With
// no registry attached the ID is 0 and the closer a no-op. The run span
// parents under whatever span the context carries (the serving tier's
// request span), keeping engine-local runs at the root.
func (e *Engine) startRunSpan(ctx context.Context, cells int) (telemetry.SpanID, func()) {
	reg := e.tel.Load()
	if reg == nil {
		return 0, func() {}
	}
	id := reg.Tracer().Start(telemetry.KindRun, "sweep", telemetry.SpanFromContext(ctx),
		"cells="+strconv.Itoa(cells))
	return id, func() { reg.Tracer().End(id) }
}

// trackBusy bumps the worker-occupancy gauges around one cell
// execution and returns the matching release.
func (e *Engine) trackBusy() func() {
	reg := e.tel.Load()
	if reg == nil {
		return func() {}
	}
	busy := reg.Gauge(MetricWorkersBusy)
	busy.Add(1)
	reg.Gauge(MetricWorkersPeak).Max(busy.Value())
	return func() { busy.Add(-1) }
}

// Cell simulates (or recalls) a single cell. The key may use any accepted
// spelling; it is normalized before the cache lookup.
func (e *Engine) Cell(k CellKey) (Record, error) {
	nk, err := k.Normalize()
	if err != nil {
		return Record{}, err
	}
	return e.cell(nk, 0)
}

// cell is the memoized core; k must already be normalized. parent is
// the span the cell span attaches under: the run span of the grid run
// the cell belongs to, 0 for a standalone cell.
func (e *Engine) cell(k CellKey, parent telemetry.SpanID) (Record, error) {
	en := e.entry(k)
	e.fill(en, k, parent)
	return en.rec, en.err
}

// entry looks k up in the memory tier, creating its entry on a miss,
// and counts the lookup once: a hit (a join too, when the entry has not
// settled) or a miss.
func (e *Engine) entry(k CellKey) *cellEntry {
	e.mu.Lock()
	en, ok := e.cache.Get(k)
	if !ok {
		en = &cellEntry{}
		e.cache.Put(k, en)
		e.misses++
	} else {
		e.hits++
		if !en.settled.Load() {
			e.joins++
		}
	}
	e.mu.Unlock()
	reg := e.tel.Load()
	if ok {
		reg.Counter(MetricCacheTotal, telemetry.L("result", "hit")).Inc()
	} else {
		reg.Counter(MetricCacheTotal, telemetry.L("result", "miss")).Inc()
	}
	return en
}

// fill settles en exactly once and waits for it: from the disk tier when
// the store holds the cell, else by simulating it. The simulation runs
// panic-guarded: a panicking cell settles its entry with a *PanicError
// instead of unwinding through the worker pool.
func (e *Engine) fill(en *cellEntry, k CellKey, parent telemetry.SpanID) {
	reg := e.tel.Load()
	en.once.Do(func() {
		defer en.settled.Store(true)
		// Second tier: a disk hit promotes into the memory map without
		// simulating. Only verified content comes back from the store, so
		// this branch can change wall time but never records.
		if ds := e.Store(); ds != nil {
			rec, ok, err := ds.Get(k)
			e.countDiskError(reg, "get", err)
			if ok {
				e.diskHits.Add(1)
				reg.Counter(MetricDiskCacheTotal, telemetry.L("result", "hit")).Inc()
				en.rec, en.err = rec, nil
				return
			}
			e.diskMisses.Add(1)
			reg.Counter(MetricDiskCacheTotal, telemetry.L("result", "miss")).Inc()
		}
		release := e.trackBusy()
		defer release()
		var span telemetry.SpanID
		start := reg.Now()
		if reg != nil {
			span = reg.Tracer().Start(telemetry.KindSweepCell, cellName(k), parent)
		}
		e.simulations.Add(1)
		en.rec, en.err = safeCell(e.simulate, k)
		if reg != nil {
			reg.Histogram(MetricCellSeconds, telemetry.LatencyBuckets).Observe(reg.Now() - start)
			reg.Tracer().End(span)
		}
		if en.err == nil {
			if ds := e.Store(); ds != nil {
				e.countDiskError(reg, "put", ds.Put(k, en.rec))
			}
		}
	})
}

// countDiskError counts a failed store operation, and that is all it
// does: the tier is an accelerator, so a failed Get reads as a disk
// miss and a failed Put drops the write, and neither fails the cell.
func (e *Engine) countDiskError(reg *telemetry.Registry, op string, err error) {
	if err != nil {
		e.diskErrors.Add(1)
		reg.Counter(MetricDiskErrors, telemetry.L("op", op)).Inc()
	}
}

// cellName renders the span label of one cell ("res50_tf/dss8440@4").
func cellName(k CellKey) string {
	return k.Benchmark + "/" + k.System + "@" + strconv.Itoa(k.GPUs)
}

// CacheStats reports the two-tier memo cache's activity. Hits and
// Misses describe the in-memory tier (and mirror Memory, kept as the
// stable legacy surface); Disk describes the persistent tier as seen by
// this engine; Simulations counts cells that actually ran the
// simulator. The accounting identity every configuration maintains:
// Simulations == Misses - Disk.Hits, because a memory miss either
// promotes from disk or simulates — and Misses stays monotone either
// way, which the regression tests pin.
type CacheStats struct {
	// Hits counts cell requests answered from the in-memory tier
	// (including waits on a simulation already in flight).
	Hits int64
	// Joins counts the Hits that found their cell still in flight: the
	// request shared another request's simulation (or disk read) instead
	// of a settled result. This is where concurrent identical work is
	// deduplicated.
	Joins int64
	// Misses counts cell requests the memory tier could not answer. This
	// is a dedicated monotone counter, not the cache's size: the bound
	// rotates entries out, so a re-requested cell is two misses while
	// occupying (at most) one cache slot, and a disk promotion is still a
	// memory miss.
	Misses int64
	// Memory is the in-memory tier's traffic (Hits/Misses restated, plus
	// evictions: entries the bound rotated out).
	Memory TierStats
	// Disk is the persistent tier's traffic as driven by this engine,
	// with Evictions and Quarantined read from the store itself.
	// Zero-valued when no store is attached.
	Disk TierStats
	// DiskErrors counts the store's failed Gets and Puts (unreadable
	// directory, full disk). Each failed Get is also a Disk.Misses, so
	// the accounting identity holds on a failing disk.
	DiskErrors int64
	// Simulations counts cells that ran the simulator — the work the
	// cache exists to avoid.
	Simulations int64
	// Schema is the cell-key content-address schema version (KeySchema):
	// which digest namespace this engine reads and writes.
	Schema int
}

// Stats returns a snapshot of the cache counters.
func (e *Engine) Stats() CacheStats {
	e.mu.Lock()
	hits, misses, joins := e.hits, e.misses, e.joins
	evict := e.cache.Dropped()
	e.mu.Unlock()
	st := CacheStats{
		Hits:   hits,
		Joins:  joins,
		Misses: misses,
		Memory: TierStats{Hits: hits, Misses: misses, Evictions: evict},
		Disk: TierStats{
			Hits:   e.diskHits.Load(),
			Misses: e.diskMisses.Load(),
		},
		DiskErrors:  e.diskErrors.Load(),
		Simulations: e.simulations.Load(),
		Schema:      KeySchema,
	}
	if ds := e.Store(); ds != nil {
		dst := ds.Stats()
		st.Disk.Evictions = dst.Evictions
		st.Disk.Quarantined = dst.Quarantined
	}
	return st
}

// ResetCache drops all memoized results and zeroes this engine's
// counters. An attached persistent store is NOT cleared — its entries
// and eviction history outlive any one engine by design.
func (e *Engine) ResetCache() {
	e.mu.Lock()
	e.cache = memo.New[CellKey, *cellEntry](maxMemoCells)
	e.hits = 0
	e.misses = 0
	e.joins = 0
	e.mu.Unlock()
	e.diskHits.Store(0)
	e.diskMisses.Store(0)
	e.diskErrors.Store(0)
	e.simulations.Store(0)
}

// Map runs fn(0..n-1) on up to workers goroutines and returns the results
// in index order. Every index is attempted; on failure the error returned
// is the lowest-index one — exactly what a sequential loop that stops at
// the first failing point would report. It is the fan-out helper for
// work that is not a sweep cell (the ablations); grids run on the
// hardened pool (runKeys).
func Map[T any](workers, n int, fn func(int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	errs := make([]error, n)
	if poolSize(workers, n) == 1 {
		// Inline, so a single-worker run does not allocate the closure
		// the pool needs.
		for i := range out {
			out[i], errs[i] = fn(i)
		}
	} else {
		forEach(workers, n, func(i int) { out[i], errs[i] = fn(i) })
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// forEach is the engine's one worker pool: it calls fn(0..n-1), each
// index exactly once, on up to workers goroutines (<= 0 = GOMAXPROCS)
// that pull indices from a shared counter, and returns when every call
// has. A single worker runs inline on the caller's goroutine.
func forEach(workers, n int, fn func(int)) {
	workers = poolSize(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// poolSize resolves a worker bound for n tasks: <= 0 means GOMAXPROCS,
// and there are never more workers than tasks.
func poolSize(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}
