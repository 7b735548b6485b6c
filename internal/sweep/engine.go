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

	// simulate is the cell evaluator — RunCell under sim.FastPathAuto in
	// production, swappable in tests to pin a fast-path mode or to
	// exercise panic containment and cancellation.
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

	// The engine counts each cache event once, here; an attached
	// registry reads these counters (SetTelemetry). diskHits/diskMisses
	// count second-tier traffic and diskGetErrors/diskPutErrors its
	// failed operations; simulations counts cells that actually ran the
	// simulator (a memory miss promoted from disk is NOT a simulation —
	// that distinction is the whole point of the persistent tier, and CI
	// asserts it).
	diskHits      atomic.Int64
	diskMisses    atomic.Int64
	diskGetErrors atomic.Int64
	diskPutErrors atomic.Int64
	simulations   atomic.Int64

	mu sync.Mutex
	// cache memoizes cells, at most maxMemoCells of them. Its length is
	// NOT the miss count: rotations drop entries, so misses get their own
	// monotone counter below. hits, misses and joins change under mu, so
	// Stats reads them as one consistent set.
	cache  *memo.Map[CellKey, *cellEntry]
	hits   atomic.Int64
	misses atomic.Int64
	joins  atomic.Int64
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
	e.simulate = func(k CellKey) (Record, error) { return RunCell(k, sim.FastPathAuto) }
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

// SetTelemetry attaches (or, with nil, detaches) a metrics registry.
// Attaching registers the cache series (MetricCacheTotal,
// MetricDiskCacheTotal, MetricDiskErrors) as read-through counters over
// the engine's own counts, so they appear at once, read 0 until traffic
// arrives and cost a cell nothing; a registry reads one engine, the
// last one attached. While attached, the engine also publishes
// per-cell latency histograms, failure counters, worker-pool occupancy
// and one span per simulated cell. Detached (the default), every
// telemetry call is a nil no-op and results are byte-identical to an
// engine that never heard of telemetry.
func (e *Engine) SetTelemetry(reg *telemetry.Registry) {
	hit, miss := telemetry.L("result", "hit"), telemetry.L("result", "miss")
	reg.CounterFunc(MetricCacheTotal, e.hits.Load, hit)
	reg.CounterFunc(MetricCacheTotal, e.misses.Load, miss)
	reg.CounterFunc(MetricDiskCacheTotal, e.diskHits.Load, hit)
	reg.CounterFunc(MetricDiskCacheTotal, e.diskMisses.Load, miss)
	reg.CounterFunc(MetricDiskErrors, e.diskGetErrors.Load, telemetry.L("op", "get"))
	reg.CounterFunc(MetricDiskErrors, e.diskPutErrors.Load, telemetry.L("op", "put"))
	e.tel.Store(reg)
}

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
		e.misses.Add(1)
	} else {
		e.hits.Add(1)
		if !en.settled.Load() {
			e.joins.Add(1)
		}
	}
	e.mu.Unlock()
	return en
}

// fill settles en exactly once and waits for it: from the disk tier when
// the store holds the cell, else by simulating it. The simulation runs
// panic-guarded: a panicking cell settles its entry with a *PanicError
// instead of unwinding through the worker pool. A failed store Get or
// Put is counted, and that is all: the tier is an accelerator, so a
// failed Get reads as a disk miss and a failed Put drops the write, and
// neither fails the cell.
func (e *Engine) fill(en *cellEntry, k CellKey, parent telemetry.SpanID) {
	reg := e.tel.Load()
	en.once.Do(func() {
		defer en.settled.Store(true)
		// Second tier: a disk hit promotes into the memory map without
		// simulating. Only verified content comes back from the store, so
		// this branch can change wall time but never records.
		if ds := e.Store(); ds != nil {
			rec, ok, err := ds.Get(k)
			if err != nil {
				e.diskGetErrors.Add(1)
			}
			if ok {
				e.diskHits.Add(1)
				en.rec, en.err = rec, nil
				return
			}
			e.diskMisses.Add(1)
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
			if ds := e.Store(); ds != nil && ds.Put(k, en.rec) != nil {
				e.diskPutErrors.Add(1)
			}
		}
	})
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
	hits, misses, joins := e.hits.Load(), e.misses.Load(), e.joins.Load()
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
		DiskErrors:  e.diskGetErrors.Load() + e.diskPutErrors.Load(),
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
