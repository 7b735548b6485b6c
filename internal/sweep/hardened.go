package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"mlperf/internal/telemetry"
)

// FailKind classifies why a cell failed.
type FailKind string

const (
	// FailError is an ordinary simulation/validation error.
	FailError FailKind = "error"
	// FailPanic is a panic recovered inside the cell's worker.
	FailPanic FailKind = "panic"
	// FailCanceled is a cell abandoned because the grid's context was
	// canceled, or its deadline passed, before the cell settled.
	FailCanceled FailKind = "canceled"
)

// CellError is one failed cell of a hardened run: which cell, where in
// the grid and how it failed. It wraps the underlying error for
// errors.Is/As.
type CellError struct {
	// Key is the normalized cell configuration.
	Key CellKey
	// Index is the cell's position in the grid's deterministic order.
	Index int
	// Kind classifies the failure.
	Kind FailKind
	// Err is the cell's error.
	Err error
}

func (c *CellError) Error() string {
	return fmt.Sprintf("sweep: cell %d (%s on %s @%d) %s: %v",
		c.Index, c.Key.Benchmark, c.Key.System, c.Key.GPUs, c.Kind, c.Err)
}

func (c *CellError) Unwrap() error { return c.Err }

// PanicError is a panic recovered in a sweep worker, preserved with its
// stack so a misbehaving cell is diagnosable instead of fatal.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (p *PanicError) Error() string { return fmt.Sprintf("sweep: cell panicked: %v", p.Value) }

// safeCell runs one cell evaluation with panic recovery: a panic
// becomes a *PanicError result instead of crashing the process.
func safeCell(fn func(CellKey) (Record, error), k CellKey) (rec Record, err error) {
	defer func() {
		if v := recover(); v != nil {
			rec, err = Record{}, &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(k)
}

// Options harden a grid run on the engine's worker pool. Every cell
// gets exactly one attempt: the simulator is deterministic, so a second
// attempt would redo the same work and fail the same way. A run is
// bounded only through its context (a caller's deadline or interrupt),
// never by a per-cell clock, so a cell's outcome depends on its inputs.
// The zero value fails the run on the first (lowest-index) error — what
// Engine.Run uses.
type Options struct {
	// Partial selects graceful degradation: every cell is attempted,
	// failures land in the Report, and the record slice holds the
	// successes (zero Records at failed indices). When false the run
	// returns the lowest-index failure as its error, like Engine.Run.
	Partial bool
	// OnCell, when non-nil, is invoked exactly once per cell the moment
	// it settles (success or failure) — the completion stream a serving
	// layer forwards to clients while the grid is still running. Calls
	// arrive from worker goroutines concurrently and in completion
	// order, not index order (CellDone.Index identifies the cell).
	// Cells never attempted (run canceled first) get no call —
	// they appear only in the final Report. OnCell must not block for
	// long: it runs on the worker that finished the cell.
	OnCell func(CellDone)
}

// CellDone is one settled cell of a streaming run, as delivered to
// Options.OnCell.
type CellDone struct {
	// Index is the cell's position in the grid's deterministic order.
	Index int
	// Key is the normalized cell configuration.
	Key CellKey
	// Record is the cell's result (zero when Err != nil).
	Record Record
	// Err is the cell's failure (nil on success).
	Err *CellError
}

// Report is the structured outcome of a hardened run.
type Report struct {
	// Cells is the grid's cell count.
	Cells int
	// Completed counts cells that produced a record.
	Completed int
	// Canceled reports whether the run's context was canceled before
	// every cell completed.
	Canceled bool
	// Failures holds one CellError per failed cell, in grid order.
	Failures []*CellError
}

// Failed reports whether any cell failed.
func (r *Report) Failed() bool { return len(r.Failures) > 0 }

// Err summarizes the failures as one error (nil when all cells
// completed).
func (r *Report) Err() error {
	if !r.Failed() {
		return nil
	}
	return fmt.Errorf("sweep: %d of %d cells failed (first: %w)", len(r.Failures), r.Cells, r.Failures[0])
}

// classify maps an error to its FailKind.
func classify(err error) FailKind {
	var p *PanicError
	switch {
	case errors.As(err, &p):
		return FailPanic
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return FailCanceled
	default:
		return FailError
	}
}

// RunWithOptions executes the grid on the worker pool with panic
// containment and cooperative cancellation. Records come back in the
// grid's deterministic order. With opts.Partial the run always returns
// every cell it could complete plus a Report of the rest; without it
// the first (lowest-index) failure aborts the result like Engine.Run.
func (e *Engine) RunWithOptions(ctx context.Context, g Grid, opts Options) ([]Record, *Report, error) {
	keys, err := expand(g)
	if err != nil {
		return nil, nil, err
	}
	return e.runKeys(ctx, keys, opts)
}

// RunCellsWithOptions is RunWithOptions over an explicit cell list
// (keys may use any accepted spelling).
func (e *Engine) RunCellsWithOptions(ctx context.Context, keys []CellKey, opts Options) ([]Record, *Report, error) {
	norm := make([]CellKey, len(keys))
	for i, k := range keys {
		nk, err := k.Normalize()
		if err != nil {
			return nil, nil, err
		}
		norm[i] = nk
	}
	return e.runKeys(ctx, norm, opts)
}

// runKeys is the shared body of RunWithOptions and RunCellsWithOptions:
// one run span around the hardened pool, then the Partial/first-failure
// decision. keys must be normalized.
func (e *Engine) runKeys(ctx context.Context, keys []CellKey, opts Options) ([]Record, *Report, error) {
	run, finish := e.startRunSpan(ctx, len(keys))
	defer finish()
	recs, report := e.runHardened(ctx, keys, opts, run)
	if !opts.Partial {
		if err := firstFailure(report); err != nil {
			return nil, report, err
		}
	}
	return recs, report, nil
}

// firstFailure returns the lowest-index cell error, matching the
// deterministic error a sequential loop would stop at.
func firstFailure(r *Report) error {
	if !r.Failed() {
		return nil
	}
	return r.Failures[0]
}

// runHardened is the hardened pool: the engine's worker pool runs each
// cell once under the run's context, and cancellation drains the pool,
// marking unreached cells canceled. run is the span every cell span
// parents under.
func (e *Engine) runHardened(ctx context.Context, keys []CellKey, opts Options, run telemetry.SpanID) ([]Record, *Report) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(keys)
	recs := make([]Record, n)
	cellErrs := make([]*CellError, n)
	attempted := make([]bool, n)

	forEach(e.WorkerCount(), n, func(i int) {
		if ctx.Err() != nil {
			return
		}
		attempted[i] = true
		recs[i], cellErrs[i] = e.runHardenedCell(ctx, keys[i], i, run)
		if opts.OnCell != nil {
			opts.OnCell(CellDone{Index: i, Key: keys[i], Record: recs[i], Err: cellErrs[i]})
		}
	})

	report := &Report{Cells: n, Canceled: ctx.Err() != nil}
	for i := range keys {
		if !attempted[i] {
			cellErrs[i] = &CellError{
				Key: keys[i], Index: i, Kind: FailCanceled, Err: context.Cause(ctx),
			}
		}
		if cellErrs[i] != nil {
			report.Failures = append(report.Failures, cellErrs[i])
		} else {
			report.Completed++
		}
	}
	return recs, report
}

// runHardenedCell runs one cell and counts a failure under its kind.
// run is the span the cell span attaches under.
func (e *Engine) runHardenedCell(ctx context.Context, k CellKey, i int, run telemetry.SpanID) (Record, *CellError) {
	rec, err := e.attemptCell(ctx, k, run)
	if err == nil {
		return rec, nil
	}
	kind := classify(err)
	e.tel.Load().Counter(MetricFailures, telemetry.L("kind", string(kind))).Inc()
	return Record{}, &CellError{Key: k, Index: i, Kind: kind, Err: err}
}

// attemptCell runs one cell under the run's context. A cell already
// settled in the memo returns its record without a goroutine. An
// unsettled cell under a cancellable context fills on its own goroutine
// so that cancellation answers at once; a CPU-bound cell cannot be
// interrupted, so the fill runs on and its result stays in the memo,
// where the next request for the cell joins it. A cell that settled
// before the cancellation was seen returns its record: the result wins.
func (e *Engine) attemptCell(ctx context.Context, k CellKey, run telemetry.SpanID) (Record, error) {
	en := e.entry(k)
	switch {
	case en.settled.Load():
	case ctx.Done() == nil:
		e.fill(en, k, run)
	default:
		done := make(chan struct{})
		go func() {
			e.fill(en, k, run)
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			if !en.settled.Load() {
				return Record{}, context.Cause(ctx)
			}
		}
	}
	return en.rec, en.err
}
