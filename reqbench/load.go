package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mlperf/internal/serve"
	"mlperf/internal/sweep"
)

// request is one call the benchmark sends to the front.
type request struct {
	// uri is the path and query on the front.
	uri string
	// keys are the normalized cells the response must carry, in order.
	keys []sweep.CellKey
	// kind selects the response decoding: unary sweep, single-cell
	// simulate or NDJSON stream.
	kind requestKind
	// err reports a request the generator could not build.
	err error
}

type requestKind int

const (
	kindSweep requestKind = iota
	kindSimulate
	kindStream
)

// clientSpan is a measured request as the client saw it, on the clock
// the traced stack's spans use: from the send until the body was read.
type clientSpan struct{ start, end float64 }

// driver sends the requests and checks every response.
type driver struct {
	client *http.Client
	run    uint64 // high half of every trace ID, drawn from the seed
	seq    atomic.Uint64
	clock  func() float64 // nil: client spans are not kept

	mu        sync.Mutex
	lat       []time.Duration // from its due time until its response was read, per measured request that succeeded
	late      []time.Duration // how long after its due time each measured request was sent
	spans     map[string]clientSpan
	attempted int
	failed    int
	firstErr  error
	answers   *answerSet
}

func newDriver(seed int64, clock func() float64) *driver {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	tp.MaxIdleConnsPerHost = 64
	return &driver{
		client:  &http.Client{Transport: tp, Timeout: 60 * time.Second},
		run:     uint64(seed)<<1 | 1, // never zero: an all-zero trace ID is invalid
		clock:   clock,
		spans:   map[string]clientSpan{},
		answers: newAnswerSet(seed),
	}
}

// drive sends the plan's requests from start until until, each at its
// due time on its own goroutine, as serve.RunLoad does. Requests due from
// measureFrom on are measured. It returns once every response has been
// read and checked.
func (d *driver) drive(base string, p *plan, rng *rand.Rand, start, measureFrom, until time.Time) {
	var wg sync.WaitGroup
	due := start
	for {
		due = due.Add(time.Duration(rng.ExpFloat64() / p.rate * float64(time.Second)))
		if !due.Before(until) {
			break
		}
		req := p.next(rng)
		time.Sleep(time.Until(due))
		measured := !due.Before(measureFrom)
		wg.Add(1)
		go func(due time.Time) {
			defer wg.Done()
			d.send(base, req, due, measured)
		}(due)
	}
	wg.Wait()
}

// send issues one request and checks its response outside the timed
// span. A measured request's latency runs from its due time, so time
// the generator spent late counts against it.
func (d *driver) send(base string, req request, due time.Time, measured bool) {
	n := d.seq.Add(1)
	traceID := fmt.Sprintf("%016x%016x", d.run, n)
	start := time.Now()
	var at float64
	if d.clock != nil {
		at = d.clock()
	}
	status, body, err := d.do(base+req.uri, traceID, n)
	end := time.Now()
	if req.err != nil {
		err = req.err
	}
	if err == nil {
		err = d.check(req, status, body, measured)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !measured {
		// The harness aborts the run on an unmeasured failure.
		if err != nil && d.firstErr == nil {
			d.firstErr = fmt.Errorf("unmeasured %s: %w", req.uri, err)
		}
		return
	}
	d.attempted++
	if err != nil {
		d.failed++
		if d.firstErr == nil {
			d.firstErr = fmt.Errorf("%s: %w", req.uri, err)
		}
		return
	}
	d.lat = append(d.lat, end.Sub(due))
	d.late = append(d.late, start.Sub(due))
	if d.clock != nil {
		d.spans[traceID] = clientSpan{start: at, end: d.clock()}
	}
}

func (d *driver) do(url, traceID string, n uint64) (int, []byte, error) {
	r, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	r.Header.Set("traceparent", fmt.Sprintf("00-%s-%016x-01", traceID, n))
	// The CI load jobs propagate a 5 s deadline (-timeout 5s).
	r.Header.Set("Request-Timeout", "5")
	resp, err := d.client.Do(r)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// check verifies a response's shape against the cells it was asked for
// and files its records for the value checks.
func (d *driver) check(req request, status int, body []byte, measured bool) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var recs []sweep.Record
	switch req.kind {
	case kindSimulate:
		var out struct {
			Record sweep.Record `json:"record"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return err
		}
		recs = []sweep.Record{out.Record}
	case kindSweep:
		var out serve.SweepResponse
		if err := json.Unmarshal(body, &out); err != nil {
			return err
		}
		if out.Partial || out.Canceled || out.Completed != len(req.keys) {
			return fmt.Errorf("incomplete sweep: %d of %d cells, failures %v", out.Completed, len(req.keys), out.Failures)
		}
		recs = out.Records
	case kindStream:
		var err error
		if recs, err = decodeStream(body, len(req.keys)); err != nil {
			return err
		}
	}
	if len(recs) != len(req.keys) {
		return fmt.Errorf("%d records for %d cells", len(recs), len(req.keys))
	}
	for i, k := range req.keys {
		r := recs[i]
		if r.Benchmark != k.Benchmark || r.System != k.System || r.GPUs != k.GPUs || r.Precision != k.Precision ||
			(k.Batch != 0 && r.Batch != k.Batch) {
			return fmt.Errorf("cell %d: got %s/%s@%d batch %d %s, want %s/%s@%d batch %d %s", i,
				r.Benchmark, r.System, r.GPUs, r.Batch, r.Precision, k.Benchmark, k.System, k.GPUs, k.Batch, k.Precision)
		}
		if err := d.answers.add(k, r, measured); err != nil {
			return err
		}
	}
	return nil
}

// decodeStream reassembles an NDJSON stream's record frames by grid
// index and checks its summary frame.
func decodeStream(body []byte, cells int) ([]sweep.Record, error) {
	recs := make([]sweep.Record, cells)
	got := make([]bool, cells)
	sawSummary := false
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		var fr serve.StreamFrame
		if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
			return nil, fmt.Errorf("bad frame: %w", err)
		}
		switch fr.Type {
		case "record":
			if fr.Index < 0 || fr.Index >= cells || got[fr.Index] || fr.Record == nil {
				return nil, fmt.Errorf("bad record frame index %d", fr.Index)
			}
			recs[fr.Index], got[fr.Index] = *fr.Record, true
		case "summary":
			if fr.Partial || fr.Completed != cells {
				return nil, fmt.Errorf("incomplete stream: %d of %d cells, failures %v", fr.Completed, cells, fr.Failures)
			}
			sawSummary = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawSummary {
		return nil, fmt.Errorf("stream ended without a summary frame")
	}
	for i, ok := range got {
		if !ok {
			return nil, fmt.Errorf("stream missing cell %d", i)
		}
	}
	return recs, nil
}

// answerSet holds the records kept for the value checks. For a fixed
// eighth of all cells (by key hash) every answer in the run must be the
// same record. Independently, a seeded reservoir samples uniformly over
// every cell answer of the measured window; after the run those records
// are recomputed without the serving stack and compared.
type answerSet struct {
	mu      sync.Mutex
	seen    map[sweep.CellKey]sweep.Record
	rng     *rand.Rand
	offered int
	sample  []answer
}

type answer struct {
	key sweep.CellKey
	rec sweep.Record
}

// maxChecked is the reservoir's size, which bounds the reference
// check's time after the measured window.
const maxChecked = 3000

func newAnswerSet(seed int64) *answerSet {
	return &answerSet{seen: map[sweep.CellKey]sweep.Record{}, rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
}

func (a *answerSet) add(k sweep.CellKey, r sweep.Record, measured bool) error {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s|%s|%d|%d|%s", k.Benchmark, k.System, k.GPUs, k.Batch, k.Precision)
	a.mu.Lock()
	defer a.mu.Unlock()
	if h.Sum32()%8 == 0 {
		if prev, ok := a.seen[k]; ok && prev != r {
			return fmt.Errorf("cell %+v answered two different records", k)
		}
		a.seen[k] = r
	}
	if !measured {
		return nil
	}
	a.offered++
	if len(a.sample) < maxChecked {
		a.sample = append(a.sample, answer{k, r})
	} else if i := a.rng.Intn(a.offered); i < maxChecked {
		a.sample[i] = answer{k, r}
	}
	return nil
}

// verify recomputes every sampled cell on a fresh engine with no cache
// tiers and no HTTP in between, and reports the first disagreement. It
// returns how many answers it compared.
func (a *answerSet) verify(ctx context.Context) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	index := map[sweep.CellKey]int{}
	var keys []sweep.CellKey
	for _, s := range a.sample {
		if _, ok := index[s.key]; !ok {
			index[s.key] = len(keys)
			keys = append(keys, s.key)
		}
	}
	ref, _, err := sweep.NewEngine(1).RunCellsWithOptions(ctx, keys, sweep.Options{})
	if err != nil {
		return 0, fmt.Errorf("reference: %w", err)
	}
	for _, s := range a.sample {
		if want := ref[index[s.key]]; want != s.rec {
			return 0, fmt.Errorf("cell %+v: served %+v, reference %+v", s.key, s.rec, want)
		}
	}
	return len(a.sample), nil
}
