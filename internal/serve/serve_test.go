package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mlperf/internal/sweep"
	"mlperf/internal/telemetry"
)

// gateStore is a sweep.Store whose lookups park on a gate — a
// controllable stand-in for a slow dependency, so tests can hold
// requests "executing" for as long as they need.
type gateStore struct {
	gate    chan struct{}
	blockOn func(sweep.CellKey) bool // nil = block every lookup
	entered chan sweep.CellKey       // one signal per parked lookup
}

func newGateStore(blockOn func(sweep.CellKey) bool) *gateStore {
	return &gateStore{
		gate:    make(chan struct{}),
		blockOn: blockOn,
		entered: make(chan sweep.CellKey, 64),
	}
}

func (g *gateStore) Get(k sweep.CellKey) (sweep.Record, bool, error) {
	if g.blockOn == nil || g.blockOn(k) {
		select {
		case g.entered <- k:
		default:
		}
		<-g.gate
	}
	return sweep.Record{}, false, nil
}
func (g *gateStore) Put(sweep.CellKey, sweep.Record) error { return nil }
func (g *gateStore) Stats() sweep.TierStats                { return sweep.TierStats{} }

func newTestServer(t *testing.T, cfg Config, gs *gateStore) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = sweep.NewEngine(4)
	}
	if gs != nil {
		cfg.Engine.SetStore(gs)
	}
	if cfg.TenantRate == 0 {
		cfg.TenantRate = -1 // most tests exercise admission, not quotas
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func get(t *testing.T, url string, hdr ...string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), resp.Header
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// Overload must produce clean, typed 429s with Retry-After — never 5xx,
// never unbounded queueing. This is the acceptance scenario at 2x the
// admission limit, made deterministic: fill the slots, fill the queue,
// then watch everything beyond shed instantly.
func TestServerShedsUnderOverloadNever5xx(t *testing.T) {
	gs := newGateStore(nil)
	srv, ts := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: 1}, gs)

	statuses := make(chan int, 3)
	for i := 0; i < 2; i++ {
		go func(i int) {
			code, _, _ := get(t, fmt.Sprintf("%s/v1/simulate?benchmark=res50_tf&batch=%d", ts.URL, 100+i))
			statuses <- code
		}(i)
	}
	<-gs.entered
	<-gs.entered // both slots held, parked in the slow dependency

	go func() {
		code, _, _ := get(t, ts.URL+"/v1/simulate?benchmark=res50_tf&batch=102")
		statuses <- code
	}()
	waitFor(t, "third request to queue", func() bool { return srv.adm.queued.Load() == 1 })

	// Queue full: requests 4-6 must shed on the spot.
	for i := 0; i < 3; i++ {
		code, body, hdr := get(t, fmt.Sprintf("%s/v1/simulate?benchmark=res50_tf&batch=%d", ts.URL, 200+i))
		if code != http.StatusTooManyRequests {
			t.Fatalf("overload request %d: status %d (%s), want 429", i, code, strings.TrimSpace(body))
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatal("shed response missing Retry-After")
		}
	}

	close(gs.gate)
	for i := 0; i < 3; i++ {
		if code := <-statuses; code != http.StatusOK {
			t.Fatalf("admitted request finished with %d, want 200", code)
		}
	}
	st := srv.Snapshot()
	if st.Shed != 3 {
		t.Fatalf("snapshot shed = %d, want 3", st.Shed)
	}
	if st.Panics != 0 || st.Requests != 6 {
		t.Fatalf("snapshot %+v: want 6 requests, 0 panics", st)
	}
}

// Admission bounds requests, not cells: a full-size sweep is admitted
// into a free slot while a 1-cell request is still executing, instead
// of waiting for the small one's cells to leave an in-flight budget.
func TestFullSizeSweepNotStarvedBySmallRequests(t *testing.T) {
	gs := newGateStore(func(k sweep.CellKey) bool { return k.Batch == 99 })
	openGate := sync.OnceFunc(func() { close(gs.gate) })
	defer openGate()
	srv, ts := newTestServer(t, Config{}, gs)

	small := make(chan int, 1)
	go func() {
		code, _, _ := get(t, ts.URL+"/v1/simulate?benchmark=res50_tf&batch=99")
		small <- code
	}()
	<-gs.entered // the 1-cell request holds a slot, parked in the store

	body := `{"cells":[` + strings.Repeat(`{"benchmark":"ncf_py"},`, MaxRequestCells-1) + `{"benchmark":"ncf_py"}]}`
	code, resp, _ := post(t, ts.URL+"/v1/sweep", body, "Request-Timeout", "2")
	if code != http.StatusOK {
		t.Fatalf("full-size sweep beside a 1-cell request: status %d (%.200q), want 200", code, resp)
	}
	var sr SweepResponse
	if err := json.Unmarshal([]byte(resp), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Partial || sr.Cells != MaxRequestCells || sr.Completed != MaxRequestCells || len(sr.Records) != MaxRequestCells {
		t.Fatalf("sweep answered %d/%d cells (%d records, partial %v), want all %d",
			sr.Completed, sr.Cells, len(sr.Records), sr.Partial, MaxRequestCells)
	}
	if st := srv.Snapshot(); st.Shed != 0 || st.Cache.Simulations != 1 {
		t.Fatalf("shed %d, simulations %d: want 0 sheds and the sweep's one simulation", st.Shed, st.Cache.Simulations)
	}

	openGate()
	if code := <-small; code != http.StatusOK {
		t.Fatalf("1-cell request finished with %d, want 200", code)
	}
}

// Identical concurrent queries must collapse onto one computation: the
// engine runs the cell once and every other caller joins it in flight.
func TestServerCoalescesIdenticalQueries(t *testing.T) {
	gs := newGateStore(nil)
	srv, ts := newTestServer(t, Config{}, gs)

	const callers = 5
	var wg sync.WaitGroup
	bodies := make([]string, callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			code, body, _ := get(t, ts.URL+"/v1/simulate?benchmark=res50_tf&gpus=4")
			if code != http.StatusOK {
				t.Errorf("caller %d: status %d (%s)", i, code, strings.TrimSpace(body))
			}
			bodies[i] = body
		}(i)
	}
	// One caller misses and parks in the store; wait until every other
	// caller has found its entry in the memo before letting it finish.
	waitFor(t, "all callers on one cell", func() bool { return srv.Engine().Stats().Hits == callers-1 })
	close(gs.gate)
	wg.Wait()

	for i := 1; i < callers; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("caller %d got a different payload than caller 0", i)
		}
	}
	st := srv.Snapshot()
	if st.Coalesced != callers-1 {
		t.Fatalf("coalesced = %d, want %d (identical concurrent queries must share one simulation)",
			st.Coalesced, callers-1)
	}
	if sims := st.Cache.Simulations; sims != 1 {
		t.Fatalf("engine ran %d simulations for %d identical requests, want 1", sims, callers)
	}
}

// Drain: the instant Drain begins, /readyz flips and new API
// requests get clean 503s — while requests already executing run to
// completion.
func TestServerDrainRefusesNewFinishesInFlight(t *testing.T) {
	gs := newGateStore(nil)
	srv, ts := newTestServer(t, Config{}, gs)

	inflight := make(chan int, 1)
	go func() {
		code, _, _ := get(t, ts.URL+"/v1/simulate?benchmark=res50_tf&gpus=2")
		inflight <- code
	}()
	<-gs.entered

	shutCtx, stopShutdown := context.WithCancel(context.Background())
	defer stopShutdown()
	srv.Drain(shutCtx)
	waitFor(t, "drain to begin", func() bool { return srv.Draining() })

	if code, _, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", code)
	}
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatal("liveness must stay green during drain")
	}
	code, body, hdr := get(t, ts.URL+"/v1/simulate?benchmark=ncf_py")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("new request during drain = %d (%s), want 503", code, strings.TrimSpace(body))
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("drain refusal missing Retry-After")
	}

	close(gs.gate)
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request during drain finished with %d, want 200", code)
	}
}

// One impatient caller must not kill the simulation a patient identical
// caller is waiting on: the short deadline gets its 408, the patient
// caller gets a 200 from the same single simulation.
func TestServerSurvivorKeepsSimulationAlive(t *testing.T) {
	gs := newGateStore(nil)
	openGate := sync.OnceFunc(func() { close(gs.gate) })
	defer openGate()
	srv, ts := newTestServer(t, Config{}, gs)

	const url = "/v1/simulate?benchmark=res50_tf&gpus=2"
	short := make(chan int, 1)
	go func() {
		code, _, _ := get(t, ts.URL+url+"&timeout=0.2")
		short <- code
	}()
	<-gs.entered // the short caller's simulation is in flight
	patient := make(chan string, 1)
	go func() {
		code, body, _ := get(t, ts.URL+url)
		if code != http.StatusOK {
			t.Errorf("patient caller: status %d (%s), want 200", code, strings.TrimSpace(body))
		}
		patient <- body
	}()
	waitFor(t, "patient caller to join", func() bool { return srv.Engine().Stats().Joins == 1 })

	if code := <-short; code != http.StatusRequestTimeout {
		t.Fatalf("short-deadline caller: status %d, want 408", code)
	}
	openGate()
	if body := <-patient; !strings.Contains(body, `"record"`) {
		t.Fatalf("patient caller got no record: %s", body)
	}
	if sims := srv.Snapshot().Cache.Simulations; sims != 1 {
		t.Fatalf("%d simulations, want 1 shared by both callers", sims)
	}
}

// A drain deadline that expires mid-sweep cancels the admitted unary
// sweep, which answers 200 with the cells that completed.
func TestServerDrainDeadlineReturnsPartialSweep(t *testing.T) {
	gs := newGateStore(func(k sweep.CellKey) bool { return k.Batch == 99 })
	defer close(gs.gate)
	srv, ts := newTestServer(t, Config{}, gs)

	type answer struct {
		code int
		body string
	}
	done := make(chan answer, 1)
	go func() {
		code, body, _ := get(t, ts.URL+"/v1/sweep?benchmarks=res50_tf&gpus=1&batches=32,99")
		done <- answer{code, body}
	}()
	<-gs.entered // the batch-99 cell is parked; no client deadline applies

	shutCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	srv.Drain(shutCtx)

	var got answer
	select {
	case got = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("drain deadline expired but the sweep is still running")
	}
	if got.code != http.StatusOK {
		t.Fatalf("drain-cut sweep status %d (%s), want 200", got.code, strings.TrimSpace(got.body))
	}
	var resp SweepResponse
	if err := json.Unmarshal([]byte(got.body), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Partial || !resp.Canceled || resp.Cells != 2 || resp.Completed != 1 {
		t.Fatalf("partial=%v canceled=%v cells=%d completed=%d, want true/true/2/1",
			resp.Partial, resp.Canceled, resp.Cells, resp.Completed)
	}
	if resp.Records[0].TimeToTrainMin <= 0 {
		t.Fatalf("completed cell's record missing: %+v", resp.Records)
	}
}

// A client deadline mid-sweep must come back as a 200 with the partial
// flag and the completed cells — the engine's Partial/Report contract
// over the wire, not a timeout error that throws away finished work.
func TestServerDeadlineReturnsPartialSweep(t *testing.T) {
	gs := newGateStore(func(k sweep.CellKey) bool { return k.Batch == 99 })
	defer close(gs.gate)
	srv, ts := newTestServer(t, Config{}, gs)

	code, body, _ := get(t, ts.URL+"/v1/sweep?benchmarks=res50_tf&gpus=1&batches=32,99&timeout=0.3")
	if code != http.StatusOK {
		t.Fatalf("partial sweep status %d (%s), want 200", code, strings.TrimSpace(body))
	}
	var resp struct {
		Records   []sweep.Record `json:"records"`
		Cells     int            `json:"cells"`
		Completed int            `json:"completed"`
		Partial   bool           `json:"partial"`
		Canceled  bool           `json:"canceled"`
		Failures  []string       `json:"failures"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Partial || !resp.Canceled {
		t.Fatalf("partial=%v canceled=%v, want both true", resp.Partial, resp.Canceled)
	}
	if resp.Cells != 2 || resp.Completed != 1 || len(resp.Failures) != 1 {
		t.Fatalf("cells=%d completed=%d failures=%d, want 2/1/1",
			resp.Cells, resp.Completed, len(resp.Failures))
	}
	if len(resp.Records) != 2 || resp.Records[0].TimeToTrainMin <= 0 {
		t.Fatalf("completed cell's record missing: %+v", resp.Records)
	}
	if resp.Records[1].TimeToTrainMin != 0 {
		t.Fatalf("canceled cell has a record: %+v", resp.Records[1])
	}
	if st := srv.Snapshot(); st.Partials != 1 {
		t.Fatalf("partials counter = %d, want 1", st.Partials)
	}
}

// Per-tenant token buckets: a noisy tenant exhausts its own budget and
// gets 429s while other tenants' requests still flow.
func TestServerTenantQuota(t *testing.T) {
	srv, ts := newTestServer(t, Config{TenantRate: 1}, nil) // a burst of 2
	_ = srv

	for i := 0; i < 2; i++ {
		code, body, _ := get(t, ts.URL+"/v1/simulate?benchmark=res50_tf", "X-Tenant", "noisy")
		if code != http.StatusOK {
			t.Fatalf("burst request %d: status %d (%s)", i, code, strings.TrimSpace(body))
		}
	}
	code, _, hdr := get(t, ts.URL+"/v1/simulate?benchmark=res50_tf", "X-Tenant", "noisy")
	if code != http.StatusTooManyRequests {
		t.Fatalf("noisy tenant's third request = %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("quota refusal missing Retry-After")
	}
	if code, _, _ := get(t, ts.URL+"/v1/simulate?benchmark=res50_tf", "X-Tenant", "calm"); code != http.StatusOK {
		t.Fatalf("calm tenant starved by noisy one: %d", code)
	}
}

// A panicking computation is contained to a 500 for that request; the
// daemon keeps serving.
func TestServerPanicContainedToOneRequest(t *testing.T) {
	srv, err := New(Config{Engine: sweep.NewEngine(2), TenantRate: -1})
	if err != nil {
		t.Fatal(err)
	}
	var fn func(ctx context.Context) (any, int, error)
	srv.mux.HandleFunc("/test/query", func(w http.ResponseWriter, r *http.Request) {
		srv.runQuery(w, r, 1, fn)
	})
	query := func(f func(ctx context.Context) (any, int, error)) *httptest.ResponseRecorder {
		fn = f
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/test/query", nil))
		return rr
	}
	rr := query(func(ctx context.Context) (any, int, error) {
		panic("boom")
	})
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("panicking query status %d, want 500", rr.Code)
	}
	if st := srv.Snapshot(); st.Panics != 1 {
		t.Fatalf("panics counter = %d, want 1", st.Panics)
	}

	rr = query(func(ctx context.Context) (any, int, error) {
		return map[string]string{"ok": "yes"}, http.StatusOK, nil
	})
	if rr.Code != http.StatusOK {
		t.Fatalf("server not serving after a contained panic: %d", rr.Code)
	}
}

// The observability surface: /metrics exposes the serve_* schema,
// /v1/stats parses as Stats, and FillManifest records the run.
func TestServerObservabilitySurface(t *testing.T) {
	srv, ts := newTestServer(t, Config{}, nil)

	if code, _, _ := get(t, ts.URL+"/v1/simulate?benchmark=res50_tf"); code != http.StatusOK {
		t.Fatalf("simulate = %d", code)
	}
	code, body, _ := get(t, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, MetricRequests) {
		t.Fatalf("/metrics missing %s (status %d)", MetricRequests, code)
	}
	code, body, _ = get(t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("/v1/stats = %d", code)
	}
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 {
		t.Fatalf("stats requests = %d, want 1", st.Requests)
	}

	m := telemetry.NewManifest("test")
	srv.FillManifest(m)
	if m.Config["requests"] != "1" {
		t.Fatalf("manifest requests = %q, want 1", m.Config["requests"])
	}
}

// breakCacheDir turns every shard path of a cache dir into a regular
// file, so each disk Get and Put fails at once with ENOTDIR. heal
// removes them.
func breakCacheDir(t *testing.T, dir string) (heal func()) {
	t.Helper()
	var shards []string
	for i := 0; i < 256; i++ {
		p := filepath.Join(dir, fmt.Sprintf("%02x", i))
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		shards = append(shards, p)
	}
	return func() {
		for _, p := range shards {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// A broken cache dir costs speed, never an answer: cold and warm
// answers on every grid endpoint equal RunSequential with no 5xx, each
// failed disk operation is counted once, and a healed dir is written
// on the very next cold cell.
func TestBrokenCacheDirAnswersCountsAndHeals(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{CacheDir: dir}, nil)
	heal := breakCacheDir(t, dir)

	sequential := func(g sweep.Grid) []sweep.Record {
		t.Helper()
		recs, err := sweep.RunSequential(g)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	fetch := func(path string) string {
		t.Helper()
		code, body, _ := get(t, ts.URL+path)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d (%s)", path, code, strings.TrimSpace(body))
		}
		return body
	}
	cells := 0
	for pass := 0; pass < 2; pass++ { // cold, then warm
		var sim SimulateResponse
		if err := json.Unmarshal([]byte(fetch("/v1/simulate?benchmark=res50_tf&gpus=2")), &sim); err != nil {
			t.Fatal(err)
		}
		if want := sequential(sweep.Grid{Benchmarks: []string{"res50_tf"}, GPUCounts: []int{2}}); sim.Record != want[0] {
			t.Errorf("pass %d: simulate %+v, want %+v", pass, sim.Record, want[0])
		}

		var sw SweepResponse
		if err := json.Unmarshal([]byte(fetch("/v1/sweep?benchmarks=res50_tf,ncf_py&gpus=1,4")), &sw); err != nil {
			t.Fatal(err)
		}
		want := sequential(sweep.Grid{Benchmarks: []string{"res50_tf", "ncf_py"}, GPUCounts: []int{1, 4}})
		if sw.Partial || !reflect.DeepEqual(sw.Records, want) {
			t.Errorf("pass %d: sweep %+v, want %+v", pass, sw, want)
		}

		want = sequential(sweep.Grid{Benchmarks: []string{"ssd_py", "xfmr_py"}, GPUCounts: []int{1, 2}})
		frames := decodeNDJSON(t, fetch("/v1/sweep/stream?benchmarks=ssd_py,xfmr_py&gpus=1,2"))
		if last := frames[len(frames)-1]; last.Partial || last.Completed != len(want) {
			t.Errorf("pass %d: stream summary %+v", pass, last)
		}
		if got := reassemble(t, frames, len(want)); !reflect.DeepEqual(got, want) {
			t.Errorf("pass %d: stream %+v, want %+v", pass, got, want)
		}
		if pass == 0 {
			cells = 1 + len(sw.Records) + len(want)
		}
	}

	var st Stats
	if err := json.Unmarshal([]byte(fetch("/v1/stats")), &st); err != nil {
		t.Fatal(err)
	}
	gets := srv.Registry().Counter(sweep.MetricDiskErrors, telemetry.L("op", "get")).Value()
	puts := srv.Registry().Counter(sweep.MetricDiskErrors, telemetry.L("op", "put")).Value()
	if gets != int64(cells) || puts != int64(cells) || st.Cache.DiskErrors != int64(2*cells) {
		t.Errorf("disk errors get=%d put=%d stats=%d, want %d, %d, %d", gets, puts, st.Cache.DiskErrors, cells, cells, 2*cells)
	}
	if st.Cache.Simulations != int64(cells) || st.Cache.Simulations != st.Cache.Misses-st.Cache.Disk.Hits {
		t.Errorf("cache %+v, want %d simulations == Misses - Disk.Hits", st.Cache, cells)
	}
	m := telemetry.NewManifest("test")
	srv.FillManifest(m)
	if got, want := m.Config["disk_errors"], fmt.Sprint(2*cells); got != want {
		t.Errorf("manifest disk_errors = %q, want %q", got, want)
	}

	// Healed, the dir takes the next cold cell at once: no cooldown.
	heal()
	fetch("/v1/simulate?benchmark=ncf_py&gpus=8")
	ds, err := sweep.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ds.Len(); err != nil || n != 1 {
		t.Fatalf("healed cache dir holds %d entries (%v) after one cold cell, want 1", n, err)
	}
}

// The daemon checks its cache settings as every sweep CLI does: a
// negative size cap and a cap without a cache directory are refused,
// not read as unbounded or dropped.
func TestNewRefusesBadCacheSettings(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative cap", Config{CacheDir: t.TempDir(), CacheMaxBytes: -1}, "-cache-max-bytes must be >= 0"},
		{"cap without dir", Config{CacheMaxBytes: 2048}, "-cache-max-bytes requires -cache-dir"},
	} {
		if _, err := New(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
}
