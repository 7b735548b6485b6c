package front

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"mlperf/internal/serve"
	"mlperf/internal/sweep"
)

// postCells POSTs an explicit cell list and returns status and body.
func postCells(t *testing.T, url string, keys []sweep.CellKey, hdr ...string) (int, []byte) {
	t.Helper()
	body, err := serve.CellsBody(keys)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, got
}

// The front applies its backends' cell budget: a grid one cell over it
// is the backend's own 413, byte for byte, on both sweep endpoints —
// before any fan-out and before the deadline is checked, whether or not
// the front holds the cells — while a grid at the budget still runs
// complete through the fleet.
func TestFrontRefusesGridOverCellBudget(t *testing.T) {
	var urls []string
	var backends []*serve.Server
	for i := 0; i < 2; i++ {
		srv, err := serve.New(serve.Config{TenantRate: -1}) // memory tier only
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		backends = append(backends, srv)
		urls = append(urls, ts.URL)
	}
	fr, fts := newFront(t, urls...)
	simulations := func() (n int64) {
		for _, b := range backends {
			n += b.Snapshot().Cache.Simulations
		}
		return n
	}

	batches := make([]int, serve.MaxRequestCells+1)
	for i := range batches {
		batches[i] = i + 1
	}
	grid := sweep.Grid{Benchmarks: []string{"res50_tf"}, GPUCounts: []int{1}, BatchPerGPU: batches}
	over, err := grid.Cells()
	if err != nil || len(over) != serve.MaxRequestCells+1 {
		t.Fatalf("grid: %d cells, %v", len(over), err)
	}
	code, want := postCells(t, urls[0]+"/v1/sweep", over)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("backend: %d (%s), want 413", code, want)
	}

	refused := func(state string) {
		t.Helper()
		fanouts, sims := fr.Snapshot().Fanouts, simulations()
		for _, p := range []string{"/v1/sweep", "/v1/sweep/stream"} {
			for _, hdr := range [][]string{nil, {"Request-Timeout", "soon"}} {
				code, got := postCells(t, fts.URL+p, over, hdr...)
				if code != http.StatusRequestEntityTooLarge || !bytes.Equal(got, want) {
					t.Errorf("%s: front %s %v = %d (%s), want the backend's 413 (%s)", state, p, hdr, code, got, want)
				}
			}
		}
		if st := fr.Snapshot(); st.Fanouts != fanouts || simulations() != sims {
			t.Errorf("%s: oversized grid reached the backends: fanouts %d -> %d, simulations %d -> %d",
				state, fanouts, st.Fanouts, sims, simulations())
		}
	}
	refused("cold")
	if fr.Snapshot().Fanouts != 0 {
		t.Fatalf("fanouts before any accepted grid: %d", fr.Snapshot().Fanouts)
	}

	grid.BatchPerGPU = batches[:serve.MaxRequestCells]
	ref, err := sweep.RunSequential(grid)
	if err != nil {
		t.Fatal(err)
	}
	code, body := postCells(t, fts.URL+"/v1/sweep", over[:serve.MaxRequestCells])
	if code != http.StatusOK {
		t.Fatalf("grid at the budget: %d (%s)", code, body)
	}
	var resp serve.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Partial || resp.Completed != serve.MaxRequestCells || resp.Cells != serve.MaxRequestCells {
		t.Fatalf("grid at the budget: %d/%d cells, partial %v, failures %v",
			resp.Completed, resp.Cells, resp.Partial, resp.Failures)
	}
	if renderCSV(t, resp.Records) != renderCSV(t, ref) {
		t.Fatal("grid at the budget differs from RunSequential")
	}
	refused("all but one cell held")
}
