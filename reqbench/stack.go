package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"mlperf/internal/front"
	"mlperf/internal/serve"
	"mlperf/internal/telemetry"
)

// backendCount is how many serve backends sit behind the front.
const backendCount = 2

// stack is one serving topology on loopback listeners: a front tier over
// two serve backends that share one cache directory (when the workload
// has one), configured as the front-smoke CI job starts mlperf-front and
// mlperf-serve, here in one process.
type stack struct {
	backends []*serve.Server
	front    *front.Front
	servers  []*http.Server
	serving  sync.WaitGroup
	url      string
}

// startStack builds the topology over casDir ("" = no disk tier). With
// a tracer, the front and each backend record their spans in a registry
// on the tracer's clock; without one, each keeps the private registry a
// daemon makes for itself.
func startStack(casDir string, tr *tracer) (*stack, error) {
	st := &stack{}
	urls := make([]string, 0, backendCount)
	var regs []*telemetry.Registry
	for i := 0; i < backendCount; i++ {
		// The front-smoke job's backend flags: -max-inflight 16
		// -max-queue 64 -tenant-rate -1. Everything else, the engine's
		// worker count included, is the daemon's default.
		reg := tr.registry()
		b, err := serve.New(serve.Config{
			CacheDir: casDir, MaxInFlight: 16, MaxQueue: 64, TenantRate: -1, Telemetry: reg,
		})
		if err != nil {
			st.close()
			return nil, err
		}
		if tr != nil {
			regs = append(regs, reg)
		}
		url, err := st.listen(b.Handler())
		if err != nil {
			st.close()
			return nil, err
		}
		st.backends = append(st.backends, b)
		urls = append(urls, url)
	}
	freg := tr.registry()
	f, err := front.New(front.Config{Backends: urls, HealthInterval: 100 * time.Millisecond, Telemetry: freg})
	if err != nil {
		st.close()
		return nil, err
	}
	st.front = f
	if tr != nil {
		tr.front, tr.backends = freg, regs
	}
	if st.url, err = st.listen(f.Handler()); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.servers = append(st.servers, srv)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "reqbench: serve:", err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the front's health loop, the listeners and every serving
// goroutine, and returns once they have all ended. It is called only
// with no request in flight, so it closes connections outright: a
// graceful Shutdown would wait up to five seconds on each connection a
// client dialled but never used.
func (st *stack) close() {
	if st.front != nil {
		st.front.Close()
	}
	for _, srv := range st.servers {
		srv.Close()
	}
	st.serving.Wait()
}

// counters are the program's own counts of work done, summed over a
// stack's backends and front.
type counters struct {
	memHits, memMisses int64
	simulations        int64
	coalesced          int64
	fanouts            int64
}

func (st *stack) counters() counters {
	var c counters
	for _, b := range st.backends {
		es := b.Engine().Stats()
		c.memHits += es.Hits
		c.memMisses += es.Misses
		c.simulations += es.Simulations
		c.coalesced += b.Snapshot().Coalesced
	}
	c.fanouts = st.front.Snapshot().Fanouts
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		memHits: c.memHits - o.memHits, memMisses: c.memMisses - o.memMisses,
		simulations: c.simulations - o.simulations,
		coalesced:   c.coalesced - o.coalesced,
		fanouts:     c.fanouts - o.fanouts,
	}
}
