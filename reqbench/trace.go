package main

import (
	"sort"
	"time"

	"mlperf/internal/telemetry"
)

// A traced run gives the front and each backend a telemetry registry on
// one shared clock and reads back the spans the program records for
// every request:
//
//	front request  the front's handler (Trace = the client's trace ID)
//	rpc            one front→backend call (Parent = the front request span)
//	backend request one backend's handler (RemoteParent = the rpc's Wire)
//	run            the engine's run, under the backend request span
//	sweep-cell     one simulated cell, under a run span
//
// The benchmark adds one record of its own: the client span of each
// measured request, on the same clock.
type tracer struct {
	epoch time.Time

	// The current stack's registries.
	front    *telemetry.Registry
	backends []*telemetry.Registry
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the shared clock, in seconds since the tracer was made.
func (t *tracer) now() float64 { return time.Since(t.epoch).Seconds() }

// registry is a fresh registry on the tracer's clock (nil without a
// tracer, which the front and serve read as "make a private one").
func (t *tracer) registry() *telemetry.Registry {
	if t == nil {
		return nil
	}
	return telemetry.NewWithClock(t.now)
}

// layerTimes is the mean time per measured request spent in each layer
// itself, excluding the layers it called, in seconds.
type layerTimes struct {
	requests   int     // measured requests whose front span was found
	client     float64 // whole request as the client saw it
	clientSelf float64 // client minus front: client stack, loopback, body read
	frontSelf  float64 // front minus the time its rpc spans cover: routing, fan-out, merge, re-encode
	hopSelf    float64 // rpc spans minus their backend spans: transport, loopback, framing
	serveSelf  float64 // backend spans minus the time their cells cover: admission, coalescing, memory tier, store, encode
	cell       float64 // simulated cells' span time
}

// spanIndex is one process's spans, indexed for the joins.
type spanIndex struct {
	byTrace  map[string]telemetry.Span             // request spans by trace ID
	byRemote map[string]telemetry.Span             // request spans by the wire ID of the span that called them
	byParent map[telemetry.SpanID][]telemetry.Span // every span by its local parent
}

func indexSpans(reg *telemetry.Registry) spanIndex {
	ix := spanIndex{byTrace: map[string]telemetry.Span{}, byRemote: map[string]telemetry.Span{}, byParent: map[telemetry.SpanID][]telemetry.Span{}}
	for _, s := range reg.Tracer().Spans() {
		if s.Kind == telemetry.KindRequest {
			ix.byTrace[s.Trace] = s
			if s.RemoteParent != "" {
				ix.byRemote[s.RemoteParent] = s
			}
		}
		if s.Parent != 0 {
			ix.byParent[s.Parent] = append(ix.byParent[s.Parent], s)
		}
	}
	return ix
}

// attribute joins the client spans with the current stack's spans,
// request by request, and returns each layer's mean self time.
func (t *tracer) attribute(client map[string]clientSpan) layerTimes {
	front := indexSpans(t.front)
	backends := make([]spanIndex, len(t.backends))
	for i, reg := range t.backends {
		backends[i] = indexSpans(reg)
	}
	var lt layerTimes
	for traceID, c := range client {
		f, ok := front.byTrace[traceID]
		if !ok {
			continue
		}
		lt.requests++
		lt.client += c.end - c.start
		lt.clientSelf += (c.end - c.start) - f.Duration()
		var rpcs []telemetry.Span
		for _, s := range front.byParent[f.ID] {
			if s.Kind == telemetry.KindRPC {
				rpcs = append(rpcs, s)
			}
		}
		lt.frontSelf += f.Duration() - covered(f, rpcs)
		for _, rpc := range rpcs {
			for _, b := range backends {
				s, ok := b.byRemote[rpc.Wire]
				if !ok {
					continue
				}
				lt.hopSelf += rpc.Duration() - s.Duration()
				var cells []telemetry.Span
				for _, run := range b.byParent[s.ID] {
					for _, c := range b.byParent[run.ID] {
						if c.Kind == telemetry.KindSweepCell {
							cells = append(cells, c)
							lt.cell += c.Duration()
						}
					}
				}
				lt.serveSelf += s.Duration() - covered(s, cells)
			}
		}
	}
	if lt.requests > 0 {
		n := float64(lt.requests)
		for _, v := range []*float64{&lt.client, &lt.clientSelf, &lt.frontSelf, &lt.hopSelf, &lt.serveSelf, &lt.cell} {
			*v /= n
		}
	}
	return lt
}

// covered is how much of span p its children cover: the length of the
// union of their intervals, clipped to p. A sweep's rpcs and a backend's
// cells run in parallel, so summing them would count overlapping time
// twice.
func covered(p telemetry.Span, children []telemetry.Span) float64 {
	type iv struct{ s, e float64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		if s, e := max(c.Start, p.Start), min(c.End, p.End); e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var total float64
	for i := 0; i < len(ivs); {
		cur := ivs[i]
		for i++; i < len(ivs) && ivs[i].s <= cur.e; i++ {
			cur.e = max(cur.e, ivs[i].e)
		}
		total += cur.e - cur.s
	}
	return total
}
