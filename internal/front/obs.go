package front

import (
	"context"
	"net/http"
	"strconv"

	"mlperf/internal/telemetry"
)

// Front-tier trace propagation. The kernel's middleware (httpkit.Observe)
// mints or adopts the trace context and opens the KindRequest span;
// every outbound backend attempt then gets a child KindRPC span and a
// traceparent header carrying that span's wire ID, which is the link
// the backend's request span records as its remote parent and the
// stitcher later resolves.

// propagate stamps an outbound backend request with a child trace
// context and opens the matching KindRPC span; the returned closer ends
// the span after the attempt. A request that somehow bypassed the
// middleware (no trace on ctx) propagates nothing.
func (f *Front) propagate(ctx context.Context, req *http.Request, backend int) func() {
	tc, ok := telemetry.TraceFromContext(ctx)
	if !ok {
		return func() {}
	}
	child := tc.Child()
	req.Header.Set(telemetry.TraceparentHeader, child.Traceparent())
	span := f.reg.Tracer().StartSpan(telemetry.SpanStart{
		Kind:   telemetry.KindRPC,
		Name:   req.Method + " " + req.URL.Path,
		Parent: telemetry.SpanFromContext(ctx),
		Trace:  tc.TraceID,
		Wire:   child.SpanID,
		Attrs:  []string{"backend=" + strconv.Itoa(backend)},
	})
	return func() { f.reg.Tracer().End(span) }
}

// Flight returns the front's flight recorder (for the daemon's
// SIGQUIT/drain dump hooks).
func (f *Front) Flight() *telemetry.FlightRecorder { return f.flight }
