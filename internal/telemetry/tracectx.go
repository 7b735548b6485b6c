package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strings"
	"sync/atomic"
)

// Distributed trace context: the identity a request carries across the
// serving tier's process boundaries (loadgen → front → backends). The
// wire format is W3C-traceparent-shaped — "00-<32 hex trace id>-<16 hex
// span id>-01" — because it is the simplest header layout that names
// both the end-to-end trace and the immediate caller's span, which is
// exactly what cross-process stitching needs. Trace IDs are 128-bit so
// independent ingress points never collide; wire span IDs are 64-bit
// and name one hop.
//
// Two kinds of span identity coexist deliberately:
//
//   - SpanID (span.go) is the process-local sequential ID — deterministic
//     under an injected clock, which the replay guarantees depend on.
//   - the wire ID here is random hex that only exists on spans that
//     cross a process boundary (a server's request span, a client's rpc
//     span), recorded in Span.Wire/Span.RemoteParent.
//
// Stitching joins documents on the wire IDs and trace IDs without
// disturbing the local ID scheme.

// Header names of the trace-propagation protocol.
const (
	// TraceparentHeader carries the caller's trace context on every
	// front → backend hop.
	TraceparentHeader = "Traceparent"
	// RequestIDHeader echoes the request's trace ID on every response —
	// including sheds — so a client can always quote the ID a log line
	// or flight-recorder entry will carry.
	RequestIDHeader = "X-Request-Id"
)

// TraceContext is one hop's identity: the end-to-end trace and the
// current span on the wire.
type TraceContext struct {
	// TraceID is 32 lowercase hex characters (128 bits), constant for
	// the life of a request however many processes it crosses.
	TraceID string
	// SpanID is 16 lowercase hex characters (64 bits) naming the
	// current hop's span.
	SpanID string
}

// fallbackSeq feeds ID generation if crypto/rand ever fails (it does
// not on any supported platform; the fallback keeps IDs unique rather
// than panicking in a hot path).
var fallbackSeq atomic.Uint64

func randHex(n int) string {
	b := make([]byte, n/2)
	if _, err := rand.Read(b); err != nil {
		seq := fallbackSeq.Add(1)
		for i := range b {
			b[i] = byte(seq >> (8 * (i % 8)))
		}
		b[0] |= 1 // never all-zero
	}
	return hex.EncodeToString(b)
}

// NewTraceContext mints a fresh trace: a random 128-bit trace ID and a
// random 64-bit span ID for the ingress hop.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: randHex(32), SpanID: randHex(16)}
}

// Child keeps the trace, minting a new span ID — the identity of one
// outbound hop (front → backend attempt).
func (tc TraceContext) Child() TraceContext {
	return TraceContext{TraceID: tc.TraceID, SpanID: randHex(16)}
}

// Valid reports whether both IDs have the right shape and are not
// all-zero (all-zero IDs are invalid per the traceparent convention).
func (tc TraceContext) Valid() bool {
	return validHexID(tc.TraceID, 32) && validHexID(tc.SpanID, 16)
}

func validHexID(s string, n int) bool {
	if len(s) != n {
		return false
	}
	zero := true
	for i := 0; i < n; i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			zero = false
		}
	}
	return !zero
}

// Traceparent renders the header value: version 00, sampled flag 01.
func (tc TraceContext) Traceparent() string {
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-01"
}

// ParseTraceparent parses a traceparent-style header value. Unknown
// versions, malformed IDs and all-zero IDs are rejected (ok=false) —
// the server then starts a fresh trace rather than propagating junk.
func ParseTraceparent(s string) (TraceContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) != 4 || parts[0] != "00" || len(parts[3]) != 2 {
		return TraceContext{}, false
	}
	tc := TraceContext{TraceID: parts[1], SpanID: parts[2]}
	if !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}

// TraceFromRequest resolves a request's trace context at ingress: the
// caller's traceparent when present and valid, otherwise a fresh trace.
// remoteParent is the caller's wire span ID ("" when this process is
// the ingress) — the cross-process parent link recorded on the server
// span.
func TraceFromRequest(h http.Header) (tc TraceContext, remoteParent string) {
	if parsed, ok := ParseTraceparent(h.Get(TraceparentHeader)); ok {
		return TraceContext{TraceID: parsed.TraceID, SpanID: randHex(16)}, parsed.SpanID
	}
	return NewTraceContext(), ""
}

// Context plumbing: the trace context and the process-local parent span
// travel on context.Context so layers that know nothing about HTTP (the
// sweep engine) can still attach their spans under the request.

type traceCtxKey struct{}
type spanCtxKey struct{}

// ContextWithTrace attaches a trace context.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFromContext reads the attached trace context (ok=false when the
// request predates the observability layer or tracing is off).
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok
}

// ContextWithSpan attaches a process-local parent span ID.
func ContextWithSpan(ctx context.Context, id SpanID) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, id)
}

// SpanFromContext reads the attached parent span (0 = root, the
// pre-observability behaviour).
func SpanFromContext(ctx context.Context) SpanID {
	id, _ := ctx.Value(spanCtxKey{}).(SpanID)
	return id
}
