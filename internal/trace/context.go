// Distributed trace context: the compact causal identity one unit of
// work carries across nodes (Dapper-style propagation). A Context names
// a trace (one client-visible distributed operation) and a span within
// it (one timed piece of that operation). The RPC layer ships Contexts
// inside its envelope, so a 2PC round driven at the coordinator and the
// participant actions it creates at other nodes all share one TraceID
// and link parent to child by SpanID — cmd/tracecat reassembles the
// cross-node tree from per-node span exports.
package trace

import (
	"context"
	"sync/atomic"

	"mca/internal/clock"
)

// Context is a span's identity within a distributed trace. The zero
// value means "not traced"; both fields are non-zero in a valid
// context.
type Context struct {
	// TraceID names the distributed operation; every span caused by it
	// shares the value.
	TraceID uint64 `json:"trace"`
	// SpanID names this span; children record it as their parent.
	SpanID uint64 `json:"span"`
}

// Valid reports whether the context carries a trace identity.
func (c Context) Valid() bool { return c.TraceID != 0 && c.SpanID != 0 }

// Child returns a context for a new span caused by this one: same
// trace, fresh span identifier. The receiver is unchanged.
func (c Context) Child() Context {
	return Context{TraceID: c.TraceID, SpanID: NewSpanID()}
}

// ID allocation: counters seeded from the process start time, so span
// identifiers from separately started processes (tcpnet deployments
// exporting spans merged by cmd/tracecat) are distinct with high
// probability. Within a process identifiers are strictly unique.
var (
	traceIDs atomic.Uint64
	spanIDs  atomic.Uint64
)

// init seeds the counters from the process start time, keeping
// separately started processes distinct.
func init() {
	seed := splitmix64(uint64(clock.Real().Now().UnixNano()))
	// Keep the low 24 bits as counting room under random high bits.
	traceIDs.Store(seed &^ 0xFFFFFF)
	spanIDs.Store(splitmix64(seed) &^ 0xFFFFFF)
}

// splitmix64 is the finalizer of the splitmix64 generator: a cheap
// high-quality bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// NewTraceID allocates a fresh trace identifier (never zero).
func NewTraceID() uint64 {
	for {
		if id := traceIDs.Add(1); id != 0 {
			return id
		}
	}
}

// NewSpanID allocates a fresh span identifier (never zero).
func NewSpanID() uint64 {
	for {
		if id := spanIDs.Add(1); id != 0 {
			return id
		}
	}
}

// NewRoot starts a fresh trace: a new trace identifier with a root
// span.
func NewRoot() Context {
	return Context{TraceID: NewTraceID(), SpanID: NewSpanID()}
}

// ctxKey keys the trace context in a context.Context.
type ctxKey struct{}

// Inject returns a context carrying tc, for handing to the RPC layer:
// the caller keeps ownership of ctx (Inject derives, never stores it),
// and the returned context is only as long-lived as ctx itself.
func Inject(ctx context.Context, tc Context) context.Context {
	return context.WithValue(ctx, ctxKey{}, tc)
}

// FromContext extracts the trace context carried by ctx, if any. The
// boolean is false when ctx carries none (or an invalid one): callers
// must treat that as "not traced", never as an error.
func FromContext(ctx context.Context) (Context, bool) {
	tc, ok := ctx.Value(ctxKey{}).(Context)
	return tc, ok && tc.Valid()
}
