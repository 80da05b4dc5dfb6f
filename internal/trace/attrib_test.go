package trace_test

import (
	"testing"
	"time"

	"mca/internal/trace"
)

// TestAttributeSubtractsNestedWaits: a coordinator's call contains the
// participant's queueing and handler, which contains its lock wait and
// force; each wait lands in one bucket, the wire gets the call minus the
// remote side, and compute what no wait covers.
func TestAttributeSubtractsNestedWaits(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	span := func(kind string, from, to int) trace.Span {
		return trace.Span{Kind: kind, TraceID: 9, SpanID: uint64(100 + from), ParentSpanID: 1, Begin: at(from), End: at(to)}
	}
	server := span(trace.KindRPCServer, 15, 55)
	server.Queued = 2 * time.Millisecond
	spans := []trace.Span{
		{ID: 1, TraceID: 9, SpanID: 1, Begin: at(0), End: at(100)},
		span(trace.KindRPCClient, 10, 60),
		server,
		span(trace.KindLockWait, 20, 30),
		span(trace.KindForce, 30, 45),
		span(trace.KindForce, 70, 80), // the coordinator's decision
		span("round.prepare", 60, 90), // contains no wait of its own
		{Kind: "wal.flush", Begin: at(0), End: at(100)},
	}
	ms := func(n int) int64 { return (time.Duration(n) * time.Millisecond).Nanoseconds() }
	want := trace.Attribution{Total: ms(100), Lock: ms(10), Force: ms(25), Net: ms(8), Queue: ms(2), Compute: ms(55)}
	if got := trace.Attribute(trace.ByTrace(spans)[9]); got != want {
		t.Fatalf("Attribute = %+v, want %+v", got, want)
	}

	// Waits beyond the wall clock clamp compute, a handler outlasting its
	// call clamps the wire, and without its root a trace has no total.
	over := []trace.Span{spans[0], span(trace.KindRPCClient, 0, 10), span(trace.KindRPCServer, 0, 20), span(trace.KindForce, 0, 150)}
	if got := trace.Attribute(over); got.Net != 0 || got.Compute != 0 || got.Dominant() != "force" {
		t.Fatalf("Attribute = %+v (dominant %s), want no net, no compute, force dominant", got, got.Dominant())
	}
	if got := trace.Attribute(spans[1:]); got.Total != 0 || got.Compute != 0 {
		t.Fatalf("Attribute without a root = %+v, want no total", got)
	}
}
