// Critical-path attribution: where one transaction's wall time went,
// read from the spans of its trace alone, from every node that
// recorded some. The waits nest — an rpc.client span contains the
// remote rpc.server span and its queueing, and a handler contains the
// participant's lock and force waits — and parallel fan-out legs
// overlap each other, so raw sums can exceed the root's wall clock.
// Attribute subtracts the contained waits back out into five mutually
// exclusive buckets.
package trace

// Attribution is the exclusive breakdown of one transaction, all values
// in nanoseconds of the root's wall time.
type Attribution struct {
	// Total is the root span's wall time.
	Total int64 `json:"total_ns"`
	// Lock is time blocked in a lock manager (any node).
	Lock int64 `json:"lock_ns"`
	// Force is time waiting on a forced intention record (any node).
	Force int64 `json:"force_ns"`
	// Net is the wire share of RPC: client-observed call time minus
	// the remote handler and queueing time, clamped at zero. Under
	// parallel fan-out the legs overlap, so this is an upper bound on
	// wire time, not an exact wall-clock share.
	Net int64 `json:"net_ns"`
	// Queue is time requests sat decoded but undispatched (serve-pool
	// wait or goroutine scheduling).
	Queue int64 `json:"queue_ns"`
	// Compute is the remainder of the root's wall time after the wait
	// buckets, clamped at zero: handler execution plus anything no
	// wait span covers.
	Compute int64 `json:"compute_ns"`
}

// Attribute derives the exclusive breakdown of one trace from its spans
// (ByTrace groups them). Total is the root action's wall time, zero when
// the root is missing or still active.
func Attribute(spans []Span) Attribution {
	var a Attribution
	var called, served int64
	for _, s := range spans {
		d := int64(0)
		if !s.End.IsZero() {
			d = s.End.Sub(s.Begin).Nanoseconds()
		}
		switch {
		case s.IsRoot():
			a.Total = d
		case s.Kind == KindLockWait:
			a.Lock += d
		case s.Kind == KindForce:
			a.Force += d
		case s.Kind == KindRPCClient:
			called += d
		case s.Kind == KindRPCServer:
			served += d
			a.Queue += s.Queued.Nanoseconds()
		}
	}
	a.Net = max(called-served-a.Queue, 0)
	a.Compute = max(a.Total-a.Lock-a.Force-a.Net-a.Queue, 0)
	return a
}

// IsRoot reports whether s is an action span that no span of its trace
// parents: the root of its trace, when it is traced.
func (s Span) IsRoot() bool {
	return s.ID != 0 && s.ParentSpanID == 0
}

// Root returns the root action among one trace's spans.
func Root(spans []Span) (Span, bool) {
	for _, s := range spans {
		if s.IsRoot() {
			return s, true
		}
	}
	return Span{}, false
}

// ByTrace groups the traced spans by trace identifier, each group in
// input order; untraced spans are left out.
func ByTrace(spans []Span) map[uint64][]Span {
	out := make(map[uint64][]Span)
	for _, s := range spans {
		if s.TraceID != 0 {
			out[s.TraceID] = append(out[s.TraceID], s)
		}
	}
	return out
}

// BreakdownNames lists the exclusive buckets in reporting order.
var BreakdownNames = []string{"lock", "force", "net", "queue", "compute"}

// Buckets returns the breakdown keyed by BreakdownNames.
func (a Attribution) Buckets() map[string]int64 {
	return map[string]int64{
		"lock":    a.Lock,
		"force":   a.Force,
		"net":     a.Net,
		"queue":   a.Queue,
		"compute": a.Compute,
	}
}

// Dominant names the largest exclusive bucket ("lock", "force", "net",
// "queue" or "compute"). Ties break toward "compute" (the residual),
// then toward the earlier name in BreakdownNames; an all-zero
// attribution reports "compute".
func (a Attribution) Dominant() string {
	buckets := a.Buckets()
	best, bestV := "compute", a.Compute
	for _, name := range BreakdownNames[:len(BreakdownNames)-1] {
		if v := buckets[name]; v > bestV {
			best, bestV = name, v
		}
	}
	return best
}
