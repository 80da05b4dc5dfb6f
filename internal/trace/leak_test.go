package trace

import (
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/clock"
)

// TestDroppedTracesLeaveNothingBehind: with every fast trace dropped, a
// recorder keeps nothing of 10 000 finished single-action transactions
// in its per-action tables, and nothing of their decided traces in its
// pending buffers; a slow trace is still kept and exported.
func TestDroppedTracesLeaveNothingBehind(t *testing.T) {
	clk := clock.NewFake()
	rec := NewRecorder()
	rec.SetSampler(NewSampler(SamplerConfig{Threshold: time.Hour}))
	rt := action.NewRuntime(action.WithObserver(rec.Observe), action.WithClock(clk))
	txn := func(d time.Duration) uint64 {
		a, err := rt.Begin()
		if err != nil {
			t.Fatal(err)
		}
		tc := rec.StartTrace(a.ID())
		clk.Advance(d)
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
		return tc.TraceID
	}
	for range 10_000 {
		txn(time.Millisecond)
	}
	rec.mu.Lock()
	binds, open, labels, pending, order := len(rec.binds), len(rec.open), len(rec.labels), len(rec.pending), len(rec.pendingOrder)
	rec.mu.Unlock()
	if binds+open+labels+pending != 0 || order >= 2*maxPendingTraces {
		t.Fatalf("after 10000 dropped traces: binds=%d open=%d labels=%d pending=%d pendingOrder=%d, want 0 0 0 0 and < %d",
			binds, open, labels, pending, order, 2*maxPendingTraces)
	}
	if spans := rec.Spans(); len(spans) != 0 {
		t.Fatalf("dropped traces exported %d spans", len(spans))
	}

	kept := txn(2 * time.Hour)
	spans := rec.Spans()
	if len(spans) != 1 || spans[0].TraceID != kept || spans[0].Outcome != OutcomeCommitted {
		t.Fatalf("kept trace %x exported %+v, want its committed root", kept, spans)
	}
}
