package trace_test

import (
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/clock"
	"mca/internal/colour"
	"mca/internal/ids"
	"mca/internal/lock"
	"mca/internal/metrics"
	"mca/internal/trace"
)

// samplerHarness is a fake-clock runtime with a tail-sampling recorder:
// transaction durations come from clk.Advance, so every test here is
// deterministic and replayable.
type samplerHarness struct {
	clk *clock.Fake
	rt  *action.Runtime
	rec *trace.Recorder
}

func newSamplerHarness(t *testing.T, cfg trace.SamplerConfig) *samplerHarness {
	t.Helper()
	h := &samplerHarness{clk: clock.NewFake(), rec: trace.NewRecorder()}
	h.rec.SetSampler(trace.NewSampler(cfg))
	h.rt = action.NewRuntime(action.WithObserver(h.rec.Observe), action.WithClock(h.clk))
	return h
}

// txn runs one traced root transaction taking d, returning its trace id.
func (h *samplerHarness) txn(t *testing.T, d time.Duration, abort bool) uint64 {
	t.Helper()
	a, err := h.rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Begin fires before StartTrace: the root's span is open, untraced,
	// when it is bound.
	tc := h.rec.StartTrace(a.ID())
	h.clk.Advance(d)
	if abort {
		err = a.Abort()
	} else {
		err = a.Commit()
	}
	if err != nil {
		t.Fatal(err)
	}
	return tc.TraceID
}

// keptTraces returns the set of trace ids with an exported root span.
func (h *samplerHarness) keptTraces() map[uint64]bool {
	out := make(map[uint64]bool)
	for _, s := range h.rec.Spans() {
		if s.TraceID != 0 && s.ParentSpanID == 0 && s.ID != 0 {
			out[s.TraceID] = true
		}
	}
	return out
}

func TestSamplerThresholdKeepsSlowDropsFast(t *testing.T) {
	h := newSamplerHarness(t, trace.SamplerConfig{Threshold: 10 * time.Millisecond})
	slow := h.txn(t, 20*time.Millisecond, false)
	fast := h.txn(t, time.Millisecond, false)
	kept := h.keptTraces()
	if !kept[slow] {
		t.Fatalf("slow transaction %x dropped, want kept (threshold)", slow)
	}
	if kept[fast] {
		t.Fatalf("fast transaction %x kept, want dropped", fast)
	}
}

func TestSamplerAbortAlwaysKept(t *testing.T) {
	h := newSamplerHarness(t, trace.SamplerConfig{
		Threshold:   time.Hour, // nothing qualifies on latency
		KeepAborted: true,
	})
	aborted := h.txn(t, time.Millisecond, true)
	committed := h.txn(t, time.Millisecond, false)
	kept := h.keptTraces()
	if !kept[aborted] {
		t.Fatalf("fast aborted transaction %x dropped, want kept (KeepAborted)", aborted)
	}
	if kept[committed] {
		t.Fatalf("fast committed transaction %x kept, want dropped", committed)
	}
	spans := h.rec.Spans()
	found := false
	for _, s := range spans {
		if s.TraceID == aborted && s.Outcome == trace.OutcomeAborted {
			found = true
		}
	}
	if !found {
		t.Fatalf("kept abort did not export an aborted span: %+v", spans)
	}
}

// TestSamplerBaselineLotteryReplays: the 1-in-N lottery draws from a
// seeded deterministic stream positioned only by completion order, so
// two identical runs keep exactly the same transactions.
func TestSamplerBaselineLotteryReplays(t *testing.T) {
	const n, txns = 4, 64
	run := func() []int {
		h := newSamplerHarness(t, trace.SamplerConfig{BaselineN: n, Seed: 42})
		traces := make([]uint64, txns)
		for i := range traces {
			traces[i] = h.txn(t, time.Millisecond, false)
		}
		kept := h.keptTraces()
		var won []int
		for i, tid := range traces {
			if kept[tid] {
				won = append(won, i)
			}
		}
		return won
	}
	first, second := run(), run()
	if len(first) == 0 || len(first) == txns {
		t.Fatalf("lottery kept %d/%d, want a strict subset", len(first), txns)
	}
	if len(first) != len(second) {
		t.Fatalf("replay kept %d transactions, first run kept %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at winner %d: %v vs %v", i, first, second)
		}
	}
}

func TestSamplerQuantileKeepsTail(t *testing.T) {
	h := newSamplerHarness(t, trace.SamplerConfig{
		TailQuantile:   0.9,
		QuantileWarmup: 8,
	})
	// Feed a spread of fast completions so the running q0.9 lands well
	// above 1ms and well below 50ms.
	for i := 0; i < 24; i++ {
		h.txn(t, time.Duration(1+i%4)*time.Millisecond, false)
	}
	slow := h.txn(t, 50*time.Millisecond, false)
	fast := h.txn(t, time.Millisecond, false)
	kept := h.keptTraces()
	if !kept[slow] {
		t.Fatalf("tail transaction %x dropped, want kept (quantile)", slow)
	}
	if kept[fast] {
		t.Fatalf("fast transaction %x kept after warmup, want dropped", fast)
	}
}

// TestSamplerLateSpansFollowDecision: spans arriving after the root
// completed (the phase-2 commit fan-out) follow the published decision
// instead of re-buffering forever.
func TestSamplerLateSpansFollowDecision(t *testing.T) {
	h := newSamplerHarness(t, trace.SamplerConfig{Threshold: 10 * time.Millisecond})
	slow := h.txn(t, 20*time.Millisecond, false)
	fast := h.txn(t, time.Millisecond, false)

	mk := func(tid uint64) trace.Span {
		return trace.Span{
			Kind: "round.commit", TraceID: tid, SpanID: 999, ParentSpanID: 1,
			Outcome: trace.OutcomeCommitted, Begin: h.clk.Now(), End: h.clk.Now(),
		}
	}
	h.rec.AddSpan(mk(slow))
	h.rec.AddSpan(mk(fast))

	var gotSlow, gotFast bool
	for _, s := range h.rec.Spans() {
		if s.Kind == "round.commit" {
			switch s.TraceID {
			case slow:
				gotSlow = true
			case fast:
				gotFast = true
			}
		}
	}
	if !gotSlow {
		t.Fatalf("late span of kept trace %x missing from export", slow)
	}
	if gotFast {
		t.Fatalf("late span of dropped trace %x exported", fast)
	}
}

// TestSamplerKeptRootCarriesPhases: the phases of a kept transaction
// survive the keep decision — a traced action's lock wait is a lock.wait
// span of its trace, which the keep decision exports and Attribute
// charges to lock — and a dropped transaction's go with its trace.
func TestSamplerKeptRootCarriesPhases(t *testing.T) {
	h := newSamplerHarness(t, trace.SamplerConfig{Threshold: 10 * time.Millisecond})
	obj := ids.NewObjectID()
	// waiting runs a traced transaction taking total, whose one lock
	// request waits d for an untraced holder.
	waiting := func(d, total time.Duration) uint64 {
		holder, err := h.rt.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := holder.Lock(obj, lock.Write, colour.None); err != nil {
			t.Fatal(err)
		}
		a, err := h.rt.Begin()
		if err != nil {
			t.Fatal(err)
		}
		tc := h.rec.StartTrace(a.ID())
		parked := lockWaiters()
		done := make(chan error, 1)
		go func() { done <- a.Lock(obj, lock.Write, colour.None) }()
		for lockWaiters() == parked {
			time.Sleep(time.Millisecond)
		}
		h.clk.Advance(d)
		if err := holder.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("blocked lock: %v", err)
		}
		h.clk.Advance(total - d)
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
		return tc.TraceID
	}
	kept := waiting(7*time.Millisecond, 20*time.Millisecond)
	dropped := waiting(time.Millisecond, 2*time.Millisecond)

	traces := trace.ByTrace(h.rec.Spans())
	want := trace.Attribution{Total: (20 * time.Millisecond).Nanoseconds(), Lock: (7 * time.Millisecond).Nanoseconds(),
		Compute: (13 * time.Millisecond).Nanoseconds()}
	if got := trace.Attribute(traces[kept]); got != want {
		t.Fatalf("kept trace attributes %+v, want %+v (spans %+v)", got, want, traces[kept])
	}
	if spans := traces[dropped]; len(spans) != 0 {
		t.Fatalf("dropped transaction's spans exported: %+v", spans)
	}
}

// lockWaiters reads how many lock requests are parked in the process.
func lockWaiters() float64 {
	f, _ := metrics.Default().Find("mca_lock_waiters")
	return f.Samples[0].Value
}
