package lock

import (
	"context"
	"runtime"
	"testing"
	"time"

	"mca/internal/clock"
	"mca/internal/colour"
	"mca/internal/ids"
)

// blockOnce makes one request block on a fresh manager and then be
// granted, and returns the manager.
func blockOnce(t *testing.T) *Manager {
	t.Helper()
	tr := newTree()
	m := NewManager(tr)
	obj, c := ids.NewObjectID(), colour.Fresh()
	holder, waiter := tr.node(0), tr.node(0)
	mustAcquire(t, m, Request{Object: obj, Owner: holder, Colour: c, Mode: Write})
	got := make(chan error, 1)
	go func() {
		got <- m.Acquire(context.Background(), Request{Object: obj, Owner: waiter, Colour: c, Mode: Write})
	}()
	waitForWaiters(t, m, obj, 1)
	m.ReleaseAll(holder)
	if err := <-got; err != nil {
		t.Fatalf("blocked acquire: %v", err)
	}
	m.ReleaseAll(waiter)
	return m
}

// TestCountersOutliveTheirManager: the process counters include a
// manager's counts after it is collected, as they do for one a
// restarted node's old runtime dropped.
func TestCountersOutliveTheirManager(t *testing.T) {
	m := blockOnce(t)
	before := gatherAggregate()
	if before.stats.blocks == 0 {
		t.Fatal("the blocked acquire was not counted")
	}
	runtime.KeepAlive(m)
	m = nil
	runtime.GC()
	runtime.GC()
	after := gatherAggregate()

	type counter struct {
		name          string
		before, after uint64
	}
	counters := []counter{
		{"blocks", before.stats.blocks, after.stats.blocks},
		{"inherited", before.stats.inherited, after.stats.inherited},
		{"released on commit", before.stats.relCommit, after.stats.relCommit},
		{"released on abort", before.stats.relAbort, after.stats.relAbort},
		{"wakeups", before.wakeups, after.wakeups},
	}
	for mode := 1; mode < 4; mode++ {
		counters = append(counters,
			counter{"grants", before.stats.grants[mode], after.stats.grants[mode]},
			counter{"conflicts", before.stats.conflicts[mode], after.stats.conflicts[mode]},
			counter{"permanent deadlocks", before.stats.permanent[mode], after.stats.permanent[mode]},
			counter{"cycles", before.cycles[mode], after.cycles[mode]},
			counter{"timeouts", before.timeouts[mode], after.timeouts[mode]},
			counter{"cancels", before.cancels[mode], after.cancels[mode]})
	}
	for _, c := range counters {
		if c.after < c.before {
			t.Errorf("%s went down from %d to %d when the manager was collected", c.name, c.before, c.after)
		}
	}
}

// waitRecorder is an Acquire context that wants its wait reported.
type waitRecorder struct {
	context.Context
	waits []time.Duration
}

func (w *waitRecorder) LockWaited(d time.Duration) { w.waits = append(w.waits, d) }

// TestAcquireReportsWaitToContext: a request that blocked tells a
// WaitObserver context how long it was parked, once; one granted at once
// tells it nothing.
func TestAcquireReportsWaitToContext(t *testing.T) {
	clk := clock.NewFake()
	tr := newTree()
	m := NewManager(tr, WithClock(clk))
	obj, c := ids.NewObjectID(), colour.Fresh()
	holder, waiter := tr.node(0), tr.node(0)

	first := &waitRecorder{Context: context.Background()}
	if err := m.Acquire(first, Request{Object: obj, Owner: holder, Colour: c, Mode: Write}); err != nil {
		t.Fatal(err)
	}
	second := &waitRecorder{Context: context.Background()}
	got := make(chan error, 1)
	go func() { got <- m.Acquire(second, Request{Object: obj, Owner: waiter, Colour: c, Mode: Write}) }()
	waitForWaiters(t, m, obj, 1)
	clk.Advance(7 * time.Millisecond)
	m.ReleaseAll(holder)
	if err := <-got; err != nil {
		t.Fatalf("blocked acquire: %v", err)
	}
	if len(first.waits) != 0 {
		t.Fatalf("an acquire granted at once reported waits %v", first.waits)
	}
	if len(second.waits) != 1 || second.waits[0] != 7*time.Millisecond {
		t.Fatalf("blocked acquire reported waits %v, want one of 7ms", second.waits)
	}
}
