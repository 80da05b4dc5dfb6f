package action_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/colour"
	"mca/internal/lock"
	"mca/internal/metrics"
	"mca/internal/store"
)

func TestEventKindString(t *testing.T) {
	tests := []struct {
		kind action.EventKind
		want string
	}{
		{action.EventBegin, "begin"},
		{action.EventCommit, "commit"},
		{action.EventAbort, "abort"},
		{action.EventLockWait, "lockwait"},
		{action.EventKind(9), "event(9)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

// TestObserverSeesLockWaits: a lock request that blocks reaches the
// observer as one EventLockWait of the waiting action, carrying how long
// it waited; a request granted at once reports nothing.
func TestObserverSeesLockWaits(t *testing.T) {
	var (
		mu    sync.Mutex
		waits []action.Event
	)
	rt := action.NewRuntime(action.WithObserver(func(ev action.Event) {
		if ev.Kind == action.EventLockWait {
			mu.Lock()
			defer mu.Unlock()
			waits = append(waits, ev)
		}
	}))
	r := newReg("x", nil)
	holder := mustBegin(t, rt)
	r.write(t, holder, colour.None, "held")

	parked := lockWaiters()
	waiter := mustBegin(t, rt)
	done := make(chan error, 1)
	go func() { done <- r.writeErr(waiter, colour.None, "after") }()
	for lockWaiters() == parked {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("blocked write = %v", err)
	}
	if err := waiter.Commit(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(waits) != 1 || waits[0].Action != waiter.ID() || waits[0].Waited < 5*time.Millisecond {
		t.Fatalf("lock wait events = %+v, want one of %v lasting at least 5ms", waits, waiter.ID())
	}
}

// lockWaiters reads how many lock requests are parked in the process.
func lockWaiters() float64 {
	f, _ := metrics.Default().Find("mca_lock_waiters")
	return f.Samples[0].Value
}

func TestWithMaxLockWaitBoundsWaits(t *testing.T) {
	rt := action.NewRuntime(action.WithMaxLockWait(25 * time.Millisecond))
	r := newReg("x", nil)

	holder := mustBegin(t, rt)
	r.write(t, holder, colour.None, "held")

	waiter := mustBegin(t, rt)
	start := time.Now()
	err := r.writeErr(waiter, colour.None, "blocked")
	if !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("write = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	_ = holder.Abort()
	_ = waiter.Abort()
}

func TestWithObserverReceivesLifecycle(t *testing.T) {
	var (
		mu     sync.Mutex
		events []action.Event
	)
	rt := action.NewRuntime(action.WithObserver(func(ev action.Event) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, ev)
	}))
	a := mustBegin(t, rt)
	child := mustNest(t, a)
	_ = child.Commit()
	_ = a.Abort()

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4 (2 begins, commit, abort)", len(events))
	}
	if events[0].Kind != action.EventBegin || events[0].Action != a.ID() {
		t.Fatalf("first event = %+v", events[0])
	}
	if events[1].Parent != a.ID() {
		t.Fatalf("child begin parent = %v", events[1].Parent)
	}
	if events[3].Kind != action.EventAbort {
		t.Fatalf("last event = %+v", events[3])
	}
}

func TestPerModeDefaultColours(t *testing.T) {
	rt := action.NewRuntime()
	red, blue := colour.Fresh(), colour.Fresh()

	a := mustBegin(t, rt,
		action.WithColours(red, blue),
		action.WithReadColour(blue),
		action.WithWriteColour(red))
	if a.ReadColour() != blue {
		t.Fatalf("ReadColour = %v", a.ReadColour())
	}
	if a.DefaultColour() != red {
		t.Fatalf("DefaultColour (write) = %v", a.DefaultColour())
	}

	r := newReg("x", nil)
	if err := a.Lock(r.id, lock.Read, colour.None); err != nil {
		t.Fatal(err)
	}
	if !rt.Locks().Holds(a.ID(), r.id, lock.Read, blue) {
		t.Fatal("default read must use the read colour")
	}
	if err := a.Lock(r.id, lock.Write, colour.None); err != nil {
		t.Fatal(err)
	}
	if !rt.Locks().Holds(a.ID(), r.id, lock.Write, red) {
		t.Fatal("default write must use the write colour")
	}
	_ = a.Abort()
}

func TestWriteCompanionAcquiresExclusiveRead(t *testing.T) {
	rt := action.NewRuntime()
	red, blue := colour.Fresh(), colour.Fresh()
	a := mustBegin(t, rt,
		action.WithColours(red, blue),
		action.WithWriteColour(red),
		action.WithWriteCompanion(blue))
	r := newReg("x", nil)
	if err := a.Lock(r.id, lock.Write, colour.None); err != nil {
		t.Fatal(err)
	}
	if !rt.Locks().Holds(a.ID(), r.id, lock.ExclusiveRead, blue) {
		t.Fatal("companion exclusive-read lock missing")
	}
	_ = a.Abort()
}

func TestCompanionOutsideSetRejected(t *testing.T) {
	rt := action.NewRuntime()
	red := colour.Fresh()
	foreign := colour.Fresh()
	if _, err := rt.Begin(action.WithColours(red), action.WithWriteCompanion(foreign)); !errors.Is(err, action.ErrColourNotHeld) {
		t.Fatalf("Begin = %v, want ErrColourNotHeld", err)
	}
}

func TestPrivateColoursNotInherited(t *testing.T) {
	rt := action.NewRuntime()
	anchor := colour.Fresh()
	a := mustBegin(t, rt, action.WithPrivateColours(anchor))
	if !a.Colours().Contains(anchor) {
		t.Fatal("owner must possess the private colour")
	}
	child := mustNest(t, a)
	if child.Colours().Contains(anchor) {
		t.Fatal("children must not inherit private colours")
	}
	_ = a.Abort()
}

func TestParentAndRuntimeAccessors(t *testing.T) {
	rt := action.NewRuntime()
	a := mustBegin(t, rt)
	if a.Parent() != nil {
		t.Fatal("top-level parent must be nil")
	}
	if a.Runtime() != rt {
		t.Fatal("Runtime accessor mismatch")
	}
	child := mustNest(t, a)
	if child.Parent() != a {
		t.Fatal("child parent mismatch")
	}
	_ = a.Abort()
}

func TestTryLockPaths(t *testing.T) {
	rt := action.NewRuntime()
	r := newReg("x", nil)

	holder := mustBegin(t, rt)
	if err := holder.TryLock(r.id, lock.Write, colour.None); err != nil {
		t.Fatal(err)
	}

	other := mustBegin(t, rt)
	if err := other.TryLock(r.id, lock.Write, colour.None); !errors.Is(err, lock.ErrConflict) {
		t.Fatalf("TryLock = %v, want ErrConflict", err)
	}
	_ = other.Commit()
	if err := other.TryLock(r.id, lock.Read, colour.None); !errors.Is(err, action.ErrNotActive) {
		t.Fatalf("TryLock on completed = %v, want ErrNotActive", err)
	}
	_ = holder.Abort()
}

func TestPendingWritesCapturesPersistentObjects(t *testing.T) {
	rt := action.NewRuntime()
	st := store.NewStable()
	persistent := newReg("p0", st)
	volatile := newReg("v0", nil)

	a := mustBegin(t, rt)
	persistent.write(t, a, colour.None, "p1")
	volatile.write(t, a, colour.None, "v1")

	batch, err := a.PendingWrites()
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Writes) != 1 {
		t.Fatalf("write set = %d entries, want 1 (volatile objects excluded)", len(batch.Writes))
	}
	if got := string(batch.Writes[persistent.id]); got != "p1" {
		t.Fatalf("captured state = %q", got)
	}
	_ = a.Abort()
}

func TestOnCompletionImmediateWhenAlreadyDone(t *testing.T) {
	rt := action.NewRuntime()
	a := mustBegin(t, rt)
	_ = a.Commit()

	called := make(chan action.Status, 1)
	a.OnCompletion(func(st action.Status) { called <- st })
	select {
	case st := <-called:
		if st != action.Committed {
			t.Fatalf("status = %v", st)
		}
	default:
		t.Fatal("hook on completed action must run immediately")
	}
}

func TestBeginOnNilParent(t *testing.T) {
	var a *action.Action
	if _, err := a.Begin(); err == nil {
		t.Fatal("Begin on nil parent must fail")
	}
}

func TestWithColourSetOption(t *testing.T) {
	rt := action.NewRuntime()
	set := colour.NewSet(colour.Fresh(), colour.Fresh())
	a := mustBegin(t, rt, action.WithColourSet(set))
	if !a.Colours().Equal(set) {
		t.Fatalf("colours = %v, want %v", a.Colours(), set)
	}
	_ = a.Abort()
}
