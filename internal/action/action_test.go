package action_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/colour"
	"mca/internal/ids"
	"mca/internal/lock"
	"mca/internal/store"
)

// reg is a minimal Recoverable register for driving the runtime directly.
type reg struct {
	id ids.ObjectID
	p  action.Persister

	mu  sync.Mutex
	val string
}

func newReg(val string, p action.Persister) *reg {
	return &reg{id: ids.NewObjectID(), p: p, val: val}
}

func (r *reg) ObjectID() ids.ObjectID      { return r.id }
func (r *reg) Persister() action.Persister { return r.p }

func (r *reg) CaptureState() (store.State, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return store.State(r.val), nil
}

// regImage is a before-image of a reg.
type regImage struct {
	r   *reg
	val string
}

func (im regImage) Restore() error {
	im.r.set(im.val)
	return nil
}

func (r *reg) get() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.val
}

func (r *reg) set(v string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.val = v
}

// write performs a locked, recorded write of the register under act.
func (r *reg) write(t *testing.T, act *action.Action, c colour.Colour, v string) {
	t.Helper()
	if err := r.writeErr(act, c, v); err != nil {
		t.Fatalf("write %v under %v: %v", r.id, act.ID(), err)
	}
}

func (r *reg) writeErr(act *action.Action, c colour.Colour, v string) error {
	return r.update(act, c, func(string) string { return v })
}

// update sets the register to fn of its value in one write step of act.
func (r *reg) update(act *action.Action, c colour.Colour, fn func(string) string) error {
	return act.Step(r, lock.Write, c, func(first bool) (action.Image, error) {
		r.mu.Lock()
		defer r.mu.Unlock()
		var im action.Image
		if first {
			im = regImage{r: r, val: r.val}
		}
		r.val = fn(r.val)
		return im, nil
	})
}

func mustBegin(t *testing.T, rt *action.Runtime, opts ...action.BeginOption) *action.Action {
	t.Helper()
	a, err := rt.Begin(opts...)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	return a
}

func mustNest(t *testing.T, parent *action.Action, opts ...action.BeginOption) *action.Action {
	t.Helper()
	a, err := parent.Begin(opts...)
	if err != nil {
		t.Fatalf("Begin nested: %v", err)
	}
	return a
}

func storedVal(t *testing.T, s *store.Stable, id ids.ObjectID) (string, bool) {
	t.Helper()
	st, err := s.Read(id)
	if errors.Is(err, store.ErrNotFound) {
		return "", false
	}
	if err != nil {
		t.Fatalf("store read: %v", err)
	}
	return string(st), true
}

func TestTopLevelCommitMakesPermanent(t *testing.T) {
	rt := action.NewRuntime()
	st := store.NewStable()
	r := newReg("initial", st)

	a := mustBegin(t, rt)
	r.write(t, a, colour.None, "updated")
	if err := a.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	if got := r.get(); got != "updated" {
		t.Fatalf("in-memory value = %q", got)
	}
	got, ok := storedVal(t, st, r.id)
	if !ok || got != "updated" {
		t.Fatalf("stable state = %q, %v; want %q", got, ok, "updated")
	}
	if n := rt.ActiveActions(); n != 0 {
		t.Fatalf("ActiveActions = %d after completion", n)
	}
}

func TestTopLevelAbortRestores(t *testing.T) {
	rt := action.NewRuntime()
	st := store.NewStable()
	r := newReg("initial", st)

	a := mustBegin(t, rt)
	r.write(t, a, colour.None, "scribble")
	if err := a.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if got := r.get(); got != "initial" {
		t.Fatalf("value after abort = %q, want %q", got, "initial")
	}
	if _, ok := storedVal(t, st, r.id); ok {
		t.Fatal("abort must not touch stable storage")
	}
}

func TestNestedCommitThenParentAbortUndoes(t *testing.T) {
	// Conventional nesting: a nested action's committed effects are
	// provisional until the top level commits (paper §2, fig 1).
	rt := action.NewRuntime()
	r := newReg("v0", nil)

	top := mustBegin(t, rt)
	child := mustNest(t, top)
	r.write(t, child, colour.None, "v1")
	if err := child.Commit(); err != nil {
		t.Fatalf("child commit: %v", err)
	}
	if got := r.get(); got != "v1" {
		t.Fatalf("value after child commit = %q", got)
	}
	if err := top.Abort(); err != nil {
		t.Fatalf("top abort: %v", err)
	}
	if got := r.get(); got != "v0" {
		t.Fatalf("value after top abort = %q, want v0 (inherited record restored)", got)
	}
}

func TestNestedAbortRestoresOnlyItsWrites(t *testing.T) {
	rt := action.NewRuntime()
	rA := newReg("a0", nil)
	rB := newReg("b0", nil)

	top := mustBegin(t, rt)
	rA.write(t, top, colour.None, "a1")

	child := mustNest(t, top)
	rB.write(t, child, colour.None, "b1")
	if err := child.Abort(); err != nil {
		t.Fatalf("child abort: %v", err)
	}

	if got := rB.get(); got != "b0" {
		t.Fatalf("child's write not undone: %q", got)
	}
	if got := rA.get(); got != "a1" {
		t.Fatalf("parent's write wrongly undone: %q", got)
	}
	if err := top.Commit(); err != nil {
		t.Fatalf("top commit: %v", err)
	}
	if got := rA.get(); got != "a1" {
		t.Fatalf("after top commit: %q", got)
	}
}

func TestParentKeepsOlderBeforeImage(t *testing.T) {
	// Parent writes, child writes the same object and commits, parent
	// aborts: the object returns to its state before the PARENT's
	// write.
	rt := action.NewRuntime()
	r := newReg("v0", nil)

	top := mustBegin(t, rt)
	r.write(t, top, colour.None, "v1")
	child := mustNest(t, top)
	r.write(t, child, colour.None, "v2")
	if err := child.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := top.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := r.get(); got != "v0" {
		t.Fatalf("value = %q, want v0", got)
	}
}

func TestChildBeforeImageTransfersWhenParentDidNotWrite(t *testing.T) {
	rt := action.NewRuntime()
	r := newReg("v0", nil)

	top := mustBegin(t, rt)
	child := mustNest(t, top)
	r.write(t, child, colour.None, "v1")
	if err := child.Commit(); err != nil {
		t.Fatal(err)
	}
	// Parent writes after inheriting the record: no second record.
	r.write(t, top, colour.None, "v2")
	if err := top.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := r.get(); got != "v0" {
		t.Fatalf("value = %q, want v0 (the child's inherited before-image)", got)
	}
}

func TestFig10ColouredAction(t *testing.T) {
	// Paper fig 10: A is blue; B (nested) is red and blue. B locks Or
	// with red and Ob with blue. After B commits, red locks released
	// (red effects permanent), blue locks retained by A. If A aborts,
	// only Ob's effects are undone.
	rt := action.NewRuntime()
	st := store.NewStable()
	red, blue := colour.Fresh(), colour.Fresh()

	or := newReg("or0", st)
	ob := newReg("ob0", st)

	a := mustBegin(t, rt, action.WithColours(blue))
	b := mustNest(t, a, action.WithColours(red, blue))

	or.write(t, b, red, "or1")
	ob.write(t, b, blue, "ob1")

	if err := b.Commit(); err != nil {
		t.Fatalf("B commit: %v", err)
	}

	// Red effects are permanent now.
	if got, ok := storedVal(t, st, or.id); !ok || got != "or1" {
		t.Fatalf("Or stable state = %q, %v; want or1", got, ok)
	}
	// Blue effects are not.
	if _, ok := storedVal(t, st, ob.id); ok {
		t.Fatal("Ob must not be stable before A commits")
	}
	// A inherited the blue write lock.
	if !rt.Locks().Holds(a.ID(), ob.id, lock.Write, blue) {
		t.Fatal("A must inherit B's blue write lock on Ob")
	}
	// The red lock is gone: a stranger can read Or.
	stranger := mustBegin(t, rt)
	if err := stranger.Lock(or.id, lock.Read, colour.None); err != nil {
		t.Fatalf("stranger read of Or: %v", err)
	}
	_ = stranger.Abort()

	if err := a.Abort(); err != nil {
		t.Fatalf("A abort: %v", err)
	}
	if got := ob.get(); got != "ob0" {
		t.Fatalf("Ob after A abort = %q, want ob0", got)
	}
	if got := or.get(); got != "or1" {
		t.Fatalf("Or after A abort = %q, want or1 (red effects survive)", got)
	}
}

func TestHeirSkipsIntermediateWithoutColour(t *testing.T) {
	// Fig 15 essence: A(blue) -> B(red) -> E(blue). E's blue effects
	// pass to A, skipping B; B's abort does not undo them, A's does.
	rt := action.NewRuntime()
	red, blue := colour.Fresh(), colour.Fresh()
	r := newReg("v0", nil)

	a := mustBegin(t, rt, action.WithColours(blue))
	b := mustNest(t, a, action.WithColours(red))
	e := mustNest(t, b, action.WithColours(blue))

	r.write(t, e, blue, "v1")
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	if !rt.Locks().Holds(a.ID(), r.id, lock.Write, blue) {
		t.Fatal("A must inherit E's blue lock, skipping B")
	}

	if err := b.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := r.get(); got != "v1" {
		t.Fatalf("B's abort undid E's blue effects: %q", got)
	}

	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := r.get(); got != "v0" {
		t.Fatalf("A's abort must undo E's effects: %q", got)
	}
}

func TestCommitWithActiveSameColourChildFails(t *testing.T) {
	rt := action.NewRuntime()
	a := mustBegin(t, rt)
	child := mustNest(t, a)

	if err := a.Commit(); !errors.Is(err, action.ErrActiveChildren) {
		t.Fatalf("Commit = %v, want ErrActiveChildren", err)
	}
	if err := child.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatalf("Commit after child completed: %v", err)
	}
}

func TestCommitWithActiveIndependentChildSucceeds(t *testing.T) {
	rt := action.NewRuntime()
	a := mustBegin(t, rt)
	indep := mustNest(t, a, action.WithColours(colour.Fresh()))

	if err := a.Commit(); err != nil {
		t.Fatalf("Commit with colour-disjoint child: %v", err)
	}
	if indep.Status() != action.Active {
		t.Fatalf("independent child = %v, want Active", indep.Status())
	}
	if err := indep.Commit(); err != nil {
		t.Fatalf("independent child commit: %v", err)
	}
}

func TestAbortCascadesToSameColourChildrenButNotIndependent(t *testing.T) {
	rt := action.NewRuntime()
	rNested := newReg("n0", nil)
	rIndep := newReg("i0", nil)

	a := mustBegin(t, rt)
	nested := mustNest(t, a)
	indep := mustNest(t, a, action.WithColours(colour.Fresh()))

	rNested.write(t, nested, colour.None, "n1")
	rIndep.write(t, indep, colour.None, "i1")

	if err := a.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if nested.Status() != action.Aborted {
		t.Fatalf("nested child = %v, want Aborted", nested.Status())
	}
	if got := rNested.get(); got != "n0" {
		t.Fatalf("nested write not undone: %q", got)
	}
	if indep.Status() != action.Active {
		t.Fatalf("independent child = %v, want Active (fig 7: survives invoker abort)", indep.Status())
	}
	if err := indep.Commit(); err != nil {
		t.Fatalf("independent commit after invoker abort: %v", err)
	}
	if got := rIndep.get(); got != "i1" {
		t.Fatalf("independent effects lost: %q", got)
	}
}

func TestAbortUnblocksLockWait(t *testing.T) {
	rt := action.NewRuntime()
	obj := ids.NewObjectID()
	c := colour.Fresh()

	holder := mustBegin(t, rt, action.WithColours(c))
	if err := holder.Lock(obj, lock.Write, c); err != nil {
		t.Fatal(err)
	}

	waiter := mustBegin(t, rt, action.WithColours(c))
	got := make(chan error, 1)
	go func() {
		got <- waiter.Lock(obj, lock.Write, c)
	}()
	time.Sleep(20 * time.Millisecond)

	if err := waiter.Abort(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if !errors.Is(err, action.ErrAborted) {
			t.Fatalf("Lock = %v, want ErrAborted", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("aborting the waiter did not unblock its lock wait")
	}
	_ = holder.Abort()
}

func TestColourNotHeldErrors(t *testing.T) {
	rt := action.NewRuntime()
	foreign := colour.Fresh()
	a := mustBegin(t, rt)
	r := newReg("x", nil)

	if err := a.Lock(r.id, lock.Read, foreign); !errors.Is(err, action.ErrColourNotHeld) {
		t.Fatalf("Lock = %v, want ErrColourNotHeld", err)
	}
	if err := a.TryLock(r.id, lock.Read, foreign); !errors.Is(err, action.ErrColourNotHeld) {
		t.Fatalf("TryLock = %v, want ErrColourNotHeld", err)
	}
	if err := r.writeErr(a, foreign, "y"); !errors.Is(err, action.ErrColourNotHeld) {
		t.Fatalf("write step = %v, want ErrColourNotHeld", err)
	}
	_ = a.Abort()
}

func TestOperationsOnCompletedAction(t *testing.T) {
	rt := action.NewRuntime()
	a := mustBegin(t, rt)
	r := newReg("x", nil)
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := a.Lock(r.id, lock.Read, colour.None); !errors.Is(err, action.ErrNotActive) {
		t.Fatalf("Lock after commit = %v, want ErrNotActive", err)
	}
	if err := a.Commit(); !errors.Is(err, action.ErrNotActive) {
		t.Fatalf("double Commit = %v, want ErrNotActive", err)
	}
	if err := a.Abort(); err != nil {
		t.Fatalf("Abort after commit must be a no-op, got %v", err)
	}
	if _, err := a.Begin(); !errors.Is(err, action.ErrNotActive) {
		t.Fatalf("Begin under completed = %v, want ErrNotActive", err)
	}
}

func TestRunCommitsOnNilAndAbortsOnError(t *testing.T) {
	rt := action.NewRuntime()
	r := newReg("v0", nil)

	err := rt.Run(func(a *action.Action) error {
		return r.writeErr(a, colour.None, "v1")
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := r.get(); got != "v1" {
		t.Fatalf("value = %q", got)
	}

	wantErr := errors.New("boom")
	err = rt.Run(func(a *action.Action) error {
		if err := r.writeErr(a, colour.None, "v2"); err != nil {
			return err
		}
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("Run = %v, want %v", err, wantErr)
	}
	if got := r.get(); got != "v1" {
		t.Fatalf("value after failed Run = %q, want v1", got)
	}
}

func TestRunRethrowsPanicAfterAbort(t *testing.T) {
	rt := action.NewRuntime()
	r := newReg("v0", nil)

	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_ = rt.Run(func(a *action.Action) error {
			if err := r.writeErr(a, colour.None, "v1"); err != nil {
				return err
			}
			panic("kaboom")
		})
	}()
	if recovered != "kaboom" {
		t.Fatalf("recovered = %v, want kaboom", recovered)
	}
	if got := r.get(); got != "v0" {
		t.Fatalf("value after panic = %q, want v0", got)
	}
	if n := rt.ActiveActions(); n != 0 {
		t.Fatalf("leaked actions: %d", n)
	}
}

func TestPermanenceFailureAborts(t *testing.T) {
	rt := action.NewRuntime()
	st := store.NewStable()
	r := newReg("v0", st)

	st.Crash() // the store will reject the flush
	a := mustBegin(t, rt)
	r.write(t, a, colour.None, "v1")
	err := a.Commit()
	if !errors.Is(err, action.ErrPermanence) {
		t.Fatalf("Commit = %v, want ErrPermanence", err)
	}
	if a.Status() != action.Aborted {
		t.Fatalf("status = %v, want Aborted", a.Status())
	}
	if got := r.get(); got != "v0" {
		t.Fatalf("value = %q, want v0 restored", got)
	}
}

func TestConcurrentNestedActionsFig1(t *testing.T) {
	// Fig 1: B and C concurrent within A, touching disjoint objects.
	rt := action.NewRuntime()
	rB := newReg("b0", nil)
	rC := newReg("c0", nil)

	a := mustBegin(t, rt)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	run := func(r *reg, v string) {
		defer wg.Done()
		errs <- a.Run(func(child *action.Action) error {
			return r.writeErr(child, colour.None, v)
		})
	}
	wg.Add(2)
	go run(rB, "b1")
	go run(rC, "c1")
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent child: %v", err)
		}
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if rB.get() != "b1" || rC.get() != "c1" {
		t.Fatalf("values = %q, %q", rB.get(), rC.get())
	}
}

func TestConcurrentSiblingsConflictSerialized(t *testing.T) {
	// Two concurrent top-level actions increment the same register;
	// locking must serialize them (no lost update).
	rt := action.NewRuntime()
	r := newReg("0", nil)

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- rt.Run(func(a *action.Action) error {
				return r.update(a, colour.None, func(v string) string { return v + "+" })
			})
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("increment action: %v", err)
		}
	}
	want := "0++++++++"
	if got := r.get(); got != want {
		t.Fatalf("value = %q, want %q (lost update?)", got, want)
	}
}

func TestDefaultColourPropagation(t *testing.T) {
	rt := action.NewRuntime()
	red, blue := colour.Fresh(), colour.Fresh()

	a := mustBegin(t, rt, action.WithColours(red, blue), action.WithDefaultColour(blue))
	if a.DefaultColour() != blue {
		t.Fatalf("default = %v, want %v", a.DefaultColour(), blue)
	}
	child := mustNest(t, a)
	if child.DefaultColour() != blue {
		t.Fatalf("child default = %v, want inherited %v", child.DefaultColour(), blue)
	}
	// A child with its own colours falls back to Set.Any.
	other := mustNest(t, a, action.WithColours(red))
	if other.DefaultColour() != red {
		t.Fatalf("other default = %v, want %v", other.DefaultColour(), red)
	}
	_ = a.Abort()
}

func TestBeginValidation(t *testing.T) {
	rt := action.NewRuntime()
	if _, err := rt.Begin(action.WithColourSet(colour.NewSet())); err == nil {
		t.Fatal("empty colour set must fail")
	}
	c1, c2 := colour.Fresh(), colour.Fresh()
	if _, err := rt.Begin(action.WithColours(c1), action.WithDefaultColour(c2)); !errors.Is(err, action.ErrColourNotHeld) {
		t.Fatalf("default colour outside set = %v, want ErrColourNotHeld", err)
	}
}

func TestWithExtraColours(t *testing.T) {
	rt := action.NewRuntime()
	extra := colour.Fresh()
	a := mustBegin(t, rt)
	child := mustNest(t, a, action.WithExtraColours(extra))
	if !child.Colours().Contains(extra) {
		t.Fatal("extra colour missing")
	}
	if child.Colours().Disjoint(a.Colours()) {
		t.Fatal("parent colours must be inherited alongside extras")
	}
	_ = a.Abort()
}

func TestDeepNestingCommitChain(t *testing.T) {
	rt := action.NewRuntime()
	st := store.NewStable()
	r := newReg("d0", st)

	const depth = 16
	chain := make([]*action.Action, 0, depth)
	cur := mustBegin(t, rt)
	chain = append(chain, cur)
	for i := 1; i < depth; i++ {
		cur = mustNest(t, cur)
		chain = append(chain, cur)
	}
	r.write(t, chain[depth-1], colour.None, "dN")
	for i := depth - 1; i >= 0; i-- {
		if err := chain[i].Commit(); err != nil {
			t.Fatalf("commit depth %d: %v", i, err)
		}
	}
	if got, ok := storedVal(t, st, r.id); !ok || got != "dN" {
		t.Fatalf("stable = %q, %v", got, ok)
	}
}

func TestDeepNestingAbortAtTop(t *testing.T) {
	rt := action.NewRuntime()
	r := newReg("d0", nil)

	top := mustBegin(t, rt)
	cur := top
	for i := 0; i < 8; i++ {
		cur = mustNest(t, cur)
		r.write(t, cur, colour.None, fmt.Sprintf("d%d", i+1))
		if err := cur.Commit(); err != nil {
			t.Fatal(err)
		}
		cur = top // write again from a fresh child of top
	}
	if err := top.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := r.get(); got != "d0" {
		t.Fatalf("value = %q, want d0", got)
	}
}

func TestVolatileObjectsSkipPermanence(t *testing.T) {
	rt := action.NewRuntime()
	r := newReg("v0", nil) // no persister

	if err := rt.Run(func(a *action.Action) error {
		return r.writeErr(a, colour.None, "v1")
	}); err != nil {
		t.Fatal(err)
	}
	if got := r.get(); got != "v1" {
		t.Fatalf("value = %q", got)
	}
}

func TestStatusString(t *testing.T) {
	tests := []struct {
		s    action.Status
		want string
	}{
		{action.Active, "active"},
		{action.Committed, "committed"},
		{action.Aborted, "aborted"},
		{action.Status(77), "status(77)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

// sinkFunc adapts a function to Persister; a pointer, so comparable.
type sinkFunc struct {
	apply func(store.Batch) error
}

func (s *sinkFunc) ApplyBatch(b store.Batch) error { return s.apply(b) }

// TestCommitWithHandsTheWholeWriteSetToTheSink: one batch, whatever
// stores the objects name, and those stores are not written; a sink that
// fails aborts the action; an action with nothing to flush still calls
// the sink, with an empty batch.
func TestCommitWithHandsTheWholeWriteSetToTheSink(t *testing.T) {
	rt := action.NewRuntime()
	st1, st2 := store.NewStable(), store.NewStable()
	r1, r2 := newReg("a0", st1), newReg("b0", st2)

	var got []store.Batch
	sink := &sinkFunc{apply: func(b store.Batch) error { got = append(got, b); return nil }}
	a := mustBegin(t, rt)
	r1.write(t, a, colour.None, "a1")
	r2.write(t, a, colour.None, "b1")
	if err := a.CommitWith(sink); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Writes[r1.id]) != "a1" || string(got[0].Writes[r2.id]) != "b1" {
		t.Fatalf("sink received %v, want one batch with both objects", got)
	}
	for i, st := range []*store.Stable{st1, st2} {
		if got, err := st.Read([]ids.ObjectID{r1.id, r2.id}[i]); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("an object's own store was written behind the sink: %q, %v", got, err)
		}
	}
	if a.Status() != action.Committed || rt.Locks().LockCount() != 0 {
		t.Fatalf("status %v with %d locks held, want committed and released", a.Status(), rt.Locks().LockCount())
	}

	got = nil
	reader := mustBegin(t, rt)
	if err := reader.CommitWith(sink); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Empty() {
		t.Fatalf("sink received %v for an action without writes, want one empty batch", got)
	}

	boom := errors.New("boom")
	failing := mustBegin(t, rt)
	r1.write(t, failing, colour.None, "a2")
	err := failing.CommitWith(&sinkFunc{apply: func(store.Batch) error { return boom }})
	if !errors.Is(err, action.ErrPermanence) || !errors.Is(err, boom) {
		t.Fatalf("CommitWith = %v, want ErrPermanence wrapping the sink's error", err)
	}
	if failing.Status() != action.Aborted || r1.get() != "a1" {
		t.Fatalf("status %v value %q after a failed sink, want aborted and restored to a1", failing.Status(), r1.get())
	}
}
