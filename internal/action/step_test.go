package action_test

import (
	"errors"
	"sync"
	"testing"

	"mca/internal/action"
	"mca/internal/colour"
	"mca/internal/lock"
	"mca/internal/object"
	"mca/internal/store"
)

// The tests below end an action between a step's lock grant and its
// apply, the window in which a late operation could land on an ended
// action: an object's operation is one step, and its action's Commit and
// Abort are ordered against it.

// endInWindow runs end once, on the action of the next step to be granted
// its lock, before that step applies anything.
func endInWindow(t *testing.T, end func(*action.Action)) {
	var once sync.Once
	action.SetAfterGrant(t, func(a *action.Action) { once.Do(func() { end(a) }) })
}

func abortInWindow(t *testing.T) {
	endInWindow(t, func(a *action.Action) {
		if err := a.Abort(); err != nil {
			t.Error(err)
		}
	})
}

// TestAbortInStepWindowKeepsBeforeImage: a write or delete whose action
// aborts after the write lock is granted applies nothing; the value in
// memory is the before-image the abort restored.
func TestAbortInStepWindowKeepsBeforeImage(t *testing.T) {
	ops := map[string]func(*action.Action, *object.Managed[int]) error{
		"write": func(a *action.Action, m *object.Managed[int]) error {
			return m.Write(a, func(v *int) error { t.Error("fn applied after the abort"); *v = 2; return nil })
		},
		"delete": func(a *action.Action, m *object.Managed[int]) error { return m.DeleteIn(a, colour.None) },
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			rt := action.NewRuntime()
			m := object.New(0)
			a := mustBegin(t, rt)
			if err := m.Write(a, func(v *int) error { *v = 1; return nil }); err != nil {
				t.Fatal(err)
			}
			abortInWindow(t)
			if err := op(a, m); !errors.Is(err, action.ErrAborted) {
				t.Fatalf("%s = %v, want ErrAborted", name, err)
			}
			if got := m.Peek(); got != 0 || !m.Exists() {
				t.Fatalf("after the abort the object reads %d (exists %v), want its before-image 0", got, m.Exists())
			}
		})
	}
}

// TestCommitInStepWindowPersistsMemory: a write whose action commits after
// the write lock is granted applies nothing, so what the commit persisted
// is what memory holds.
func TestCommitInStepWindowPersistsMemory(t *testing.T) {
	rt := action.NewRuntime()
	st := store.NewStable()
	m := object.New(0, object.WithStore(st))
	a := mustBegin(t, rt)
	if err := m.Write(a, func(v *int) error { *v = 1; return nil }); err != nil {
		t.Fatal(err)
	}
	endInWindow(t, func(a *action.Action) {
		if err := a.Commit(); err != nil {
			t.Error(err)
		}
	})
	if err := m.Write(a, func(v *int) error { *v = 2; return nil }); !errors.Is(err, action.ErrAborted) {
		t.Fatalf("write = %v, want ErrAborted", err)
	}
	stored, err := object.Load[int](m.ObjectID(), st)
	if err != nil {
		t.Fatal(err)
	}
	if stored.Peek() != 1 || m.Peek() != 1 {
		t.Fatalf("committed %d, memory holds %d; want 1 in both", stored.Peek(), m.Peek())
	}
}

// TestLockGrantedAsActionEndsIsGivenBack: a lock the manager grants after
// the action's abort released its locks (the wait was checked before the
// abort, the grant made after it) is given back by the step, so no lock is
// left with an owner that will never release it.
func TestLockGrantedAsActionEndsIsGivenBack(t *testing.T) {
	ops := map[string]func(*action.Action, *object.Managed[int]) error{
		"write": func(a *action.Action, m *object.Managed[int]) error {
			return m.Write(a, func(v *int) error { *v = 2; return nil })
		},
		"lock": func(a *action.Action, m *object.Managed[int]) error {
			return a.Lock(m.ObjectID(), lock.Write, colour.None)
		},
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			rt := action.NewRuntime()
			m := object.New(0)
			a := mustBegin(t, rt)
			endInWindow(t, func(a *action.Action) {
				if err := a.Abort(); err != nil {
					t.Error(err)
				}
				late := lock.Request{Object: m.ObjectID(), Owner: a.ID(), Colour: a.DefaultColour(), Mode: lock.Write}
				if err := rt.Locks().TryAcquire(late); err != nil {
					t.Error(err)
				}
			})
			if err := op(a, m); !errors.Is(err, action.ErrAborted) {
				t.Fatalf("%s = %v, want ErrAborted", name, err)
			}
			stranger := mustBegin(t, rt)
			defer stranger.Abort()
			if err := stranger.TryLock(m.ObjectID(), lock.Write, colour.None); err != nil {
				t.Fatalf("a stranger's TryLock = %v: the lock granted as the action ended is still held", err)
			}
			if m.Peek() != 0 {
				t.Fatalf("the aborted write left %d in memory", m.Peek())
			}
		})
	}
}

// TestReadInStepWindowFails: a read whose action aborts after the read
// lock is granted fails without running fn, which would otherwise read
// with no lock held.
func TestReadInStepWindowFails(t *testing.T) {
	rt := action.NewRuntime()
	m := object.New(7)
	a := mustBegin(t, rt)
	abortInWindow(t)
	if err := m.Read(a, func(int) error { t.Error("fn ran after the abort"); return nil }); !errors.Is(err, action.ErrAborted) {
		t.Fatalf("read = %v, want ErrAborted", err)
	}
}
