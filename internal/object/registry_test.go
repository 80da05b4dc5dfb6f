package object_test

import (
	"errors"
	"testing"

	"mca/internal/action"
	"mca/internal/ids"
	"mca/internal/object"
	"mca/internal/store"
)

func TestRegistryActivatesAtInitialValue(t *testing.T) {
	st := store.NewStable()
	reg := object.NewRegistry[int](st, func(ids.ObjectID) int { return 42 })

	id := ids.NewObjectID()
	m, err := reg.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if m.Peek() != 42 {
		t.Fatalf("initial = %d", m.Peek())
	}
	// Same instance on repeated Get.
	again, err := reg.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if again != m {
		t.Fatal("Get must return the same activated instance")
	}
}

func TestRegistryLoadsExistingState(t *testing.T) {
	st := store.NewStable()
	rt := action.NewRuntime()

	// Persist an object through the normal commit path.
	orig := object.New(7, object.WithStore(st))
	if err := rt.Run(func(a *action.Action) error {
		return orig.Write(a, func(v *int) error { *v = 99; return nil })
	}); err != nil {
		t.Fatal(err)
	}

	reg := object.NewRegistry[int](st, nil)
	m, err := reg.Get(orig.ObjectID())
	if err != nil {
		t.Fatal(err)
	}
	if m.Peek() != 99 {
		t.Fatalf("loaded = %d, want 99", m.Peek())
	}
}

func TestRegistryReactivateAfterCrash(t *testing.T) {
	st := store.NewStable()
	rt := action.NewRuntime()
	reg := object.NewRegistry[int](st, func(ids.ObjectID) int { return 10 })

	id := ids.NewObjectID()
	m, err := reg.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(func(a *action.Action) error {
		return m.Write(a, func(v *int) error { *v = 11; return nil })
	}); err != nil {
		t.Fatal(err)
	}

	// An uncommitted in-memory scribble, then a crash.
	a, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(a, func(v *int) error { *v = 999; return nil }); err != nil {
		t.Fatal(err)
	}
	st.Crash()
	if _, err := reg.Get(ids.NewObjectID()); !errors.Is(err, store.ErrCrashed) {
		t.Fatalf("Get through the crashed incarnation's registry = %v, want ErrCrashed", err)
	}
	if st, err = st.Restart(); err != nil {
		t.Fatal(err)
	}
	// The next incarnation activates from its own handle, in a registry of
	// its own.
	reg = object.NewRegistry[int](st, func(ids.ObjectID) int { return 10 })
	_ = a.Abort() // the old action's restore hits the abandoned instance

	fresh, err := reg.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == m {
		t.Fatal("Reactivate must produce a fresh instance")
	}
	if fresh.Peek() != 11 {
		t.Fatalf("reactivated = %d, want last committed 11", fresh.Peek())
	}
}

func TestRegistryKnown(t *testing.T) {
	st := store.NewStable()
	reg := object.NewRegistry[string](st, nil)
	ids1, ids2 := ids.NewObjectID(), ids.NewObjectID()
	if _, err := reg.Get(ids1); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get(ids2); err != nil {
		t.Fatal(err)
	}
	if got := len(reg.Known()); got != 2 {
		t.Fatalf("Known = %d", got)
	}
}
