package core_test

import (
	"testing"

	"mca/internal/core"
)

func TestFacadeGluedChain(t *testing.T) {
	rt := core.NewRuntime()
	o := core.NewObject(0)

	chain := core.NewChain(rt)
	if err := chain.RunStage(func(stage *core.Stage) error {
		if err := o.Write(stage.Action, func(v *int) error { *v = 1; return nil }); err != nil {
			return err
		}
		return stage.PassOn(o.ObjectID())
	}); err != nil {
		t.Fatal(err)
	}
	if err := chain.RunStage(func(stage *core.Stage) error {
		return o.Write(stage.Action, func(v *int) error { *v += 10; return nil })
	}); err != nil {
		t.Fatal(err)
	}
	if err := chain.End(); err != nil {
		t.Fatal(err)
	}
	if o.Peek() != 11 {
		t.Fatalf("o = %d", o.Peek())
	}
}

func TestFacadeAnchoredIndependence(t *testing.T) {
	rt := core.NewRuntime()
	o := core.NewObject(0)

	a, anchor, err := core.BeginAnchored(rt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.RunIndependentTo(b, anchor, func(e *core.Action) error {
		return o.Write(e, func(v *int) error { *v = 5; return nil })
	}); err != nil {
		t.Fatal(err)
	}
	_ = b.Abort()
	if o.Peek() != 5 {
		t.Fatalf("o = %d after intermediate abort", o.Peek())
	}
	_ = a.Abort()
	if o.Peek() != 0 {
		t.Fatalf("o = %d after anchored abort", o.Peek())
	}
}

func TestFacadeSpawnIndependent(t *testing.T) {
	rt := core.NewRuntime()
	o := core.NewObject(0)
	invoker, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.SpawnIndependent(invoker, func(a *core.Action) error {
		return o.Write(a, func(v *int) error { *v = 3; return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	_ = invoker.Abort()
	if o.Peek() != 3 {
		t.Fatalf("o = %d", o.Peek())
	}
}

func TestFacadeNewObjectIn(t *testing.T) {
	rt := core.NewRuntime()
	a, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var m *core.Object[string]
	m, err = core.NewObjectIn(a, core.FreshColour(), "hello")
	if err == nil {
		// colour not possessed by a — must error.
		t.Fatal("NewObjectIn with foreign colour must fail")
	}
	m, err = core.NewObjectIn(a, 0, "hello") // default colour
	if err != nil {
		t.Fatal(err)
	}
	_ = a.Abort()
	if m.Exists() {
		t.Fatal("creation must be undone")
	}
}

func TestFacadeFileStore(t *testing.T) {
	dir := t.TempDir()
	fs, repaired, err := core.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if repaired {
		t.Fatal("fresh store cannot need repair")
	}
	rt := core.NewRuntime()
	o := core.NewObject("disk", core.WithStore(fs))
	if err := rt.Run(func(a *core.Action) error {
		return o.Write(a, func(v *string) error { *v = "persisted"; return nil })
	}); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadObject[string](o.ObjectID(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Peek() != "persisted" {
		t.Fatalf("loaded = %q", loaded.Peek())
	}
}

func TestFacadeColourSets(t *testing.T) {
	c1, c2 := core.FreshColour(), core.FreshColour()
	s := core.NewColourSet(c1, c2)
	if !s.Contains(c1) || s.Len() != 2 {
		t.Fatalf("set = %v", s)
	}
	rt := core.NewRuntime()
	a, err := rt.Begin(core.WithColourSet(s), core.WithDefaultColour(c1))
	if err != nil {
		t.Fatal(err)
	}
	if a.DefaultColour() != c1 {
		t.Fatalf("default = %v", a.DefaultColour())
	}
	_ = a.Abort()
}
