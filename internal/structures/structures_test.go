package structures_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/colour"
	"mca/internal/ids"
	"mca/internal/lock"
	"mca/internal/object"
	"mca/internal/store"
	"mca/internal/structures"
)

func newCounter(v int, st *store.Stable) *object.Managed[int] {
	if st == nil {
		return object.New(v)
	}
	return object.New(v, object.WithStore(st))
}

func incr(m *object.Managed[int], by int) func(*action.Action) error {
	return func(a *action.Action) error {
		return m.Write(a, func(v *int) error {
			*v += by
			return nil
		})
	}
}

// --- Serializing actions (figs 2, 3, 11) ---

func TestFig2NestedAbortUndoesEverything(t *testing.T) {
	// The baseline the paper contrasts with: B and C nested in atomic
	// A; A's abort undoes B's committed effects.
	rt := action.NewRuntime()
	b := newCounter(0, nil)

	a, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(incr(b, 10)); err != nil { // "B"
		t.Fatal(err)
	}
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := b.Peek(); got != 0 {
		t.Fatalf("nested system: B's effects must be undone, got %d", got)
	}
}

func TestFig3SerializingOutcomeI_NoEffects(t *testing.T) {
	// Outcome (i): B aborts, so nothing happened.
	rt := action.NewRuntime()
	st := store.NewStable()
	ob := newCounter(0, st)

	s, err := structures.BeginSerializing(rt)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err = s.RunConstituent(func(a *action.Action) error {
		if err := incr(ob, 10)(a); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("constituent = %v", err)
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	if got := ob.Peek(); got != 0 {
		t.Fatalf("outcome (i): no effects expected, got %d", got)
	}
}

func TestFig3SerializingOutcomeII_BothCommit(t *testing.T) {
	// Outcome (ii): B and C commit; effects permanent and made
	// visible together when the serializing action ends.
	rt := action.NewRuntime()
	st := store.NewStable()
	ob := newCounter(0, st)
	oc := newCounter(100, st)

	s, err := structures.BeginSerializing(rt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunConstituent(incr(ob, 10)); err != nil { // B
		t.Fatal(err)
	}

	// B's effects are already permanent (constituents are top-level
	// w.r.t. permanence)...
	if _, err := st.Read(ob.ObjectID()); err != nil {
		t.Fatalf("B's effects must be stable at B's commit: %v", err)
	}
	// ...but not visible: a stranger cannot read ob (the container
	// retains an exclusive-read lock on it).
	stranger, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := stranger.TryLock(ob.ObjectID(), lock.Read, colour.None); !errors.Is(err, lock.ErrConflict) {
		t.Fatalf("stranger read during serializing action = %v, want ErrConflict", err)
	}
	_ = stranger.Abort()

	// C reads what B wrote and writes oc.
	err = s.RunConstituent(func(a *action.Action) error {
		var bVal int
		if err := ob.Read(a, func(v int) error { bVal = v; return nil }); err != nil {
			return err
		}
		return oc.Write(a, func(v *int) error {
			*v += bVal
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}

	if got := ob.Peek(); got != 10 {
		t.Fatalf("ob = %d", got)
	}
	if got := oc.Peek(); got != 110 {
		t.Fatalf("oc = %d", got)
	}
	// Now visible.
	stranger2, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := stranger2.TryLock(ob.ObjectID(), lock.Read, colour.None); err != nil {
		t.Fatalf("read after serializing end: %v", err)
	}
	_ = stranger2.Abort()
}

func TestFig3SerializingOutcomeIII_BSurvivesCAbort(t *testing.T) {
	// Outcome (iii): B commits, C aborts; B's effects survive — the
	// functionality nested atomic actions cannot provide.
	rt := action.NewRuntime()
	st := store.NewStable()
	ob := newCounter(0, st)
	oc := newCounter(100, st)

	s, err := structures.BeginSerializing(rt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunConstituent(incr(ob, 10)); err != nil { // B commits
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err = s.RunConstituent(func(a *action.Action) error { // C aborts
		if err := incr(oc, 1)(a); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if err := s.Cancel(); err != nil { // even abandoning the container
		t.Fatal(err)
	}

	if got := ob.Peek(); got != 10 {
		t.Fatalf("B's effects must survive, ob = %d", got)
	}
	if got := oc.Peek(); got != 100 {
		t.Fatalf("C's effects must be undone, oc = %d", got)
	}
	loaded, err := object.Load[int](ob.ObjectID(), st)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Peek() != 10 {
		t.Fatalf("stable ob = %d", loaded.Peek())
	}
}

func TestFig11SerializingViaColours(t *testing.T) {
	// §5.3: the serializing structure is fig 11's colour scheme. A is
	// blue; each constituent has its own red, writes in red with a blue
	// exclusive-read companion and reads in blue. B copies r into w and C
	// doubles w; abandoning the container keeps both, as the structure's
	// Cancel does.
	constituents := func(ow, or *object.Managed[int]) []func(*action.Action) error {
		return []func(*action.Action) error{
			func(b *action.Action) error {
				var seen int
				if err := or.Read(b, func(v int) error { seen = v; return nil }); err != nil {
					return err
				}
				return ow.Write(b, func(v *int) error { *v = seen; return nil })
			},
			func(c *action.Action) error {
				return ow.Write(c, func(v *int) error { *v *= 2; return nil })
			},
		}
	}
	runColours := func() (w, r int) {
		rt := action.NewRuntime()
		blue := colour.Fresh()
		ow, or := newCounter(0, nil), newCounter(7, nil)
		a, err := rt.Begin(action.WithColours(blue))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range constituents(ow, or) {
			red := colour.Fresh()
			c, err := a.Begin(
				action.WithColours(red, blue),
				action.WithWriteColour(red),
				action.WithReadColour(blue),
				action.WithWriteCompanion(blue))
			if err != nil {
				t.Fatal(err)
			}
			if err := op(c); err != nil {
				t.Fatal(err)
			}
			if err := c.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Abort(); err != nil {
			t.Fatal(err)
		}
		return ow.Peek(), or.Peek()
	}
	runStructure := func() (w, r int) {
		rt := action.NewRuntime()
		ow, or := newCounter(0, nil), newCounter(7, nil)
		s, err := structures.BeginSerializing(rt)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range constituents(ow, or) {
			if err := s.RunConstituent(op); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Cancel(); err != nil {
			t.Fatal(err)
		}
		return ow.Peek(), or.Peek()
	}
	cw, cr := runColours()
	sw, sr := runStructure()
	if cw != 14 || cr != 7 || sw != cw || sr != cr {
		t.Fatalf("colours: w=%d r=%d; structure: w=%d r=%d; want w=14 r=7 from both", cw, cr, sw, sr)
	}
}

func TestSerializingLockTransferBetweenConstituents(t *testing.T) {
	// The defining property: locks released by B are retained by the
	// container and acquirable by C, while strangers stay locked out
	// for the whole span.
	rt := action.NewRuntime()
	ob := newCounter(0, nil)

	s, err := structures.BeginSerializing(rt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunConstituent(incr(ob, 1)); err != nil {
		t.Fatal(err)
	}

	// Container holds the exclusive-read companion.
	if !rt.Locks().Holds(s.Container().ID(), ob.ObjectID(), lock.ExclusiveRead, s.Colour()) {
		t.Fatal("container must retain an exclusive-read lock on B's written object")
	}

	// C can write it again.
	if err := s.RunConstituent(incr(ob, 1)); err != nil {
		t.Fatalf("second constituent write: %v", err)
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	if got := ob.Peek(); got != 2 {
		t.Fatalf("ob = %d", got)
	}
}

func TestSerializingConcurrentConstituents(t *testing.T) {
	// Fig 8 shape: constituents may run concurrently (distinct reds).
	rt := action.NewRuntime()
	counters := make([]*object.Managed[int], 8)
	for i := range counters {
		counters[i] = newCounter(0, nil)
	}

	s, err := structures.BeginSerializing(rt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(counters))
	for _, m := range counters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- s.RunConstituent(incr(m, 5))
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("constituent: %v", err)
		}
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	for i, m := range counters {
		if got := m.Peek(); got != 5 {
			t.Fatalf("counter %d = %d", i, got)
		}
	}
}

func TestSerializingEndTwice(t *testing.T) {
	rt := action.NewRuntime()
	s, err := structures.BeginSerializing(rt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	if err := s.End(); !errors.Is(err, structures.ErrEnded) {
		t.Fatalf("second End = %v, want ErrEnded", err)
	}
	if _, err := s.BeginConstituent(); !errors.Is(err, structures.ErrEnded) {
		t.Fatalf("BeginConstituent after End = %v, want ErrEnded", err)
	}
	if err := s.Cancel(); err != nil {
		t.Fatalf("Cancel after End must be a no-op: %v", err)
	}
}

// --- Glued actions (figs 4, 5, 6, 12) ---

func TestFig5GluedPassesExactlyTheSubset(t *testing.T) {
	// A modifies O (o1, o2, o3) and passes on P = {o1}. After A
	// commits, o2 and o3 are free for strangers while o1 stays locked
	// for B.
	rt := action.NewRuntime()
	st := store.NewStable()
	o1 := newCounter(1, st)
	o2 := newCounter(2, st)
	o3 := newCounter(3, st)

	chain := structures.NewChain(rt)
	err := chain.RunStage(func(stage *structures.Stage) error {
		for _, m := range []*object.Managed[int]{o1, o2, o3} {
			if err := m.Write(stage.Action, func(v *int) error {
				*v *= 10
				return nil
			}); err != nil {
				return err
			}
		}
		return stage.PassOn(o1.ObjectID())
	})
	if err != nil {
		t.Fatalf("stage A: %v", err)
	}

	// A's effects are permanent.
	for _, m := range []*object.Managed[int]{o1, o2, o3} {
		if _, err := st.Read(m.ObjectID()); err != nil {
			t.Fatalf("A's write to %v not stable: %v", m.ObjectID(), err)
		}
	}

	// o2, o3 are free; o1 is not.
	stranger, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := stranger.TryLock(o2.ObjectID(), lock.Write, colour.None); err != nil {
		t.Fatalf("o2 must be free after A commits: %v", err)
	}
	if err := stranger.TryLock(o3.ObjectID(), lock.Write, colour.None); err != nil {
		t.Fatalf("o3 must be free after A commits: %v", err)
	}
	if err := stranger.TryLock(o1.ObjectID(), lock.Write, colour.None); !errors.Is(err, lock.ErrConflict) {
		t.Fatalf("o1 must stay locked for B, got %v", err)
	}
	_ = stranger.Abort()

	// B writes the passed object.
	err = chain.RunStage(func(stage *structures.Stage) error {
		return o1.Write(stage.Action, func(v *int) error {
			*v++
			return nil
		})
	})
	if err != nil {
		t.Fatalf("stage B: %v", err)
	}
	if err := chain.End(); err != nil {
		t.Fatal(err)
	}
	if got := o1.Peek(); got != 11 {
		t.Fatalf("o1 = %d, want 11", got)
	}
}

func TestFig4HandoverProtection(t *testing.T) {
	// Figs 4 and 5: A writes every object of O, then B works on a subset
	// P. Between A and B an outsider tries to write one object of P and
	// one of O−P. Two unrelated top-level actions protect nothing (fig
	// 4a); the serializing action protects P but keeps O−P locked until B
	// ends (fig 4b); glued actions protect P and free O−P at A's commit
	// (fig 5), so the outsider works beside them.
	type handover func(rt *action.Runtime, a func(*action.Action) error, p ids.ObjectID, between func(), b func(*action.Action) error) error
	unprotected := func(rt *action.Runtime, a func(*action.Action) error, _ ids.ObjectID, between func(), b func(*action.Action) error) error {
		if err := rt.Run(a); err != nil {
			return err
		}
		between()
		return rt.Run(b)
	}
	serializing := func(rt *action.Runtime, a func(*action.Action) error, _ ids.ObjectID, between func(), b func(*action.Action) error) error {
		s, err := structures.BeginSerializing(rt)
		if err != nil {
			return err
		}
		if err := s.RunConstituent(a); err != nil {
			return err
		}
		between()
		if err := s.RunConstituent(b); err != nil {
			return err
		}
		return s.End()
	}
	glued := func(rt *action.Runtime, a func(*action.Action) error, p ids.ObjectID, between func(), b func(*action.Action) error) error {
		chain := structures.NewChain(rt)
		if err := chain.RunStage(func(stage *structures.Stage) error {
			if err := a(stage.Action); err != nil {
				return err
			}
			return stage.PassOn(p)
		}); err != nil {
			return err
		}
		between()
		if err := chain.RunStage(func(stage *structures.Stage) error { return b(stage.Action) }); err != nil {
			return err
		}
		return chain.End()
	}
	for _, tc := range []struct {
		name          string
		run           handover
		pFree, oPFree bool
	}{
		{"unprotected", unprotected, true, true},
		{"serializing", serializing, false, false},
		{"glued", glued, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := action.NewRuntime()
			inP, notP := newCounter(0, nil), newCounter(0, nil)
			between := func() {
				outsider, err := rt.Begin()
				if err != nil {
					t.Fatal(err)
				}
				defer outsider.Abort()
				for _, probe := range []struct {
					set  string
					m    *object.Managed[int]
					free bool
				}{{"P", inP, tc.pFree}, {"O−P", notP, tc.oPFree}} {
					err := outsider.TryLock(probe.m.ObjectID(), lock.Write, colour.None)
					if probe.free && err != nil {
						t.Errorf("outsider's write lock on %s between A and B = %v, want it granted", probe.set, err)
					}
					if !probe.free && !errors.Is(err, lock.ErrConflict) {
						t.Errorf("outsider's write lock on %s between A and B = %v, want ErrConflict", probe.set, err)
					}
				}
			}
			a := func(act *action.Action) error {
				if err := incr(inP, 1)(act); err != nil {
					return err
				}
				return incr(notP, 1)(act)
			}
			if err := tc.run(rt, a, inP.ObjectID(), between, incr(inP, 1)); err != nil {
				t.Fatal(err)
			}
			if got := inP.Peek(); got != 2 {
				t.Fatalf("P's object = %d after A and B, want 2", got)
			}
		})
	}
}

func TestFig12GluedViaColours(t *testing.T) {
	// §5.4: glued actions as colours. G (red) contains A (its own blue
	// for reads and writes); A writes inP and notP and takes a red
	// exclusive-read lock on inP. At A's commit the blue locks go, the
	// red one passes to G: notP is free, inP is not, and B (nested in G)
	// write-locks inP over G's exclusive read.
	rt := action.NewRuntime()
	red := colour.Fresh()
	inP, notP := newCounter(0, nil), newCounter(0, nil)

	g, err := rt.Begin(action.WithColours(red))
	if err != nil {
		t.Fatal(err)
	}
	blueA := colour.Fresh()
	a, err := g.Begin(
		action.WithColours(red, blueA),
		action.WithWriteColour(blueA),
		action.WithReadColour(blueA))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*object.Managed[int]{inP, notP} {
		if err := m.Write(a, func(v *int) error { *v = 1; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Lock(inP.ObjectID(), lock.ExclusiveRead, red); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}

	stranger, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := stranger.TryLock(notP.ObjectID(), lock.Read, colour.None); err != nil {
		t.Fatalf("object outside P must be free at A's commit: %v", err)
	}
	if err := stranger.TryLock(inP.ObjectID(), lock.Read, colour.None); !errors.Is(err, lock.ErrConflict) {
		t.Fatalf("stranger's read of an object in P = %v, want ErrConflict (G holds it for B)", err)
	}
	if err := stranger.Abort(); err != nil {
		t.Fatal(err)
	}

	b, err := g.Begin(action.WithColours(colour.Fresh()))
	if err != nil {
		t.Fatal(err)
	}
	if err := inP.Write(b, func(v *int) error { *v += 10; return nil }); err != nil {
		t.Fatalf("B's write over G's exclusive read: %v", err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := inP.Peek(); got != 11 {
		t.Fatalf("inP = %d, want 11", got)
	}
}

func TestGluedSecondStageAbortKeepsFirstStageEffects(t *testing.T) {
	// §3.2: "The effects of A on P should not be recovered if B
	// fails."
	rt := action.NewRuntime()
	o1 := newCounter(1, nil)

	chain := structures.NewChain(rt)
	if err := chain.RunStage(func(stage *structures.Stage) error {
		if err := o1.Write(stage.Action, func(v *int) error { *v = 42; return nil }); err != nil {
			return err
		}
		return stage.PassOn(o1.ObjectID())
	}); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	err := chain.RunStage(func(stage *structures.Stage) error {
		if err := o1.Write(stage.Action, func(v *int) error { *v = 0; return nil }); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if err := chain.End(); err != nil {
		t.Fatal(err)
	}
	if got := o1.Peek(); got != 42 {
		t.Fatalf("o1 = %d, want 42 (A's effects survive B's abort)", got)
	}
}

func TestGluedHelperTwoStages(t *testing.T) {
	rt := action.NewRuntime()
	o := newCounter(0, nil)
	err := structures.Glued(rt,
		func(stage *structures.Stage) error {
			if err := o.Write(stage.Action, func(v *int) error { *v = 1; return nil }); err != nil {
				return err
			}
			return stage.PassOn(o.ObjectID())
		},
		func(stage *structures.Stage) error {
			return o.Write(stage.Action, func(v *int) error { *v += 10; return nil })
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Peek(); got != 11 {
		t.Fatalf("o = %d", got)
	}
}

func TestChainNarrowsLocksPerRound(t *testing.T) {
	// Fig 9: each round passes on fewer objects; objects dropped in
	// round i become free as soon as round i+1 completes.
	rt := action.NewRuntime()
	slots := make([]*object.Managed[int], 4)
	for i := range slots {
		slots[i] = newCounter(i, nil)
	}

	chain := structures.NewChain(rt)
	// Round 1: lock all slots, pass on all 4.
	if err := chain.RunStage(func(stage *structures.Stage) error {
		for _, s := range slots {
			if err := s.Write(stage.Action, func(v *int) error { return nil }); err != nil {
				return err
			}
			if err := stage.PassOn(s.ObjectID()); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Round 2: keep only slots[0] and slots[1].
	if err := chain.RunStage(func(stage *structures.Stage) error {
		for _, s := range slots[:2] {
			if err := s.Write(stage.Action, func(v *int) error { return nil }); err != nil {
				return err
			}
			if err := stage.PassOn(s.ObjectID()); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// slots[2], slots[3] must now be free; slots[0] still held.
	stranger, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range slots[2:] {
		if err := stranger.TryLock(s.ObjectID(), lock.Write, colour.None); err != nil {
			t.Fatalf("dropped slot %v must be free: %v", s.ObjectID(), err)
		}
	}
	if err := stranger.TryLock(slots[0].ObjectID(), lock.Write, colour.None); !errors.Is(err, lock.ErrConflict) {
		t.Fatalf("kept slot must stay locked, got %v", err)
	}
	_ = stranger.Abort()

	if err := chain.End(); err != nil {
		t.Fatal(err)
	}
	// Everything free after the chain ends.
	stranger2, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range slots {
		if err := stranger2.TryLock(s.ObjectID(), lock.Write, colour.None); err != nil {
			t.Fatalf("slot %v must be free after End: %v", s.ObjectID(), err)
		}
	}
	_ = stranger2.Abort()
}

func TestFig6ConcurrentGluedChains(t *testing.T) {
	// n concurrent A_i -> B_i glued pairs over disjoint objects.
	rt := action.NewRuntime()
	const n = 6
	var wg sync.WaitGroup
	errs := make(chan error, n)
	results := make([]*object.Managed[int], n)
	for i := 0; i < n; i++ {
		results[i] = newCounter(0, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := results[i]
			errs <- structures.Glued(rt,
				func(stage *structures.Stage) error {
					if err := m.Write(stage.Action, func(v *int) error { *v = 1; return nil }); err != nil {
						return err
					}
					return stage.PassOn(m.ObjectID())
				},
				func(stage *structures.Stage) error {
					return m.Write(stage.Action, func(v *int) error { *v += 1; return nil })
				},
			)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("glued pair: %v", err)
		}
	}
	for i, m := range results {
		if got := m.Peek(); got != 2 {
			t.Fatalf("chain %d result = %d", i, got)
		}
	}
}

func TestChainAfterEnd(t *testing.T) {
	rt := action.NewRuntime()
	chain := structures.NewChain(rt)
	if err := chain.End(); err != nil {
		t.Fatal(err)
	}
	if err := chain.End(); !errors.Is(err, structures.ErrEnded) {
		t.Fatalf("End twice = %v, want ErrEnded", err)
	}
	err := chain.RunStage(func(*structures.Stage) error { return nil })
	if !errors.Is(err, structures.ErrEnded) {
		t.Fatalf("RunStage after End = %v, want ErrEnded", err)
	}
}

// --- Independent actions (figs 7, 13, 14, 15) ---

func TestFig7aSyncIndependentSurvivesInvokerAbort(t *testing.T) {
	rt := action.NewRuntime()
	st := store.NewStable()
	board := newCounter(0, st)
	app := newCounter(0, nil)

	invoker, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := incr(app, 1)(invoker); err != nil {
		t.Fatal(err)
	}
	// Synchronous independent action B.
	if err := structures.RunIndependent(invoker, incr(board, 10)); err != nil {
		t.Fatal(err)
	}
	// B's effects are permanent already.
	if _, err := st.Read(board.ObjectID()); err != nil {
		t.Fatalf("independent action's effects not stable: %v", err)
	}
	// Invoker aborts; B's effects survive, invoker's are undone.
	if err := invoker.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := board.Peek(); got != 10 {
		t.Fatalf("board = %d, want 10", got)
	}
	if got := app.Peek(); got != 0 {
		t.Fatalf("app = %d, want 0", got)
	}
}

func TestFig7aSyncIndependentAbortReportsToInvoker(t *testing.T) {
	// "Subsequent activities of A can be made to depend upon the
	// outcome of B."
	rt := action.NewRuntime()
	board := newCounter(0, nil)

	invoker, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("board full")
	err = structures.RunIndependent(invoker, func(a *action.Action) error {
		if err := incr(board, 10)(a); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("independent outcome = %v, want %v", err, boom)
	}
	if got := board.Peek(); got != 0 {
		t.Fatalf("aborted independent action left effects: %d", got)
	}
	_ = invoker.Abort()
}

func TestFig7bAsyncIndependent(t *testing.T) {
	rt := action.NewRuntime()
	board := newCounter(0, nil)

	invoker, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	h, err := structures.SpawnIndependent(invoker, func(a *action.Action) error {
		<-release
		return incr(board, 7)(a)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The invoker commits while B is still running.
	if err := invoker.Commit(); err != nil {
		t.Fatalf("invoker commit with async independent running: %v", err)
	}
	close(release)
	if err := h.Wait(); err != nil {
		t.Fatalf("async independent: %v", err)
	}
	if got := board.Peek(); got != 7 {
		t.Fatalf("board = %d", got)
	}
}

func TestFig7bAsyncIndependentSurvivesInvokerAbort(t *testing.T) {
	rt := action.NewRuntime()
	board := newCounter(0, nil)

	invoker, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	h, err := structures.SpawnIndependent(invoker, func(a *action.Action) error {
		close(started)
		<-release
		return incr(board, 3)(a)
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := invoker.Abort(); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := h.Wait(); err != nil {
		t.Fatalf("independent action must complete despite invoker abort: %v", err)
	}
	if got := board.Peek(); got != 3 {
		t.Fatalf("board = %d", got)
	}
}

func TestFig13IndependentCanReadInvokersLockedData(t *testing.T) {
	// The paper's caveat: in the coloured system (13b) the nested
	// independent action CAN read objects the invoker write-locked —
	// where true top-level invocation (13a) would deadlock — at the
	// price of not being "strictly speaking" independent.
	rt := action.NewRuntime()
	o := newCounter(5, nil)

	invoker, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Write(invoker, func(v *int) error { *v = 6; return nil }); err != nil {
		t.Fatal(err)
	}

	var seen int
	err = structures.RunIndependent(invoker, func(a *action.Action) error {
		return o.Read(a, func(v int) error {
			seen = v
			return nil
		})
	})
	if err != nil {
		t.Fatalf("nested independent read over invoker's write lock: %v", err)
	}
	if seen != 6 {
		t.Fatalf("saw %d, want the invoker's uncommitted 6", seen)
	}
	_ = invoker.Abort()
}

func TestFig13TrueTopLevelWouldDeadlock(t *testing.T) {
	// Contrast case (13a): an unrelated top-level action requesting
	// the invoker's write-locked object cannot proceed; with a
	// bounded wait it times out (the deadlock the paper describes).
	rt := action.NewRuntime(action.WithMaxLockWait(30 * time.Millisecond))
	o := newCounter(5, nil)

	invoker, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Write(invoker, func(v *int) error { *v = 6; return nil }); err != nil {
		t.Fatal(err)
	}

	outsider, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	err = o.Read(outsider, func(int) error { return nil })
	if !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("outsider read = %v, want ErrTimeout (deadlock of fig 13a)", err)
	}
	_ = outsider.Abort()
	_ = invoker.Abort()
}

func TestFig15NLevelIndependent(t *testing.T) {
	// A(red, blue-private) > B(red) > E(blue). C green independent of
	// A; F green independent of B.
	rt := action.NewRuntime()
	st := store.NewStable()
	oD := newCounter(0, nil) // written by B (red)
	oE := newCounter(0, nil) // written by E (blue -> A's level)
	oC := newCounter(0, st)  // written by C (independent)
	oF := newCounter(0, st)  // written by F (independent)

	a, anchor, err := structures.BeginAnchored(rt)
	if err != nil {
		t.Fatal(err)
	}
	// C: top-level independent from A.
	if err := structures.RunIndependent(a, incr(oC, 1)); err != nil {
		t.Fatal(err)
	}

	b, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if b.Colours().Contains(anchor.Colour()) {
		t.Fatal("anchor colour must not be inherited by children")
	}
	if err := incr(oD, 1)(b); err != nil { // D: B's own work
		t.Fatal(err)
	}
	// F: top-level independent from B.
	if err := structures.RunIndependent(b, incr(oF, 1)); err != nil {
		t.Fatal(err)
	}
	// E: second-level independent — commits to A's level.
	if err := structures.RunIndependentTo(b, anchor, incr(oE, 1)); err != nil {
		t.Fatal(err)
	}

	// B aborts after E committed: E's effects survive (they belong to
	// A's level now), D's do not.
	if err := b.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := oE.Peek(); got != 1 {
		t.Fatalf("oE = %d: B's abort must not undo E", got)
	}
	if got := oD.Peek(); got != 0 {
		t.Fatalf("oD = %d: B's abort must undo D", got)
	}
	// E's lock went to A, the closest ancestor holding its colour, and
	// not to B: B's abort leaves oE locked against strangers.
	stranger, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := stranger.TryLock(oE.ObjectID(), lock.Write, colour.None); !errors.Is(err, lock.ErrConflict) {
		t.Fatalf("stranger's write lock on oE after B's abort = %v, want ErrConflict (A holds it)", err)
	}
	if err := stranger.Abort(); err != nil {
		t.Fatal(err)
	}

	// A aborts: E's effects undone; C's and F's survive.
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := oE.Peek(); got != 0 {
		t.Fatalf("oE = %d: A's abort must undo E", got)
	}
	if got := oC.Peek(); got != 1 {
		t.Fatalf("oC = %d: C must survive", got)
	}
	if got := oF.Peek(); got != 1 {
		t.Fatalf("oF = %d: F must survive", got)
	}
}

func TestFig15CommitPath(t *testing.T) {
	// Same structure, but everything commits: E's effects become
	// permanent when A commits.
	rt := action.NewRuntime()
	st := store.NewStable()
	oE := newCounter(0, st)

	a, anchor, err := structures.BeginAnchored(rt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := structures.RunIndependentTo(b, anchor, incr(oE, 5)); err != nil {
		t.Fatal(err)
	}
	// Not yet stable: blue is retained by A.
	if _, err := st.Read(oE.ObjectID()); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("E's effects stable too early: %v", err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Read(oE.ObjectID()); err != nil {
		t.Fatalf("E's effects must be stable after A commits: %v", err)
	}
	if got := oE.Peek(); got != 5 {
		t.Fatalf("oE = %d", got)
	}
}

func TestSpawnIndependentTo(t *testing.T) {
	rt := action.NewRuntime()
	o := newCounter(0, nil)

	a, anchor, err := structures.BeginAnchored(rt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	h, err := structures.SpawnIndependentTo(b, anchor, incr(o, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := o.Peek(); got != 2 {
		t.Fatalf("o = %d", got)
	}
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := o.Peek(); got != 0 {
		t.Fatalf("o = %d after anchored abort, want 0", got)
	}
}

func TestSerializingViaChainEquivalence(t *testing.T) {
	// §3.2: "if all of the locks held by A are passed on to B, the
	// system of glued actions becomes identical to the serializing
	// action system". Verify the observable outcome matches.
	rt := action.NewRuntime()

	runGluedAllPassed := func(o *object.Managed[int]) error {
		return structures.Glued(rt,
			func(stage *structures.Stage) error {
				if err := o.Write(stage.Action, func(v *int) error { *v += 1; return nil }); err != nil {
					return err
				}
				return stage.PassOn(o.ObjectID())
			},
			func(stage *structures.Stage) error {
				return o.Write(stage.Action, func(v *int) error { *v *= 10; return nil })
			},
		)
	}
	runSerializing := func(o *object.Managed[int]) error {
		s, err := structures.BeginSerializing(rt)
		if err != nil {
			return err
		}
		if err := s.RunConstituent(func(a *action.Action) error {
			return o.Write(a, func(v *int) error { *v += 1; return nil })
		}); err != nil {
			return err
		}
		if err := s.RunConstituent(func(a *action.Action) error {
			return o.Write(a, func(v *int) error { *v *= 10; return nil })
		}); err != nil {
			return err
		}
		return s.End()
	}

	g := newCounter(1, nil)
	s := newCounter(1, nil)
	if err := runGluedAllPassed(g); err != nil {
		t.Fatal(err)
	}
	if err := runSerializing(s); err != nil {
		t.Fatal(err)
	}
	if g.Peek() != s.Peek() {
		t.Fatalf("glued(all passed) = %d, serializing = %d; must be identical", g.Peek(), s.Peek())
	}
}
