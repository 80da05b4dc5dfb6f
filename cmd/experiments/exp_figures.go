package main

import (
	"errors"
	"sync"
	"time"

	"mca/internal/action"
	"mca/internal/colour"
	"mca/internal/core"
	"mca/internal/lock"
	"mca/internal/object"
	"mca/internal/store"
	"mca/internal/structures"
	"mca/internal/trace"
)

var errInjected = errors.New("injected failure")

func incr(m *object.Managed[int], by int) func(*action.Action) error {
	return func(a *action.Action) error {
		return m.Write(a, func(v *int) error {
			*v += by
			return nil
		})
	}
}

// expFig1 reproduces fig 1: concurrent actions B and C nested in A, and
// the outcome matrix across completion combinations.
func expFig1(rep *report) error {
	type scenario struct {
		name           string
		bFails, cFails bool
		aAborts        bool
		wantB, wantC   int
	}
	scenarios := []scenario{
		{"all commit", false, false, false, 1, 1},
		{"B aborts", true, false, false, 0, 1},
		{"C aborts", false, true, false, 1, 0},
		{"A aborts after both commit", false, false, true, 0, 0},
	}
	for _, sc := range scenarios {
		rt := core.NewRuntime()
		ob := object.New(0)
		oc := object.New(0)
		a, err := rt.Begin()
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		results := make(chan error, 2)
		runChild := func(m *object.Managed[int], fail bool) {
			defer wg.Done()
			results <- a.Run(func(child *action.Action) error {
				if err := incr(m, 1)(child); err != nil {
					return err
				}
				if fail {
					return errInjected
				}
				return nil
			})
		}
		wg.Add(2)
		go runChild(ob, sc.bFails)
		go runChild(oc, sc.cFails)
		wg.Wait()
		close(results)
		for err := range results {
			if err != nil && !errors.Is(err, errInjected) {
				return err
			}
		}
		if sc.aAborts {
			if err := a.Abort(); err != nil {
				return err
			}
		} else if err := a.Commit(); err != nil {
			return err
		}
		rep.check(sc.name, ob.Peek() == sc.wantB && oc.Peek() == sc.wantC)
	}
	return nil
}

// expFig2Fig3 contrasts nested atomic actions (fig 2) with serializing
// actions (fig 3) and verifies the three serializing outcomes of §3.1.
func expFig2Fig3(rep *report) error {
	// Fig 2: nested system; A's abort undoes committed B.
	{
		rt := core.NewRuntime()
		ob := object.New(0)
		a, err := rt.Begin()
		if err != nil {
			return err
		}
		if err := a.Run(incr(ob, 1)); err != nil {
			return err
		}
		if err := a.Abort(); err != nil {
			return err
		}
		rep.check("fig 2 nested: A's abort undoes B's committed effects", ob.Peek() == 0)
	}

	// Fig 3 outcome (i): B aborts, no effects.
	{
		rt := core.NewRuntime()
		ob := object.New(0)
		s, err := structures.BeginSerializing(rt)
		if err != nil {
			return err
		}
		err = s.RunConstituent(func(a *action.Action) error {
			if err := incr(ob, 1)(a); err != nil {
				return err
			}
			return errInjected
		})
		if !errors.Is(err, errInjected) {
			return err
		}
		if err := s.End(); err != nil {
			return err
		}
		rep.check("fig 3 outcome (i): B aborts, no effects", ob.Peek() == 0)
	}

	// Fig 3 outcome (ii): B and C commit; effects permanent and made
	// visible together.
	{
		rt := core.NewRuntime()
		st := store.NewStable()
		ob := object.New(0, object.WithStore(st))
		s, err := structures.BeginSerializing(rt)
		if err != nil {
			return err
		}
		if err := s.RunConstituent(incr(ob, 1)); err != nil {
			return err
		}
		_, stableEarly := stableRead(st, ob.ObjectID())
		visibleEarly := strangerCanRead(rt, ob.ObjectID())
		if err := s.RunConstituent(incr(ob, 1)); err != nil {
			return err
		}
		if err := s.End(); err != nil {
			return err
		}
		visibleAfter := strangerCanRead(rt, ob.ObjectID())
		rep.check("fig 3 outcome (ii): B permanent at its commit", stableEarly)
		rep.check("fig 3 outcome (ii): not visible until serializing action ends", !visibleEarly && visibleAfter)
		rep.check("fig 3 outcome (ii): both effects applied", ob.Peek() == 2)
	}

	// Fig 3 outcome (iii): B commits, C aborts; B's effects survive.
	{
		rt := core.NewRuntime()
		ob := object.New(0)
		oc := object.New(0)
		s, err := structures.BeginSerializing(rt)
		if err != nil {
			return err
		}
		if err := s.RunConstituent(incr(ob, 1)); err != nil {
			return err
		}
		err = s.RunConstituent(func(a *action.Action) error {
			if err := incr(oc, 1)(a); err != nil {
				return err
			}
			return errInjected
		})
		if !errors.Is(err, errInjected) {
			return err
		}
		if err := s.Cancel(); err != nil {
			return err
		}
		rep.check("fig 3 outcome (iii): B survives, C undone", ob.Peek() == 1 && oc.Peek() == 0)
	}
	return nil
}

func stableRead(st *store.Stable, id core.ObjectID) (store.State, bool) {
	s, err := st.Read(id)
	return s, err == nil
}

func strangerCanRead(rt *core.Runtime, id core.ObjectID) bool {
	a, err := rt.Begin()
	if err != nil {
		return false
	}
	defer a.Abort()
	return a.TryLock(id, lock.Read, colour.None) == nil
}

// expFig6 reproduces fig 6: n concurrent glued pairs.
func expFig6(rep *report) error {
	const n = 8
	rt := core.NewRuntime()
	results := make([]*object.Managed[int], n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		results[i] = object.New(0)
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
					return m.Write(stage.Action, func(v *int) error { *v += 10; return nil })
				})
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	ok := true
	for _, m := range results {
		if m.Peek() != 11 {
			ok = false
		}
	}
	rep.rowf("  %d concurrent glued pairs completed in %v", n, time.Since(start).Round(time.Millisecond))
	rep.check("all pairs passed their subset and completed", ok)
	return nil
}

// expFig7 reproduces fig 7: synchronous and asynchronous top-level
// independent actions surviving the invoker's abort.
func expFig7(rep *report) error {
	rt := core.NewRuntime()
	st := store.NewStable()
	syncObj := object.New(0, object.WithStore(st))
	asyncObj := object.New(0, object.WithStore(st))
	appObj := object.New(0)

	invoker, err := rt.Begin()
	if err != nil {
		return err
	}
	if err := incr(appObj, 1)(invoker); err != nil {
		return err
	}
	// (a) synchronous.
	if err := structures.RunIndependent(invoker, incr(syncObj, 1)); err != nil {
		return err
	}
	// (b) asynchronous.
	release := make(chan struct{})
	h, err := structures.SpawnIndependent(invoker, func(a *action.Action) error {
		<-release
		return incr(asyncObj, 1)(a)
	})
	if err != nil {
		return err
	}
	if err := invoker.Abort(); err != nil {
		return err
	}
	close(release)
	if err := h.Wait(); err != nil {
		return err
	}

	rep.check("fig 7a: synchronous independent effects survive invoker abort", syncObj.Peek() == 1)
	rep.check("fig 7b: asynchronous independent completes despite invoker abort", asyncObj.Peek() == 1)
	rep.check("invoker's own effects undone", appObj.Peek() == 0)
	_, stable := stableRead(st, syncObj.ObjectID())
	rep.check("independent effects are permanent (stable storage)", stable)
	return nil
}

// expFig10 reproduces fig 10's two-coloured action.
func expFig10(rep *report) error {
	rt := core.NewRuntime()
	st := store.NewStable()
	red, blue := colour.Fresh(), colour.Fresh()
	or := object.New(0, object.WithStore(st))
	ob := object.New(0, object.WithStore(st))

	a, err := rt.Begin(action.WithColours(blue))
	if err != nil {
		return err
	}
	b, err := a.Begin(action.WithColours(red, blue))
	if err != nil {
		return err
	}
	if err := or.WriteIn(b, red, func(v *int) error { *v = 1; return nil }); err != nil {
		return err
	}
	if err := ob.WriteIn(b, blue, func(v *int) error { *v = 1; return nil }); err != nil {
		return err
	}
	if err := b.Commit(); err != nil {
		return err
	}
	_, redStable := stableRead(st, or.ObjectID())
	_, blueStable := stableRead(st, ob.ObjectID())
	redFree := strangerCanRead(rt, or.ObjectID())
	blueHeld := rt.Locks().Holds(a.ID(), ob.ObjectID(), lock.Write, blue)
	if err := a.Abort(); err != nil {
		return err
	}
	rep.check("red locks released and red effects permanent at B's commit", redStable && redFree)
	rep.check("blue locks retained by A, blue effects not yet permanent", blueHeld && !blueStable)
	rep.check("A's abort undoes only blue effects", or.Peek() == 1 && ob.Peek() == 0)
	return nil
}

// expFig11 verifies the §5.3 colour scheme behaves identically to the
// serializing structure.
func expFig11(rep *report) error {
	runManual := func() (int, int, error) {
		// Hand-coloured scheme of fig 11.
		rt := core.NewRuntime()
		blue := colour.Fresh()
		w := object.New(0) // set W: updated by B
		r := object.New(7) // set R: read by B

		a, err := rt.Begin(action.WithColours(blue))
		if err != nil {
			return 0, 0, err
		}
		redB := colour.Fresh()
		b, err := a.Begin(
			action.WithColours(redB, blue),
			action.WithWriteColour(redB),
			action.WithReadColour(blue),
			action.WithWriteCompanion(blue))
		if err != nil {
			return 0, 0, err
		}
		var seen int
		if err := r.Read(b, func(v int) error { seen = v; return nil }); err != nil {
			return 0, 0, err
		}
		if err := w.Write(b, func(v *int) error { *v = seen; return nil }); err != nil {
			return 0, 0, err
		}
		if err := b.Commit(); err != nil {
			return 0, 0, err
		}

		redC := colour.Fresh()
		c, err := a.Begin(
			action.WithColours(redC, blue),
			action.WithWriteColour(redC),
			action.WithReadColour(blue),
			action.WithWriteCompanion(blue))
		if err != nil {
			return 0, 0, err
		}
		if err := w.Write(c, func(v *int) error { *v *= 2; return nil }); err != nil {
			return 0, 0, err
		}
		if err := c.Commit(); err != nil {
			return 0, 0, err
		}
		if err := a.Abort(); err != nil { // even abandoning the container
			return 0, 0, err
		}
		return w.Peek(), r.Peek(), nil
	}

	runStructure := func() (int, int, error) {
		rt := core.NewRuntime()
		w := object.New(0)
		r := object.New(7)
		s, err := structures.BeginSerializing(rt)
		if err != nil {
			return 0, 0, err
		}
		if err := s.RunConstituent(func(a *action.Action) error {
			var seen int
			if err := r.Read(a, func(v int) error { seen = v; return nil }); err != nil {
				return err
			}
			return w.Write(a, func(v *int) error { *v = seen; return nil })
		}); err != nil {
			return 0, 0, err
		}
		if err := s.RunConstituent(func(a *action.Action) error {
			return w.Write(a, func(v *int) error { *v *= 2; return nil })
		}); err != nil {
			return 0, 0, err
		}
		if err := s.Cancel(); err != nil {
			return 0, 0, err
		}
		return w.Peek(), r.Peek(), nil
	}

	mw, mr, err := runManual()
	if err != nil {
		return err
	}
	sw, sr, err := runStructure()
	if err != nil {
		return err
	}
	rep.rowf("  manual colours: w=%d r=%d; structure: w=%d r=%d", mw, mr, sw, sr)
	rep.check("fig 11 colour scheme ≡ serializing structure", mw == sw && mr == sr && mw == 14)
	return nil
}

// expFig12 verifies the §5.4 glued colour scheme passes exactly P.
func expFig12(rep *report) error {
	rt := core.NewRuntime()
	red := colour.Fresh()
	inP := object.New(0)
	notP := object.New(0)

	// G, the joint container.
	g, err := rt.Begin(action.WithColours(red))
	if err != nil {
		return err
	}
	blueA := colour.Fresh()
	a, err := g.Begin(
		action.WithColours(red, blueA),
		action.WithWriteColour(blueA),
		action.WithReadColour(blueA))
	if err != nil {
		return err
	}
	for _, m := range []*object.Managed[int]{inP, notP} {
		if err := m.Write(a, func(v *int) error { *v = 1; return nil }); err != nil {
			return err
		}
	}
	if err := a.Lock(inP.ObjectID(), lock.ExclusiveRead, red); err != nil {
		return err
	}
	if err := a.Commit(); err != nil {
		return err
	}

	notPFree := strangerCanRead(rt, notP.ObjectID())
	inPHeld := !strangerCanRead(rt, inP.ObjectID())

	blueB := colour.Fresh()
	b, err := g.Begin(action.WithColours(blueB))
	if err != nil {
		return err
	}
	writeOK := inP.Write(b, func(v *int) error { *v += 10; return nil }) == nil
	if err := b.Commit(); err != nil {
		return err
	}
	if err := g.Commit(); err != nil {
		return err
	}
	rep.check("objects outside P released at A's commit", notPFree)
	rep.check("objects in P held (exclusive read) for B", inPHeld)
	rep.check("B acquires write locks over G's exclusive-read locks", writeOK && inP.Peek() == 11)
	return nil
}

// expFig13 contrasts true top-level invocation (deadlock) with the
// coloured nested form.
func expFig13(rep *report) error {
	// (a) true top-level: conflicting access deadlocks (bounded wait
	// -> timeout).
	{
		rt := core.NewRuntime(action.WithMaxLockWait(50 * time.Millisecond))
		o := object.New(0)
		invoker, err := rt.Begin()
		if err != nil {
			return err
		}
		if err := o.Write(invoker, func(v *int) error { *v = 1; return nil }); err != nil {
			return err
		}
		outsider, err := rt.Begin()
		if err != nil {
			return err
		}
		err = o.Read(outsider, func(int) error { return nil })
		rep.check("fig 13a: unrelated top-level action blocks on invoker's lock",
			errors.Is(err, lock.ErrTimeout))
		_ = outsider.Abort()
		_ = invoker.Abort()
	}
	// (b) coloured: the nested independent action reads through.
	{
		rt := core.NewRuntime()
		o := object.New(0)
		invoker, err := rt.Begin()
		if err != nil {
			return err
		}
		if err := o.Write(invoker, func(v *int) error { *v = 2; return nil }); err != nil {
			return err
		}
		var seen int
		err = structures.RunIndependent(invoker, func(a *action.Action) error {
			return o.Read(a, func(v int) error { seen = v; return nil })
		})
		rep.check("fig 13b: coloured independent action reads the invoker's data",
			err == nil && seen == 2)
		_ = invoker.Abort()
	}
	return nil
}

// expFig15 reproduces the n-level independent matrix of figs 14/15.
func expFig15(rep *report) error {
	rec := trace.NewRecorder()
	rt := core.NewRuntime(action.WithObserver(rec.Observe))
	oD := object.New(0)
	oE := object.New(0)
	oC := object.New(0)
	oF := object.New(0)

	a, anchor, err := structures.BeginAnchored(rt)
	if err != nil {
		return err
	}
	if err := structures.RunIndependent(a, incr(oC, 1)); err != nil { // C
		return err
	}
	b, err := a.Begin()
	if err != nil {
		return err
	}
	if err := incr(oD, 1)(b); err != nil { // D: B's own work
		return err
	}
	if err := structures.RunIndependent(b, incr(oF, 1)); err != nil { // F
		return err
	}
	if err := structures.RunIndependentTo(b, anchor, incr(oE, 1)); err != nil { // E
		return err
	}
	if err := b.Abort(); err != nil {
		return err
	}
	eSurvivedB := oE.Peek() == 1
	dUndone := oD.Peek() == 0
	if err := a.Abort(); err != nil {
		return err
	}
	rep.check("B's abort keeps E (second-level), undoes D", eSurvivedB && dUndone)
	rep.check("A's abort undoes E", oE.Peek() == 0)
	rep.check("C and F (top-level independent) survive everything", oC.Peek() == 1 && oF.Peek() == 1)
	spans, outcomes := rec.Spans(), make(map[string]int)
	for _, s := range spans {
		outcomes[s.Outcome]++
	}
	rep.rowf("  lifecycle: begin=%d commit=%d abort=%d",
		len(spans), outcomes[trace.OutcomeCommitted], outcomes[trace.OutcomeAborted])
	return nil
}
