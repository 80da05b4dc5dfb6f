package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mca/internal/action"
	"mca/internal/clock"
	"mca/internal/colour"
	"mca/internal/core"
	"mca/internal/diary"
	"mca/internal/dmake"
	"mca/internal/lock"
	"mca/internal/object"
	"mca/internal/structures"
	"mca/internal/workload"
)

// expFig4Fig5 is the central concurrency experiment (figs 4 and 5): a
// long-running action B works on a subset P of the objects an earlier
// action A touched. Three organisations are compared under a background
// workload contending for the objects outside P:
//
//   - unprotected: A and B as two unrelated top-level actions — fast but
//     P can be modified between A and B (interference violations);
//   - serializing: correct, but O−P stays locked for B's whole run;
//   - glued: correct, and O−P is released at A's commit.
//
// The paper's claim: glued ≈ unprotected throughput with serializing's
// protection.
func expFig4Fig5(rep *report) error {
	const (
		oSize     = 48
		pSize     = 6
		bRunTime  = 120 * time.Millisecond
		bgWorkers = 8
		// handoverGap is the paper's "interval of time between the
		// end of A and the start of B" (fig 5 discussion): the window
		// the structures must protect.
		handoverGap = 40 * time.Millisecond
	)

	type outcome struct {
		bgOps        int
		interference int
	}

	run := func(mode string) (outcome, error) {
		rt := core.NewRuntime(action.WithMaxLockWait(20 * time.Millisecond))
		objs := make([]*object.Managed[int], oSize)
		for i := range objs {
			objs[i] = object.New(0)
		}
		inP := func(i int) bool { return i < pSize }

		phaseDone := make(chan struct{})  // closed when A has committed
		bFinished := make(chan struct{})  // closed at the end of B's work
		bgDone := make(chan outcome, 1)   // background result
		interfered := make(chan int, 256) // P objects touched by outsiders mid-run
		var stopBG sync.Once
		stop := func() { stopBG.Do(func() { close(bFinished) }) }
		defer stop()

		// Background workload: write random objects; track which P
		// objects it managed to write while the A->B handover was in
		// progress.
		go func() {
			<-phaseDone
			var ops int
			var wg sync.WaitGroup
			for w := 0; w < bgWorkers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w + 1)))
					for {
						select {
						case <-bFinished:
							return
						default:
						}
						i := rng.Intn(oSize)
						err := rt.Run(func(a *action.Action) error {
							return objs[i].Write(a, func(v *int) error {
								*v++
								return nil
							})
						})
						if err == nil {
							ops++
							if inP(i) {
								// Count the write only if it completed
								// while the handover protection was
								// still supposed to hold; an op that
								// raced past bFinished acquired the
								// lock after the legitimate release.
								select {
								case <-bFinished:
								default:
									select {
									case interfered <- i:
									default:
									}
								}
							}
						}
					}
				}()
			}
			wg.Wait()
			bgDone <- outcome{bgOps: ops}
		}()

		workA := func(a *action.Action) error {
			for _, m := range objs {
				if err := m.Write(a, func(v *int) error { *v = 1; return nil }); err != nil {
					return err
				}
			}
			return nil
		}
		workB := func(a *action.Action) error {
			// Long-running computation over P. The background stops
			// before B completes (and before any structure releases
			// its retained locks), so interference is only counted
			// while the handover protection is supposed to hold.
			defer stop()
			deadline := time.Now().Add(bRunTime)
			for time.Now().Before(deadline) {
				for i := 0; i < pSize; i++ {
					if err := objs[i].Write(a, func(v *int) error { *v += 2; return nil }); err != nil {
						return err
					}
				}
				time.Sleep(5 * time.Millisecond)
			}
			return nil
		}

		// The background stops (bFinished) as soon as B's work is
		// done, BEFORE the structures release their retained locks:
		// interference is only counted during the A->B handover and
		// B's run.
		var err error
		switch mode {
		case "unprotected":
			err = rt.Run(workA)
			close(phaseDone)
			time.Sleep(handoverGap)
			if err == nil {
				err = rt.Run(workB)
			}
			stop()
		case "serializing":
			var s *structures.Serializing
			s, err = structures.BeginSerializing(rt)
			if err == nil {
				err = s.RunConstituent(workA)
				close(phaseDone)
				time.Sleep(handoverGap)
				if err == nil {
					err = s.RunConstituent(workB)
				}
				stop()
				if endErr := s.End(); err == nil {
					err = endErr
				}
			} else {
				close(phaseDone)
				stop()
			}
		case "glued":
			chain := structures.NewChain(rt)
			err = chain.RunStage(func(stage *structures.Stage) error {
				if err := workA(stage.Action); err != nil {
					return err
				}
				for i := 0; i < pSize; i++ {
					if err := stage.PassOn(objs[i].ObjectID()); err != nil {
						return err
					}
				}
				return nil
			})
			close(phaseDone)
			time.Sleep(handoverGap)
			if err == nil {
				err = chain.RunStage(func(stage *structures.Stage) error {
					return workB(stage.Action)
				})
			}
			stop()
			if endErr := chain.End(); err == nil {
				err = endErr
			}
		}
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", mode, err)
		}
		res := <-bgDone
		res.interference = len(interfered)
		return res, nil
	}

	results := make(map[string]outcome, 3)
	for _, mode := range []string{"unprotected", "serializing", "glued"} {
		res, err := run(mode)
		if err != nil {
			return err
		}
		results[mode] = res
		rep.rowf("  %-12s background ops=%5d  interference on P=%d",
			mode, res.bgOps, res.interference)
	}

	rep.check("fig 4a: unprotected allows interference on P",
		results["unprotected"].interference > 0)
	rep.check("fig 4b: serializing protects P", results["serializing"].interference == 0)
	rep.check("fig 5: glued protects P", results["glued"].interference == 0)
	rep.check("fig 5: glued background throughput >> serializing",
		results["glued"].bgOps > 2*results["serializing"].bgOps)
	return nil
}

// expFig8 reproduces fig 8: the distributed make — concurrency,
// incrementality and failure persistence.
func expFig8(rep *report) error {
	build := func(delay time.Duration, maxWorkers int, failLink bool) (*dmake.Report, *dmake.Maker, time.Duration, error) {
		rt := core.NewRuntime()
		fs := dmake.NewFS(rt)
		for _, src := range []string{"Test0.h", "Test1.h", "Test0.c", "Test1.c"} {
			fs.Create(src, "src:"+src)
		}
		mf, err := dmake.ParseMakefile(dmake.PaperMakefile)
		if err != nil {
			return nil, nil, 0, err
		}
		maker := dmake.NewMaker(fs, mf)
		maker.WorkDelay = delay
		maker.MaxWorkers = maxWorkers
		if failLink {
			maker.Compile = func(a *action.Action, f *dmake.FS, rule *dmake.Rule) error {
				if rule.Target == "Test" {
					return errInjected
				}
				return dmake.SimulatedCompile(a, f, rule)
			}
		}
		start := time.Now()
		report, err := maker.Make("Test")
		return report, maker, time.Since(start), err
	}

	// Concurrency: the object files overlap, so the parallel build
	// beats a sequential (-j1) baseline measured on the same machine.
	const d = 40 * time.Millisecond
	_, _, seqWall, err := build(d, 1, false)
	if err != nil {
		return err
	}
	report, maker, parWall, err := build(d, 0, false)
	if err != nil {
		return err
	}
	rep.rowf("  full build: executed=%v wall=%v (sequential baseline %v, per-recipe %v)",
		report.Executed, parWall.Round(time.Millisecond), seqWall.Round(time.Millisecond), d)
	rep.check("prerequisites built concurrently (MaxParallel >= 2)", report.MaxParallel >= 2)
	rep.check("parallel build beats the sequential baseline", parWall < seqWall)
	rep.check("build consistent", maker.Consistent("Test"))

	// Failure persistence.
	_, maker2, _, err := build(0, 0, true)
	if !errors.Is(err, errInjected) {
		return fmt.Errorf("expected injected failure, got %v", err)
	}
	rep.check("failed run keeps object files consistent",
		maker2.Consistent("Test0.o") && maker2.Consistent("Test1.o"))
	return nil
}

// expFig9 measures the meeting scheduler's lock narrowing across rounds.
func expFig9(rep *report) error {
	rt := core.NewRuntime()
	const people, days = 4, 24
	var diaries []*diary.Diary
	for i := 0; i < people; i++ {
		diaries = append(diaries, diary.NewDiary(fmt.Sprintf("p%d", i), days))
	}
	sched := diary.NewScheduler(rt, diaries...)

	lockCounts := []int{}
	snapshotLocks := func(cs []int) []int {
		lockCounts = append(lockCounts, rt.Locks().LockCount())
		// Keep the first half.
		if len(cs) > 1 {
			return cs[:(len(cs)+1)/2]
		}
		return cs
	}

	candidates := make([]int, 16)
	for i := range candidates {
		candidates[i] = i
	}
	chosen, err := sched.Arrange(candidates, "retrospective",
		snapshotLocks, snapshotLocks, snapshotLocks)
	if err != nil {
		return err
	}
	rep.rowf("  chosen day %d; candidates per round %v; lock-table size before each round %v",
		chosen, sched.RoundCandidates(), lockCounts)

	narrowing := true
	rounds := sched.RoundCandidates()
	for i := 1; i < len(rounds); i++ {
		if rounds[i] > rounds[i-1] {
			narrowing = false
		}
	}
	locksNarrowing := len(lockCounts) >= 2 && lockCounts[len(lockCounts)-1] < lockCounts[0]
	rep.check("candidate sets narrow monotonically", narrowing)
	rep.check("held locks shrink as rounds progress", locksNarrowing)
	rep.check("all diaries booked on the same day", func() bool {
		for _, d := range diaries {
			if s := d.Peek(chosen); !s.Busy {
				return false
			}
		}
		return true
	}())
	return nil
}

// expSingleColour checks §5.1's degeneration property on randomized
// schedules: a single-coloured system behaves exactly like conventional
// nested atomic actions (modelled independently).
func expSingleColour(rep *report) error {
	const trials = 200
	rng := rand.New(rand.NewSource(99))

	match := true
	for trial := 0; trial < trials && match; trial++ {
		rt := core.NewRuntime()
		const nObjs = 4
		objs := make([]*object.Managed[int], nObjs)
		model := make([]int, nObjs) // reference semantics
		for i := range objs {
			objs[i] = object.New(0)
		}

		// A random tree: top action, sequence of nested actions each
		// doing writes, randomly committing or aborting; top randomly
		// commits or aborts.
		top, err := rt.Begin()
		if err != nil {
			return err
		}
		topSnapshot := append([]int(nil), model...)
		steps := 2 + rng.Intn(4)
		for s := 0; s < steps; s++ {
			childSnapshot := append([]int(nil), model...)
			child, err := top.Begin()
			if err != nil {
				return err
			}
			writes := 1 + rng.Intn(3)
			for w := 0; w < writes; w++ {
				i := rng.Intn(nObjs)
				delta := rng.Intn(9) - 4
				if err := objs[i].Write(child, func(v *int) error { *v += delta; return nil }); err != nil {
					return err
				}
				model[i] += delta
			}
			if rng.Intn(2) == 0 {
				if err := child.Commit(); err != nil {
					return err
				}
			} else {
				if err := child.Abort(); err != nil {
					return err
				}
				copy(model, childSnapshot)
			}
		}
		if rng.Intn(2) == 0 {
			if err := top.Commit(); err != nil {
				return err
			}
		} else {
			if err := top.Abort(); err != nil {
				return err
			}
			copy(model, topSnapshot)
		}
		for i := range objs {
			if objs[i].Peek() != model[i] {
				match = false
			}
		}
	}
	rep.rowf("  %d randomized nested-action schedules compared against reference model", trials)
	rep.check("single-coloured system ≡ conventional atomic actions", match)
	return nil
}

// expSerializability drives concurrent conflicting transfers and checks
// the two-phase-locking serializability invariant.
func expSerializability(rep *report) error {
	rt := core.NewRuntime()
	const accounts = 6
	objs := make([]*object.Managed[int], accounts)
	for i := range objs {
		objs[i] = object.New(1000)
	}

	res := workload.Run(clock.Real(), 8, 50, func(w, i int) error {
		from := objs[(w+i)%accounts]
		to := objs[(w+i+1+i%3)%accounts]
		if from == to {
			return nil
		}
		err := rt.Run(func(a *action.Action) error {
			if err := from.Write(a, func(v *int) error { *v -= 7; return nil }); err != nil {
				return err
			}
			return to.Write(a, func(v *int) error { *v += 7; return nil })
		})
		if errors.Is(err, lock.ErrDeadlock) {
			return nil // clean abort: acceptable, invariant must hold
		}
		return err
	})
	total := 0
	for _, m := range objs {
		total += m.Peek()
	}
	rep.rowf("  %s", res)
	rep.check("no unexpected errors", res.Errors == 0)
	rep.check("total conserved under concurrent transfers", total == accounts*1000)

	// Ablation: releasing the write-colour rule would break recovery;
	// show the rule fires.
	red, blue := colour.Fresh(), colour.Fresh()
	a, err := rt.Begin(action.WithColours(red, blue))
	if err != nil {
		return err
	}
	o := object.New(0)
	if err := o.WriteIn(a, red, func(v *int) error { *v = 1; return nil }); err != nil {
		return err
	}
	err = a.TryLock(o.ObjectID(), lock.Write, blue)
	rep.check("ablation: cross-colour double write is refused (ErrDeadlock)",
		errors.Is(err, lock.ErrDeadlock))
	_ = a.Abort()
	return nil
}

// expContention sweeps worker counts over a small hot set of objects:
// throughput and deadlock-abort rates under rising two-phase-locking
// contention. The invariant (total conserved) must hold at every level.
func expContention(rep *report) error {
	const (
		accounts     = 8
		opsPerWorker = 150
	)
	for _, workers := range []int{1, 2, 4, 8} {
		rt := core.NewRuntime()
		objs := make([]*object.Managed[int], accounts)
		for i := range objs {
			objs[i] = object.New(1000)
		}
		var deadlocks int64
		var mu sync.Mutex
		res := workload.Run(clock.Real(), workers, opsPerWorker, func(w, i int) error {
			rng := (w*opsPerWorker + i) * 2654435761 // cheap hash
			from := objs[rng%accounts]
			to := objs[(rng/accounts)%accounts]
			if from == to {
				return nil
			}
			err := rt.Run(func(a *action.Action) error {
				if err := from.Write(a, func(v *int) error { *v -= 2; return nil }); err != nil {
					return err
				}
				return to.Write(a, func(v *int) error { *v += 2; return nil })
			})
			if errors.Is(err, lock.ErrDeadlock) || errors.Is(err, action.ErrAborted) {
				mu.Lock()
				deadlocks++
				mu.Unlock()
				return nil // clean abort
			}
			return err
		})
		if res.Errors != 0 {
			rep.check(fmt.Sprintf("workers=%d ran without unexpected errors", workers), false)
			continue
		}
		total := 0
		for _, m := range objs {
			total += m.Peek()
		}
		rep.rowf("  workers=%d  thru=%7.0f/s  p99=%8v  deadlock-aborts=%d/%d",
			workers, res.Throughput(), res.Latency.Percentile(99).Round(time.Microsecond),
			deadlocks, res.Ops)
		rep.check(fmt.Sprintf("workers=%d: total conserved", workers), total == accounts*1000)
	}
	return nil
}
