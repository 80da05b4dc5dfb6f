// Command timelines executes the paper's action structures and renders
// each as the timeline diagram the paper draws (figs 2, 3, 5, 7): one
// row per action, '=' spanning begin to completion, C commit, A abort.
// It is the fastest way to see what the structures actually do.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"mca/internal/action"
	"mca/internal/core"
	"mca/internal/structures"
	"mca/internal/trace"
)

const width = 64

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	if err := fig2(); err != nil {
		return err
	}
	if err := fig3(); err != nil {
		return err
	}
	if err := fig5(); err != nil {
		return err
	}
	return fig7()
}

func pause() { time.Sleep(2 * time.Millisecond) }

// fig2: nested atomic actions — the enclosing abort undoes everything.
func fig2() error {
	rec := trace.NewRecorder()
	rt := core.NewRuntime(action.WithObserver(rec.Observe))
	o := core.NewObject(0)

	a, err := rt.Begin()
	if err != nil {
		return err
	}
	rec.Label(a.ID(), "A")
	if err := a.Run(func(b *action.Action) error {
		rec.Label(b.ID(), "B")
		pause()
		return o.Write(b, func(v *int) error { *v = 1; return nil })
	}); err != nil {
		return err
	}
	if err := a.Run(func(c *action.Action) error {
		rec.Label(c.ID(), "C")
		pause()
		return o.Write(c, func(v *int) error { *v = 2; return nil })
	}); err != nil {
		return err
	}
	if err := a.Abort(); err != nil {
		return err
	}
	fmt.Printf("Fig 2 — nested atomic actions (A aborts: o=%d, everything undone)\n%s\n",
		o.Peek(), trace.Merge(rec.Spans()).Render(width))
	return nil
}

// fig3: a serializing action — constituent B's effects survive both C's
// abort and the container's cancellation.
func fig3() error {
	rec := trace.NewRecorder()
	rt := core.NewRuntime(action.WithObserver(rec.Observe))
	o := core.NewObject(0)

	s, err := structures.BeginSerializing(rt)
	if err != nil {
		return err
	}
	rec.Label(s.Container().ID(), "A (serializing)")
	if err := s.RunConstituent(func(b *action.Action) error {
		rec.Label(b.ID(), "B")
		pause()
		return o.Write(b, func(v *int) error { *v = 1; return nil })
	}); err != nil {
		return err
	}
	boom := errors.New("C fails")
	_ = s.RunConstituent(func(c *action.Action) error {
		rec.Label(c.ID(), "C")
		pause()
		if err := o.Write(c, func(v *int) error { *v = 2; return nil }); err != nil {
			return err
		}
		return boom
	})
	if err := s.Cancel(); err != nil {
		return err
	}
	fmt.Printf("Fig 3 — serializing action, outcome (iii) (B commits, C aborts: o=%d)\n%s\n",
		o.Peek(), trace.Merge(rec.Spans()).Render(width))
	return nil
}

// fig5: glued actions — A passes a subset to B.
func fig5() error {
	rec := trace.NewRecorder()
	rt := core.NewRuntime(action.WithObserver(rec.Observe))
	passed := core.NewObject(0)
	released := core.NewObject(0)

	chain := structures.NewChain(rt)
	if err := chain.RunStage(func(stage *structures.Stage) error {
		rec.Label(stage.ID(), "A")
		pause()
		for _, m := range []*core.Object[int]{passed, released} {
			if err := m.Write(stage.Action, func(v *int) error { *v = 1; return nil }); err != nil {
				return err
			}
		}
		return stage.PassOn(passed.ObjectID())
	}); err != nil {
		return err
	}
	if err := chain.RunStage(func(stage *structures.Stage) error {
		rec.Label(stage.ID(), "B")
		pause()
		return passed.Write(stage.Action, func(v *int) error { *v += 10; return nil })
	}); err != nil {
		return err
	}
	if err := chain.End(); err != nil {
		return err
	}
	fmt.Printf("Fig 5 — glued actions (passed=%d released=%d; joints shown as unnamed rows)\n%s\n",
		passed.Peek(), released.Peek(), trace.Merge(rec.Spans()).Render(width))
	return nil
}

// fig7: top-level independent actions, the invoker aborting.
func fig7() error {
	rec := trace.NewRecorder()
	rt := core.NewRuntime(action.WithObserver(rec.Observe))
	board := core.NewObject(0)

	a, err := rt.Begin()
	if err != nil {
		return err
	}
	rec.Label(a.ID(), "A (invoker)")
	if err := structures.RunIndependent(a, func(b *action.Action) error {
		rec.Label(b.ID(), "B (independent)")
		pause()
		return board.Write(b, func(v *int) error { *v = 7; return nil })
	}); err != nil {
		return err
	}
	h, err := structures.SpawnIndependent(a, func(c *action.Action) error {
		rec.Label(c.ID(), "C (async independent)")
		pause()
		return board.Write(c, func(v *int) error { *v += 1; return nil })
	})
	if err != nil {
		return err
	}
	pause()
	if err := a.Abort(); err != nil {
		return err
	}
	if err := h.Wait(); err != nil {
		return err
	}
	fmt.Printf("Fig 7 — top-level independent actions (invoker aborts, board=%d survives)\n%s\n",
		board.Peek(), trace.Merge(rec.Spans()).Render(width))
	return nil
}
