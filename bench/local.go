package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"mca/internal/core"
	"mca/internal/store"
)

// Counter slots of a cell, one per structure whose effects the
// correctness gate counts separately.
const (
	slotAtomic = iota
	slotNested
	slotSerializing
	slotGlued
	slotIndependent // the independent action itself
	slotInvoker     // the action that invoked it
	numSlots
)

var slotNames = [numSlots]string{"atomic", "nested", "serializing", "glued", "independent", "invoker"}

// cell is the value of one managed object: a counter per structure, so
// the gate can tell which structure lost or invented an effect.
type cell [numSlots]int

// errDeliberate aborts an invoker on purpose.
var errDeliberate = errors.New("bench: deliberate abort")

// localSystem is the local-structures system under test: one action
// runtime, one in-memory stable store, spec.keys managed objects.
type localSystem struct {
	tr   *tracer
	rt   *core.Runtime
	st   *store.Stable
	objs []*core.Object[cell]
	// expect counts, per slot, the increments whose top-level (or
	// outermost-coloured) action committed: what stable storage must
	// hold afterwards.
	expect [numSlots]atomic.Int64
}

// newLocalSystem creates the objects and writes their initial states
// to the stable store, as one batch.
func newLocalSystem(spec *workloadSpec, tr *tracer) (*localSystem, error) {
	l := &localSystem{tr: tr, rt: core.NewRuntime(), st: core.NewStableStore()}
	l.objs = make([]*core.Object[cell], spec.keys)
	initial := store.Batch{Writes: make(map[core.ObjectID]store.State)}
	for i := range l.objs {
		l.objs[i] = core.NewObject(cell{}, core.WithStore(l.st))
		st, err := l.objs[i].CaptureState()
		if err != nil {
			return nil, err
		}
		initial.Writes[l.objs[i].ObjectID()] = st
	}
	return l, l.st.ApplyBatch(initial)
}

func (l *localSystem) close() {}

// bump increments one slot of one object under a, inside an
// object.write span when the op is traced.
func (l *localSystem) bump(a *core.Action, key uint32, slot int, tc opTrace) error {
	var t0 int64
	if tc.traced {
		t0 = l.tr.now()
	}
	err := l.objs[key].Write(a, func(v *cell) error { v[slot]++; return nil })
	if tc.traced {
		tc.child(l.tr, spObjectWrite, l.tr.newID(), t0)
	}
	return err
}

// attempt runs one try of the op. Every op touches key and its ring
// successor in that order, so two clients can never wait on each other
// in a cycle and no attempt is lost to deadlock victim selection.
func (l *localSystem) attempt(o op, tc opTrace, _ time.Time) error {
	k1, k2 := o.key, (o.key+1)%uint32(len(l.objs))
	switch o.class {
	case clsAtomic:
		err := l.rt.Run(func(a *core.Action) error { return l.bump(a, k1, slotAtomic, tc) })
		if err == nil {
			l.expect[slotAtomic].Add(1)
		}
		return err
	case clsNested:
		err := l.rt.Run(func(a *core.Action) error {
			if err := a.Run(func(b *core.Action) error { return l.bump(b, k1, slotNested, tc) }); err != nil {
				return err
			}
			return l.bump(a, k2, slotNested, tc)
		})
		if err == nil {
			l.expect[slotNested].Add(2)
		}
		return err
	case clsSerializing:
		s, err := core.BeginSerializing(l.rt)
		if err != nil {
			return err
		}
		for _, k := range []uint32{k1, k2} {
			if err := s.RunConstituent(func(a *core.Action) error { return l.bump(a, k, slotSerializing, tc) }); err != nil {
				_ = s.Cancel()
				return err
			}
			// A committed constituent is permanent whatever happens
			// to the container.
			l.expect[slotSerializing].Add(1)
		}
		if o.abort {
			return s.Cancel()
		}
		return s.End()
	case clsGlued:
		stage1 := false
		err := core.Glued(l.rt,
			func(st *core.Stage) error {
				if err := l.bump(st.Action, k1, slotGlued, tc); err != nil {
					return err
				}
				if err := l.bump(st.Action, k2, slotGlued, tc); err != nil {
					return err
				}
				return st.PassOn(l.objs[k2].ObjectID())
			},
			func(st *core.Stage) error {
				stage1 = true // the second stage only starts once the first committed
				return l.bump(st.Action, k2, slotGlued, tc)
			})
		if stage1 {
			l.expect[slotGlued].Add(2)
		}
		if err == nil {
			l.expect[slotGlued].Add(1)
		}
		return err
	case clsIndependent:
		independent := false
		err := l.rt.Run(func(a *core.Action) error {
			if err := l.bump(a, k1, slotInvoker, tc); err != nil {
				return err
			}
			if err := core.RunIndependent(a, func(c *core.Action) error { return l.bump(c, k2, slotIndependent, tc) }); err != nil {
				return err
			}
			independent = true
			if o.abort {
				return errDeliberate
			}
			return nil
		})
		if independent {
			l.expect[slotIndependent].Add(1)
		}
		if errors.Is(err, errDeliberate) {
			return nil
		}
		if err == nil {
			l.expect[slotInvoker].Add(1)
		}
		return err
	}
	return fmt.Errorf("bench: class %s is not a local op", classNames[o.class])
}

// verify reloads every object from stable storage and requires each
// structure's counter to equal the increments that committed.
func (l *localSystem) verify() error {
	var got cell
	for _, obj := range l.objs {
		m, err := core.LoadObject[cell](obj.ObjectID(), l.st)
		if err != nil {
			return err
		}
		v := m.Peek()
		for s := range got {
			got[s] += v[s]
		}
	}
	for s := range got {
		if want := l.expect[s].Load(); int64(got[s]) != want {
			return fmt.Errorf("structure %s: stable storage holds %d increments, %d committed", slotNames[s], got[s], want)
		}
	}
	return nil
}
