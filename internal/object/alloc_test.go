package object_test

import (
	"encoding/json"
	"sync/atomic"
	"testing"

	"mca/internal/action"
	"mca/internal/colour"
	"mca/internal/lock"
	"mca/internal/object"
	"mca/internal/store"
	"mca/internal/testenv"
)

// encodes counts JSON encodings of the two instrumented value types.
var encodes atomic.Int64

// countedCell is reference-free; countedList is not. Both report every
// encoding of themselves, and having a marshaler keeps both on JSON.
type (
	countedCell struct{ N [6]int }
	countedList []int
)

func (c countedCell) MarshalJSON() ([]byte, error) {
	encodes.Add(1)
	return json.Marshal(c.N)
}

func (c countedList) MarshalJSON() ([]byte, error) {
	encodes.Add(1)
	return json.Marshal([]int(c))
}

// TestWriteEncodesOnceAtCommit counts JSON encodings: a write to a
// reference-free T on JSON encodes nothing until the commit that persists
// it, which encodes once; a T that holds references pays one more for its
// before-image; nothing is encoded for a volatile object or an abort. A
// plain reference-free T encodes no JSON at all: its state is its binary
// layout.
func TestWriteEncodesOnceAtCommit(t *testing.T) {
	rt := action.NewRuntime()
	st := store.NewStable()
	cell := object.New(countedCell{}, object.WithStore(st))
	volatile := object.New(countedCell{})
	list := object.New(countedList{1}, object.WithStore(st))

	bumpCell := func(m *object.Managed[countedCell]) func(*action.Action) error {
		return func(a *action.Action) error {
			for range 3 {
				if err := m.Write(a, func(v *countedCell) error { v.N[0]++; return nil }); err != nil {
					return err
				}
			}
			return nil
		}
	}
	bumpList := func(a *action.Action) error {
		return list.Write(a, func(v *countedList) error { (*v)[0]++; return nil })
	}
	expect := func(what string, want int64, run func() error) {
		t.Helper()
		before := encodes.Load()
		if err := run(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := encodes.Load() - before; got != want {
			t.Errorf("%s: %d encodes, want %d", what, got, want)
		}
	}
	expect("three writes, still open", 0, func() error {
		a := mustBegin(t, rt)
		defer a.Abort()
		return bumpCell(cell)(a)
	})
	expect("writes + top-level commit, persistent", 1, func() error { return rt.Run(bumpCell(cell)) })
	expect("writes + top-level commit, volatile", 0, func() error { return rt.Run(bumpCell(volatile)) })
	expect("nested write + commit into a parent that commits", 1, func() error {
		return rt.Run(func(a *action.Action) error { return a.Run(bumpCell(cell)) })
	})
	expect("reference-holding T: write + abort", 1, func() error {
		a := mustBegin(t, rt)
		if err := bumpList(a); err != nil {
			return err
		}
		return a.Abort()
	})
	expect("reference-holding T: write + commit", 2, func() error { return rt.Run(bumpList) })

	plain := object.New(plainCell{}, object.WithStore(st))
	if err := rt.Run(func(a *action.Action) error {
		return plain.Write(a, func(v *plainCell) error { v.N[0]++; return nil })
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Read(plain.ObjectID()); err != nil || string(got) != "\x02\x02\x00\x00\x00\x00\x00" {
		t.Errorf("plain reference-free T: stored state %q (%v), want its binary layout", got, err)
	}
}

// plainCell is countedCell without the marshaler.
type plainCell struct{ N [6]int }

// TestWriteCommitAllocBudget is the allocation budget of the object →
// action → store path, in heap objects per operation. A first write by
// value is two objects: the image, and the action's undo log (a slice
// made by its first record — keeping the first records inside every
// Action instead was tried and cost each transaction of tcp-read-mostly
// 120 bytes). A ceiling sits at or just above today's count, so a second
// encode, a map per undo log or a journal copy per batch fail here before
// they show in the benchmark. Run with -v for the table.
func TestWriteCommitAllocBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not meaningful under -race")
	}
	type cell [6]int
	rt := action.NewRuntime()
	st := store.NewStable()
	m := object.New(cell{}, object.WithStore(st))
	bump := func(a *action.Action) error { return m.Write(a, func(v *cell) error { v[0]++; return nil }) }

	// An action that has written another object already, for the cost of
	// its second write.
	held := object.New(cell{}, object.WithStore(st))
	bumpHeld := func(a *action.Action) error { return held.Write(a, func(v *cell) error { v[0]++; return nil }) }
	open := mustBegin(t, rt)
	defer open.Abort()
	if err := bumpHeld(open); err != nil {
		t.Fatal(err)
	}

	measure := func(run func() error) float64 {
		t.Helper()
		var runErr error
		for range 20 {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := run(); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		return allocs
	}
	lockOnly := measure(func() error {
		a, err := rt.Begin()
		if err != nil {
			return err
		}
		if err := a.Lock(m.ObjectID(), lock.Write, colour.None); err != nil {
			return err
		}
		return a.Abort()
	})
	firstWrite := measure(func() error {
		a, err := rt.Begin()
		if err != nil {
			return err
		}
		if err := bump(a); err != nil {
			return err
		}
		return a.Abort()
	})
	secondWrite := measure(func() error { return bumpHeld(open) })
	writeCommit := measure(func() error { return rt.Run(bump) })

	t.Logf("begin + write lock + abort              %5.1f allocs/op", lockOnly)
	t.Logf("begin + first write + abort             %5.1f allocs/op (the write itself: %.1f, ceiling 2)", firstWrite, firstWrite-lockOnly)
	t.Logf("second write, same action               %5.1f allocs/op (ceiling 0)", secondWrite)
	t.Logf("write + top-level commit to Stable      %5.1f allocs/op (ceiling %d)", writeCommit, writeCommitCeiling)
	if d := firstWrite - lockOnly; d > 2 {
		t.Errorf("a first write of a reference-free T costs %.1f allocations beyond its lock, want at most 2 (the image, the undo log)", d)
	}
	if secondWrite > 0 {
		t.Errorf("a second write in the same action allocates %.1f objects, want 0", secondWrite)
	}
	if writeCommit > writeCommitCeiling {
		t.Errorf("write + commit: %.1f allocs/op, over its ceiling of %d", writeCommit, writeCommitCeiling)
	}
}

// writeCommitCeiling is one above today's 5: the action 1, the image 1,
// the undo log 1, the state 1 (the binary layout, laid out on the stack
// and copied once; JSON took 2, the output and its copy behind the
// discriminator), the lock table's release 1. The batch's map is reused
// from commit to commit, and the store keeps the state it is given.
const writeCommitCeiling = 6
