//go:build invariants

// Tests of CommitTransfer's closest-ancestor-holding-colour resolution
// (paper §5.2 commit rule; figs 14–15 n-level independent action shape),
// run only under the invariants build tag so every mutation is checked
// against the lock-table invariants as the transfers happen.
package lock

import (
	"testing"

	"mca/internal/colour"
	"mca/internal/ids"
)

// chainAncestry models a straight ancestor chain a1 → a2 → … → aN, the
// n-level nesting of figs 14–15: smaller IDs are ancestors of larger
// ones.
var chainAncestry = AncestryFunc(func(a, b ids.ActionID) bool { return a <= b })

// chainHeir builds a Heir resolving, per colour, the closest strict
// ancestor of owner whose colour set (per the holds table) contains the
// colour — the same walk Action.heir performs on the action tree.
func chainHeir(owner ids.ActionID, holds map[ids.ActionID]colour.Set) Heir {
	return func(c colour.Colour) (ids.ActionID, bool) {
		for anc := owner - 1; anc >= 1; anc-- {
			if holds[anc].Contains(c) {
				return anc, true
			}
		}
		return 0, false
	}
}

func TestInvariantsTagActive(t *testing.T) {
	if !InvariantsEnabled {
		t.Fatal("test file built with invariants tag but InvariantsEnabled is false")
	}
}

// TestCommitTransferSkipsNonHoldingAncestors commits a depth-5 leaf whose
// lock colour is anchored at level 2: levels 3 and 4 do not possess the
// colour, so inheritance must skip them and land on level 2 directly.
func TestCommitTransferSkipsNonHoldingAncestors(t *testing.T) {
	m := NewManager(chainAncestry)
	red := colour.Fresh()
	holds := map[ids.ActionID]colour.Set{
		1: colour.NewSet(colour.Fresh()),
		2: colour.Singleton(red),
		3: colour.NewSet(colour.Fresh()),
		4: colour.NewSet(colour.Fresh()),
		5: colour.Singleton(red),
	}
	obj := ids.NewObjectID()
	if err := m.TryAcquire(Request{Object: obj, Owner: 5, Colour: red, Mode: Write}); err != nil {
		t.Fatalf("leaf acquire: %v", err)
	}

	released := m.CommitTransfer(5, chainHeir(5, holds))
	if len(released) != 0 {
		t.Errorf("commit released %v; want inheritance, no release", released)
	}
	if !m.Holds(2, obj, Write, red) {
		t.Errorf("level 2 (closest holder of %v) did not inherit the write lock: %v", red, m.HoldersOf(obj))
	}
	for _, skipped := range []ids.ActionID{3, 4, 5} {
		if got := m.HeldObjects(skipped); len(got) != 0 {
			t.Errorf("a%d holds %v after commit; want nothing", skipped, got)
		}
	}
}

// TestCommitTransferPerColourHeirs gives the leaf two colours anchored at
// different depths; each lock must travel to its own colour's closest
// holder in one CommitTransfer call.
func TestCommitTransferPerColourHeirs(t *testing.T) {
	m := NewManager(chainAncestry)
	red, blue := colour.Fresh(), colour.Fresh()
	holds := map[ids.ActionID]colour.Set{
		1: colour.Singleton(red),
		2: colour.Singleton(blue),
		3: colour.NewSet(red, blue),
	}
	objR, objB := ids.NewObjectID(), ids.NewObjectID()
	if err := m.TryAcquire(Request{Object: objR, Owner: 3, Colour: red, Mode: Write}); err != nil {
		t.Fatalf("red acquire: %v", err)
	}
	if err := m.TryAcquire(Request{Object: objB, Owner: 3, Colour: blue, Mode: Read}); err != nil {
		t.Fatalf("blue acquire: %v", err)
	}

	if released := m.CommitTransfer(3, chainHeir(3, holds)); len(released) != 0 {
		t.Errorf("commit released %v; want both colours inherited", released)
	}
	if !m.Holds(1, objR, Write, red) {
		t.Errorf("red write lock not inherited by a1: %v", m.HoldersOf(objR))
	}
	if !m.Holds(2, objB, Read, blue) {
		t.Errorf("blue read lock not inherited by a2: %v", m.HoldersOf(objB))
	}
}

// TestCommitTransferReleasesWithoutHeir commits the outermost holder of a
// colour: no ancestor possesses it, so the lock is released outright and
// the object is reported for permanence bookkeeping.
func TestCommitTransferReleasesWithoutHeir(t *testing.T) {
	m := NewManager(chainAncestry)
	red := colour.Fresh()
	holds := map[ids.ActionID]colour.Set{
		1: colour.NewSet(colour.Fresh()),
		2: colour.Singleton(red),
	}
	obj := ids.NewObjectID()
	if err := m.TryAcquire(Request{Object: obj, Owner: 2, Colour: red, Mode: Write}); err != nil {
		t.Fatalf("acquire: %v", err)
	}

	released := m.CommitTransfer(2, chainHeir(2, holds))
	if len(released) != 1 || released[0] != obj {
		t.Errorf("released = %v; want [%v]", released, obj)
	}
	if got := m.HoldersOf(obj); len(got) != 0 {
		t.Errorf("object still locked after outermost commit: %v", got)
	}
}

// TestAssertHeirRejectsNonAncestor feeds CommitTransfer a heir that is
// not an ancestor of the committing owner; the invariant layer must
// panic rather than let locks travel sideways in the tree.
func TestAssertHeirRejectsNonAncestor(t *testing.T) {
	m := NewManager(chainAncestry)
	red := colour.Fresh()
	obj := ids.NewObjectID()
	if err := m.TryAcquire(Request{Object: obj, Owner: 3, Colour: red, Mode: Write}); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CommitTransfer with non-ancestor heir did not panic under invariants")
		}
		// The panic left the object's shard mutex held; release it so
		// that a later gather of the process's lock counters can read
		// this manager.
		m.shardOf(obj).mu.Unlock()
	}()
	m.CommitTransfer(3, func(colour.Colour) (ids.ActionID, bool) { return 7, true })
}

// TestAssertHeirRejectsSelf feeds CommitTransfer a heir equal to the
// committing owner, which would make the commit a silent no-op loop.
func TestAssertHeirRejectsSelf(t *testing.T) {
	m := NewManager(chainAncestry)
	red := colour.Fresh()
	obj := ids.NewObjectID()
	if err := m.TryAcquire(Request{Object: obj, Owner: 2, Colour: red, Mode: Write}); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CommitTransfer with self heir did not panic under invariants")
		}
		// The panic left the object's shard mutex held; release it so
		// that a later gather of the process's lock counters can read
		// this manager.
		m.shardOf(obj).mu.Unlock()
	}()
	m.CommitTransfer(2, func(colour.Colour) (ids.ActionID, bool) { return 2, true })
}
