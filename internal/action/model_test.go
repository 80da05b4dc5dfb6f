package action_test

import (
	"math/rand"
	"slices"
	"testing"

	"mca/internal/action"
	"mca/internal/object"
)

// TestSingleColourMatchesNestedModel checks §5.1's degeneration property:
// with a single colour, coloured actions are conventional nested atomic
// actions. Each of 200 seeded random trees is a top-level action running
// nested children in turn, each child adding random deltas to random
// objects and then committing or aborting at random, and the top
// committing or aborting at random. Every object must end as a reference
// model of nested actions says: a child's abort restores what the child
// found, and the top's abort restores the start.
func TestSingleColourMatchesNestedModel(t *testing.T) {
	const trials, nObjs = 200, 4
	rng := rand.New(rand.NewSource(99))
	for trial := range trials {
		rt := action.NewRuntime()
		objs := make([]*object.Managed[int], nObjs)
		for i := range objs {
			objs[i] = object.New(0)
		}
		model := make([]int, nObjs)

		top := mustBegin(t, rt)
		for range 2 + rng.Intn(4) {
			found := slices.Clone(model)
			child := mustNest(t, top)
			for range 1 + rng.Intn(3) {
				i, delta := rng.Intn(nObjs), rng.Intn(9)-4
				if err := objs[i].Write(child, func(v *int) error { *v += delta; return nil }); err != nil {
					t.Fatalf("trial %d: write: %v", trial, err)
				}
				model[i] += delta
			}
			if rng.Intn(2) == 0 {
				if err := child.Commit(); err != nil {
					t.Fatalf("trial %d: child commit: %v", trial, err)
				}
			} else {
				if err := child.Abort(); err != nil {
					t.Fatalf("trial %d: child abort: %v", trial, err)
				}
				copy(model, found)
			}
		}
		if rng.Intn(2) == 0 {
			if err := top.Commit(); err != nil {
				t.Fatalf("trial %d: top commit: %v", trial, err)
			}
		} else {
			if err := top.Abort(); err != nil {
				t.Fatalf("trial %d: top abort: %v", trial, err)
			}
			clear(model)
		}
		for i, m := range objs {
			if got := m.Peek(); got != model[i] {
				t.Fatalf("trial %d: object %d = %d, reference model %d", trial, i, got, model[i])
			}
		}
	}
}
