//go:build invariants

package colour

import (
	"fmt"
	"slices"
)

// InvariantsEnabled reports whether the build carries the invariants tag.
const InvariantsEnabled = true

// assertWellFormed asserts the representation every Set method relies
// on: valid members in strictly ascending order, nothing behind the
// padding of the inline form, and a spill only for a set the inline form
// cannot hold. Sets are immutable and built only by the constructors in
// this package, so a violation means a constructor regressed. It panics
// on violation, formatting a copy of the members so that s stays off the
// heap.
func assertWellFormed(s Set, op string) Set {
	v := s.view()
	for i, c := range v {
		if !c.Valid() || (i > 0 && v[i-1] >= c) {
			panic(fmt.Sprintf("colour invariant: %s produced members %v, want valid colours strictly ascending", op, slices.Clone(v)))
		}
	}
	if s.spill != nil && len(s.spill) <= inlineCap {
		panic(fmt.Sprintf("colour invariant: %s spilled a set of %d colours, which fits inline", op, len(s.spill)))
	}
	if s.spill == nil {
		for _, c := range s.inline[len(v):] {
			if c.Valid() {
				panic(fmt.Sprintf("colour invariant: %s left colour %v behind the inline padding of %v", op, c, slices.Clone(v)))
			}
		}
	}
	return s
}
