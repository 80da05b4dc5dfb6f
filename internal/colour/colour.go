// Package colour implements the colour attribute of multi-coloured actions.
//
// A colour is the attribute assigned to actions and to the locks they
// acquire (paper §5). Coloured actions of the same colour possess
// properties similar to those of conventional atomic actions, but not
// necessarily with respect to actions of different colours. Actions carry
// a set of colours; every lock request names one of the requester's
// colours, and commit-time lock inheritance is resolved per colour.
package colour

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// Colour identifies one colour. The zero value None is not a valid colour
// for locking and is rejected by the lock manager.
type Colour uint64

// None is the zero Colour; it never names a real colour.
const None Colour = 0

// counter feeds Generator-less fresh colour allocation for tests and the
// automatic colour-assignment layer. Colours only need to be unique within
// a process (a simulation run); they are never persisted across runs.
var counter atomic.Uint64

// Fresh returns a process-unique colour. The structures layer (§6 of the
// paper: "generate colour assignments automatically") relies on Fresh to
// mint the reds and blues of figs 11, 12, 13 and 15.
func Fresh() Colour {
	return Colour(counter.Add(1))
}

// String renders the colour for traces, e.g. "c42".
func (c Colour) String() string {
	if c == None {
		return "none"
	}
	return fmt.Sprintf("c%d", uint64(c))
}

// Valid reports whether c names a real colour.
func (c Colour) Valid() bool { return c != None }

// Set is an immutable set of colours carried by an action. The paper
// assumes colours are statically assigned: a Set is fixed at action
// creation time and never mutated, so it is safe to share across
// goroutines without locking.
//
// The members are kept in ascending order. Sets of up to inlineCap
// colours live inside the value itself and allocate nothing; larger ones
// spill to one slice. The paper's structures need one colour (atomic and
// independent actions) or two ({red, blue} serializing constituents,
// {pass, own} glued stages), so the spill is the rare case.
type Set struct {
	// inline holds the members, None-padded, while spill is nil.
	inline [inlineCap]Colour
	// spill, when non-nil, holds every member of a set larger than
	// inlineCap.
	spill []Colour
}

const inlineCap = 2

// view returns the members in ascending order. The slice aliases s and
// must not be modified.
func (s *Set) view() []Colour {
	if s.spill != nil {
		return s.spill
	}
	n := 0
	for n < inlineCap && s.inline[n] != None {
		n++
	}
	return s.inline[:n]
}

// fromSorted builds a set from ascending, duplicate-free, valid colours.
// It copies them, so sorted may be scratch space.
func fromSorted(sorted []Colour, op string) Set {
	var s Set
	if len(sorted) <= inlineCap {
		copy(s.inline[:], sorted)
	} else {
		s.spill = append([]Colour(nil), sorted...)
	}
	return assertWellFormed(s, op)
}

// scratchCap sizes the stack buffers sets are assembled in.
const scratchCap = 8

// NewSet builds a set from the given colours. Invalid (zero) colours are
// ignored; duplicates collapse.
func NewSet(colours ...Colour) Set {
	var scratch [scratchCap]Colour
	sorted := scratch[:0]
	for _, c := range colours {
		if !c.Valid() {
			continue
		}
		i, found := slices.BinarySearch(sorted, c)
		if !found {
			sorted = slices.Insert(sorted, i, c)
		}
	}
	return fromSorted(sorted, "NewSet")
}

// Singleton returns the one-colour set {c}.
func Singleton(c Colour) Set { return assertWellFormed(Set{inline: [inlineCap]Colour{c}}, "Singleton") }

// Contains reports whether c is a member.
func (s Set) Contains(c Colour) bool {
	return slices.Contains(s.view(), c)
}

// Len returns the number of colours in the set.
func (s Set) Len() int { return len(s.view()) }

// Union returns the set s ∪ t.
func (s Set) Union(t Set) Set {
	a, b := s.view(), t.view()
	switch {
	case len(b) == 0:
		return s
	case len(a) == 0:
		return t
	}
	var scratch [scratchCap]Colour
	merged := scratch[:0]
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			merged, a = append(merged, a[0]), a[1:]
		case a[0] > b[0]:
			merged, b = append(merged, b[0]), b[1:]
		default:
			merged, a, b = append(merged, a[0]), a[1:], b[1:]
		}
	}
	merged = append(append(merged, a...), b...)
	return fromSorted(merged, "Union")
}

// With returns the set s ∪ {colours...}.
func (s Set) With(colours ...Colour) Set {
	if len(colours) == 0 {
		return s
	}
	return s.Union(NewSet(colours...))
}

// Intersect returns the set s ∩ t.
func (s Set) Intersect(t Set) Set {
	var scratch [scratchCap]Colour
	common := scratch[:0]
	for _, c := range s.view() {
		if t.Contains(c) {
			common = append(common, c)
		}
	}
	return fromSorted(common, "Intersect")
}

// Disjoint reports whether s and t share no colour.
func (s Set) Disjoint(t Set) bool {
	for _, c := range s.view() {
		if t.Contains(c) {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same colours.
func (s Set) Equal(t Set) bool { return slices.Equal(s.view(), t.view()) }

// Slice returns the members in ascending order (deterministic for traces
// and tests).
func (s Set) Slice() []Colour { return slices.Clone(s.view()) }

// Any returns an arbitrary-but-deterministic member (the smallest), or
// None for the empty set. Single-coloured actions use it as their default
// locking colour.
func (s Set) Any() Colour {
	if v := s.view(); len(v) > 0 {
		return v[0]
	}
	return None
}

// String renders like "{c1,c7}".
func (s Set) String() string {
	parts := make([]string, 0, s.Len())
	for _, c := range s.view() {
		parts = append(parts, c.String())
	}
	return "{" + strings.Join(parts, ",") + "}"
}
