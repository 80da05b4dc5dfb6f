package colour

import (
	"slices"
	"testing"

	"mca/internal/clock"
)

// mapSet is the map-backed Set this package used before the sorted
// inline representation, kept as the reference the new one is compared
// against.
type mapSet map[Colour]struct{}

func newMapSet(colours ...Colour) mapSet {
	m := make(mapSet, len(colours))
	for _, c := range colours {
		if c.Valid() {
			m[c] = struct{}{}
		}
	}
	return m
}

func (s mapSet) contains(c Colour) bool { _, ok := s[c]; return ok }

func (s mapSet) union(t mapSet) mapSet {
	m := make(mapSet, len(s)+len(t))
	for c := range s {
		m[c] = struct{}{}
	}
	for c := range t {
		m[c] = struct{}{}
	}
	return m
}

func (s mapSet) intersect(t mapSet) mapSet {
	m := make(mapSet)
	for c := range s {
		if t.contains(c) {
			m[c] = struct{}{}
		}
	}
	return m
}

func (s mapSet) disjoint(t mapSet) bool { return len(s.intersect(t)) == 0 }

func (s mapSet) equal(t mapSet) bool {
	return len(s) == len(t) && len(s.intersect(t)) == len(s)
}

func (s mapSet) slice() []Colour {
	out := make([]Colour, 0, len(s))
	for c := range s {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

func (s mapSet) any() Colour {
	if len(s) == 0 {
		return None
	}
	return slices.Min(s.slice())
}

// TestSetMatchesMapReference drives the Set and the map reference
// through the same seeded sequence of constructions and compares every
// observation. The universe is small so sets overlap, and draws reach
// past inlineCap and scratchCap so the inline form, the spill and the
// growth of the assembly buffers are all exercised. Built with
// -tags invariants, every Set produced is checked for well-formedness
// too.
func TestSetMatchesMapReference(t *testing.T) {
	const universe = 12
	rng := clock.NewRand(20260926)
	draw := func() []Colour {
		cs := make([]Colour, rng.Intn(scratchCap+3))
		for i := range cs {
			cs[i] = Colour(rng.Intn(universe + 1)) // 0 is None: must be ignored
		}
		return cs
	}
	check := func(step int, op string, got Set, want mapSet) {
		t.Helper()
		if !slices.Equal(got.Slice(), want.slice()) {
			t.Fatalf("step %d %s: members %v, reference %v", step, op, got.Slice(), want.slice())
		}
		if got.Len() != len(want) || got.Any() != want.any() {
			t.Fatalf("step %d %s: Len %d Any %v, reference %d %v", step, op, got.Len(), got.Any(), len(want), want.any())
		}
		for c := None; c <= universe+1; c++ {
			if got.Contains(c) != want.contains(c) {
				t.Fatalf("step %d %s: Contains(%v) = %v, reference %v", step, op, c, got.Contains(c), want.contains(c))
			}
		}
	}

	s, ref := NewSet(), newMapSet()
	for step := 0; step < 20000; step++ {
		cs := draw()
		o, oref := NewSet(cs...), newMapSet(cs...)
		check(step, "NewSet", o, oref)
		if s.Equal(o) != ref.equal(oref) || s.Disjoint(o) != ref.disjoint(oref) {
			t.Fatalf("step %d: %v vs %v: Equal %v Disjoint %v, reference %v %v",
				step, s, o, s.Equal(o), s.Disjoint(o), ref.equal(oref), ref.disjoint(oref))
		}
		switch rng.Intn(5) {
		case 0:
			s, ref = s.Union(o), ref.union(oref)
			check(step, "Union", s, ref)
		case 1:
			s, ref = s.With(cs...), ref.union(oref)
			check(step, "With", s, ref)
		case 2:
			s, ref = s.Intersect(o), ref.intersect(oref)
			check(step, "Intersect", s, ref)
		case 3:
			s, ref = o, oref
		case 4:
			c := Colour(rng.Intn(universe) + 1)
			s, ref = Singleton(c), newMapSet(c)
			check(step, "Singleton", s, ref)
		}
	}
}

// TestSmallSetsDoNotAllocate pins what the representation is for: the
// sets the paper's structures use are built, combined and queried
// without touching the heap, and adding nothing returns the receiver.
func TestSmallSetsDoNotAllocate(t *testing.T) {
	if InvariantsEnabled {
		t.Skip("the invariant checks make sets escape")
	}
	red, blue := Fresh(), Fresh()
	var sink Set
	var hits int
	allocs := testing.AllocsPerRun(1000, func() {
		top := Singleton(red)
		pair := NewSet(blue, red)
		sink = top.With()
		sink = top.With(blue)
		sink = top.Union(pair)
		if pair.Contains(blue) && !top.Disjoint(pair) && sink.Equal(pair) && pair.Any() == red {
			hits++
		}
	})
	if allocs != 0 {
		t.Fatalf("one- and two-colour set operations allocate %.1f objects per run, want 0", allocs)
	}
	if hits == 0 {
		t.Fatal("set operations returned wrong answers")
	}
}
