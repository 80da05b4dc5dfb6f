package object_test

import (
	"reflect"
	"strconv"
	"testing"
	"unsafe"

	"mca/internal/billing"
	"mca/internal/bulletin"
	"mca/internal/diary"
	"mca/internal/dmake"
	"mca/internal/object"
)

// TestReferenceFreePredicate decides, for every value type the
// repository puts in a Managed, whether its before-image may be a plain
// copy, and whether its state is the binary layout. The unexported
// application states are mirrored by shape.
func TestReferenceFreePredicate(t *testing.T) {
	type (
		cell       [6]int            // bench/local.go
		directory  map[string]string // nameserver
		boardState struct {          // bulletin
			NextID   int
			Postings []bulletin.Posting
		}
		ledgerState struct { // billing
			Entries []billing.Charge
			Totals  map[string]int
		}
		nested struct {
			A struct{ B [3]struct{ C string } }
		}
		deepPointer struct {
			A struct{ B [3]struct{ C *string } }
		}
		unexported   struct{ n int }
		blank        struct{ _, N int }
		deepHidden   struct{ A [2]struct{ b bool } }
		ownMarshaler struct{ C countedCell }
	)
	for _, c := range []struct {
		typ    reflect.Type
		want   bool
		binary bool
	}{
		// Copied by assignment.
		{reflect.TypeFor[int](), true, true},
		{reflect.TypeFor[string](), true, true},
		{reflect.TypeFor[bool](), true, true},
		{reflect.TypeFor[float64](), true, true},
		{reflect.TypeFor[complex128](), true, true},
		{reflect.TypeFor[uintptr](), true, true},
		{reflect.TypeFor[cell](), true, true},
		{reflect.TypeFor[account](), true, true},
		{reflect.TypeFor[flatStruct](), true, true},
		{reflect.TypeFor[diary.Slot](), true, true},
		{reflect.TypeFor[dmake.FileState](), true, true},
		{reflect.TypeFor[bulletin.Posting](), true, true},
		{reflect.TypeFor[billing.Charge](), true, true},
		{reflect.TypeFor[nested](), true, true},
		{reflect.TypeFor[struct{}](), true, true},
		// Copied by assignment, but kept as JSON: the binary layout cannot
		// set an unexported field, and a marshaler is the type's own say.
		{reflect.TypeFor[unexported](), true, false},
		{reflect.TypeFor[blank](), true, false},
		{reflect.TypeFor[deepHidden](), true, false},
		{reflect.TypeFor[countedCell](), true, false},
		{reflect.TypeFor[ownMarshaler](), true, false},
		{reflect.TypeFor[[2]countedCell](), true, false},
		{reflect.TypeFor[textKey](), true, false},
		{reflect.TypeFor[[0]*int](), false, false}, // no element ever aliases, but the rule stays structural
		// Snapshotted through their encoding.
		{reflect.TypeFor[directory](), false, false},
		{reflect.TypeFor[map[string]int](), false, false},
		{reflect.TypeFor[boardState](), false, false},
		{reflect.TypeFor[ledgerState](), false, false},
		{reflect.TypeFor[[]string](), false, false}, // quickstart's audit log
		{reflect.TypeFor[[]int](), false, false},
		{reflect.TypeFor[sliceStruct](), false, false},
		{reflect.TypeFor[pointerStruct](), false, false},
		{reflect.TypeFor[deepPointer](), false, false},
		{reflect.TypeFor[*int](), false, false},
		{reflect.TypeFor[any](), false, false},
		{reflect.TypeFor[chan int](), false, false},
		{reflect.TypeFor[func()](), false, false},
		{reflect.TypeFor[unsafe.Pointer](), false, false},
		{reflect.TypeFor[[2][]int](), false, false},
	} {
		if got := object.ReferenceFree(c.typ); got != c.want {
			t.Errorf("referenceFree(%v) = %v, want %v", c.typ, got, c.want)
		}
		if got := object.BinaryLayout(c.typ); got != c.binary {
			t.Errorf("binary layout for %v = %v, want %v", c.typ, got, c.binary)
		}
	}
}

// textKey brings a text encoding of its own, which encoding/json honours.
type textKey struct{ K int }

func (k textKey) MarshalText() ([]byte, error) { return []byte(strconv.Itoa(k.K)), nil }
