package object_test

import (
	"reflect"
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
// copy. The unexported application states are mirrored by shape.
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
	)
	for _, c := range []struct {
		typ  reflect.Type
		want bool
	}{
		// Copied by assignment.
		{reflect.TypeFor[int](), true},
		{reflect.TypeFor[string](), true},
		{reflect.TypeFor[bool](), true},
		{reflect.TypeFor[float64](), true},
		{reflect.TypeFor[complex128](), true},
		{reflect.TypeFor[uintptr](), true},
		{reflect.TypeFor[cell](), true},
		{reflect.TypeFor[account](), true},
		{reflect.TypeFor[flatStruct](), true},
		{reflect.TypeFor[diary.Slot](), true},
		{reflect.TypeFor[dmake.FileState](), true},
		{reflect.TypeFor[bulletin.Posting](), true},
		{reflect.TypeFor[billing.Charge](), true},
		{reflect.TypeFor[nested](), true},
		{reflect.TypeFor[struct{}](), true},
		{reflect.TypeFor[[0]*int](), false}, // no element ever aliases, but the rule stays structural
		// Snapshotted through their encoding.
		{reflect.TypeFor[directory](), false},
		{reflect.TypeFor[map[string]int](), false},
		{reflect.TypeFor[boardState](), false},
		{reflect.TypeFor[ledgerState](), false},
		{reflect.TypeFor[[]string](), false}, // quickstart's audit log
		{reflect.TypeFor[[]int](), false},
		{reflect.TypeFor[sliceStruct](), false},
		{reflect.TypeFor[pointerStruct](), false},
		{reflect.TypeFor[deepPointer](), false},
		{reflect.TypeFor[*int](), false},
		{reflect.TypeFor[any](), false},
		{reflect.TypeFor[chan int](), false},
		{reflect.TypeFor[func()](), false},
		{reflect.TypeFor[unsafe.Pointer](), false},
		{reflect.TypeFor[[2][]int](), false},
	} {
		if got := object.ReferenceFree(c.typ); got != c.want {
			t.Errorf("referenceFree(%v) = %v, want %v", c.typ, got, c.want)
		}
	}
}
