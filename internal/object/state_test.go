package object_test

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mca/internal/action"
	"mca/internal/colour"
	"mca/internal/dmake"
	"mca/internal/ids"
	"mca/internal/object"
	"mca/internal/store"
)

// deleted returns an object that existed and was deleted by a committed
// action: the one way a live Managed comes to hold no value.
func deleted[T any](t *testing.T, v T) *object.Managed[T] {
	t.Helper()
	m := object.New(v)
	if err := action.NewRuntime().Run(func(a *action.Action) error { return m.DeleteIn(a, colour.None) }); err != nil {
		t.Fatal(err)
	}
	return m
}

func captured[T any](t *testing.T, m *object.Managed[T]) store.State {
	t.Helper()
	st, err := m.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// wide has a field of every kind the binary layout tells apart.
type wide struct {
	B    bool
	I8   int8
	U16  uint16
	U    uintptr
	F32  float32
	F64  float64
	C64  complex64
	C128 complex128
	S    string
	A    [2]int32
}

// TestStateGoldenBytes pins the serialized forms: one discriminator byte,
// then 0x00 for an absent object and nothing after it; 0x01 and exactly
// json.Marshal of the value for a T that holds references or brings its
// own marshaler; 0x02 and the binary layout for every other T.
func TestStateGoldenBytes(t *testing.T) {
	type cell [6]int // bench/local.go
	for _, c := range []struct {
		name string
		got  store.State
		want string
	}{
		{"absent", captured(t, deleted(t, 7)), "\x00"},

		{"nil map", captured(t, object.New(map[string]int(nil))), "\x01null"},
		{"map", captured(t, object.New(map[string]int{"b": 2, "a": 1})), "\x01" + `{"a":1,"b":2}`},
		{"struct with a slice", captured(t, object.New(sliceStruct{Next: 1, Items: []int{4}})), "\x01" + `{"Next":1,"Items":[4]}`},
		{"own marshaler", captured(t, object.New(countedCell{N: [6]int{1}})), "\x01[1,0,0,0,0,0]"},

		// Signed integers are zigzag varints: 0, -1, 1, -2, … → 0, 1, 2, 3, …
		{"int 0", captured(t, object.New(0)), "\x02\x00"},
		{"int 7", captured(t, object.New(7)), "\x02\x0e"},
		{"int -1", captured(t, object.New(-1)), "\x02\x01"},
		{"int 100", captured(t, object.New(100)), "\x02\xc8\x01"},
		{"int MinInt64", captured(t, object.New(math.MinInt64)), "\x02\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"},
		{"int MaxInt64", captured(t, object.New(math.MaxInt64)), "\x02\xfe\xff\xff\xff\xff\xff\xff\xff\xff\x01"},
		{"cell", captured(t, object.New(cell{0, 1, 0, 0, 0, 2})), "\x02\x00\x02\x00\x00\x00\x04"},
		{"struct", captured(t, object.New(account{Owner: "ada", Balance: 100})), "\x02\x03ada\xc8\x01"},
		{"dmake.FileState", captured(t, object.New(dmake.FileState{Content: "cc -c a.c", Stamp: 3})), "\x02\x09cc -c a.c\x06"},
		{"string", captured(t, object.New("<a&b>")), "\x02\x05<a&b>"},
		{"non-ASCII string", captured(t, object.New("héllo, 世界")), "\x02\x0e" + "héllo, 世界"},
		{"float64 +Inf", captured(t, object.New(math.Inf(1))), "\x02\x7f\xf0\x00\x00\x00\x00\x00\x00"},
		{"every kind", captured(t, object.New(wide{
			B: true, I8: -2, U16: 300, U: 0,
			F32:  math.Float32frombits(0x7f800001), // a signalling NaN
			F64:  math.Inf(-1),
			C64:  complex(1, float32(math.Copysign(0, -1))),
			C128: complex(0, math.Float64frombits(0x7ff8000000000001)),
			S:    "é",
			A:    [2]int32{1, -1},
		})), "\x02" +
			"\x01" + "\x03" + "\xac\x02" + "\x00" +
			"\x7f\x80\x00\x01" +
			"\xff\xf0\x00\x00\x00\x00\x00\x00" +
			"\x3f\x80\x00\x00\x80\x00\x00\x00" +
			"\x00\x00\x00\x00\x00\x00\x00\x00\x7f\xf8\x00\x00\x00\x00\x00\x01" +
			"\x02\xc3\xa9" +
			"\x02\x01"},
	} {
		if string(c.got) != c.want {
			t.Errorf("%s: state = %q, want %q", c.name, c.got, c.want)
		}
	}
}

// TestStateRoundTrip is the property: whatever CaptureState wrote,
// RestoreState reads back as the same value and existence, and a second
// capture yields the same bytes.
func TestStateRoundTrip(t *testing.T) {
	roundTrip := func(t *testing.T, src, dst interface {
		CaptureState() (store.State, error)
		RestoreState(store.State) error
	}) store.State {
		t.Helper()
		st, err := src.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.RestoreState(st); err != nil {
			t.Fatalf("restore %q: %v", st, err)
		}
		again, err := dst.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st, again) {
			t.Fatalf("second capture = %q, first %q", again, st)
		}
		return st
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(func(name string, n int, tags [2]string) bool {
		v := flatStruct{Name: name, N: n, Ratio: float64(n) / 8, Tags: tags}
		dst := object.New(flatStruct{})
		roundTrip(t, object.New(v), dst)
		return dst.Exists() && dst.Peek() == v
	}, cfg); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(keys []uint8, vals [][]int) bool {
		v := map[string][]int{}
		for i, k := range keys {
			if i < len(vals) && len(vals[i]) > 0 { // JSON knows no difference between a nil and an empty slice
				v[string(rune('a'+k%26))] = vals[i]
			}
		}
		dst := object.New(map[string][]int{"stale": {1}})
		roundTrip(t, object.New(v), dst)
		return dst.Exists() && reflect.DeepEqual(dst.Peek(), v)
	}, cfg); err != nil {
		t.Error(err)
	}

	dst := object.New(account{Owner: "stale", Balance: 1})
	if st := roundTrip(t, deleted(t, account{}), dst); len(st) != 1 {
		t.Fatalf("absent state = %q, want one byte", st)
	}
	if dst.Exists() || dst.Peek() != (account{}) {
		t.Fatalf("after restoring an absent state: exists=%v value=%+v", dst.Exists(), dst.Peek())
	}
}

// commitAndLoad writes v into a persistent Managed[T] in a committed
// top-level action and activates the object afresh from its store.
func commitAndLoad[T any](t *testing.T, v T) T {
	t.Helper()
	st := store.NewStable()
	var zero T
	m := object.New(zero, object.WithStore(st))
	if err := action.NewRuntime().Run(func(a *action.Action) error {
		return m.Write(a, func(x *T) error { *x = v; return nil })
	}); err != nil {
		t.Fatalf("commit of %v: %v", v, err)
	}
	loaded, err := object.Load[T](m.ObjectID(), st)
	if err != nil {
		t.Fatalf("load of %v: %v", v, err)
	}
	return loaded.Peek()
}

// TestNonFiniteNumbersCommit: a persistent float64 holding an infinity
// or a NaN, and any complex128, commits and reloads bit for bit. JSON
// has no form for either; while states were JSON, such a commit failed
// with ErrPermanence and the action aborted.
func TestNonFiniteNumbersCommit(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef) // a NaN with a payload
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), nan, math.Copysign(0, -1)} {
		if got := commitAndLoad(t, v); math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("float64 %v (%#x) reloaded as %v (%#x)", v, math.Float64bits(v), got, math.Float64bits(got))
		}
	}
	bits := func(c complex128) [2]uint64 { return [2]uint64{math.Float64bits(real(c)), math.Float64bits(imag(c))} }
	for _, v := range []complex128{complex(1.5, -2), complex(math.Inf(1), nan), complex(math.NaN(), math.Inf(-1))} {
		if got := commitAndLoad(t, v); bits(got) != bits(v) {
			t.Errorf("complex128 %v reloaded as %v", v, got)
		}
	}
	sNaN := math.Float32frombits(0x7f800001)
	if got := commitAndLoad(t, sNaN); math.Float32bits(got) != 0x7f800001 {
		t.Errorf("float32 signalling NaN reloaded as %#x", math.Float32bits(got))
	}
}

// TestLoadRefusesForeignState: a stored state in the pre-discriminator
// {"exists":…} form, a state of the form T does not write, or any other
// bytes CaptureState cannot have written, fails activation with an error
// that names the object.
func TestLoadRefusesForeignState(t *testing.T) {
	type (
		small struct{ N int8 }
		flag  struct{ B bool }
	)
	type loader func(ids.ObjectID, *store.Stable) error
	var (
		flat loader = func(id ids.ObjectID, st *store.Stable) error { _, err := object.Load[account](id, st); return err }
		refs loader = func(id ids.ObjectID, st *store.Stable) error {
			_, err := object.Load[map[string]int](id, st)
			return err
		}
		i8 loader = func(id ids.ObjectID, st *store.Stable) error { _, err := object.Load[small](id, st); return err }
		b  loader = func(id ids.ObjectID, st *store.Stable) error { _, err := object.Load[flag](id, st); return err }
	)
	for _, c := range []struct {
		name string
		load loader
		raw  string
	}{
		{"legacy envelope", flat, `{"exists":true,"value":1}`},
		{"legacy absent", refs, `{"exists":false}`},
		{"empty", flat, ""},
		{"unknown discriminator", flat, "\x03\x03ada\xc8\x01"},
		{"absent with a tail", flat, "\x00" + `1`},
		{"garbage", refs, "\xff\xfe\xfd"},

		{"JSON without value", refs, "\x01"},
		{"truncated JSON", refs, "\x01" + `{"a":`},
		{"JSON of the wrong type", refs, "\x01" + `"a string"`},

		{"JSON for a flat T", flat, "\x01" + `{"owner":"ada","balance":100}`},
		{"layout for a T that holds references", refs, "\x02\x00"},
		{"layout without value", flat, "\x02"},
		{"truncated layout", flat, "\x02\x03ad"},
		{"layout with trailing bytes", flat, "\x02\x03ada\xc8\x01\x00"},
		{"overlong varint", flat, "\x02\x03ada\xc8\x81\x00"},
		{"int8 overflow", i8, "\x02\x80\x02"}, // 128
		{"bool byte 2", b, "\x02\x02"},
	} {
		st := store.NewStable()
		id := ids.NewObjectID()
		if err := st.ApplyBatch(store.Batch{Writes: map[ids.ObjectID]store.State{id: store.State(c.raw)}}); err != nil {
			t.Fatal(err)
		}
		err := c.load(id, st)
		if err == nil {
			t.Errorf("%s: Load accepted %q", c.name, c.raw)
			continue
		}
		if !strings.Contains(err.Error(), id.String()) {
			t.Errorf("%s: error %q does not name object %v", c.name, err, id)
		}
	}
}

// FuzzStateDecode feeds RestoreState arbitrary bytes, for a T of each
// form. It must not panic, and a refused state must leave the object as
// it was. An accepted state must capture again in the form it came in:
// a binary one to the very same bytes, so that decoding is canonical, and
// a JSON one to bytes that restore to the same value.
func FuzzStateDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(t, data, account{Owner: "before", Balance: 1})
		fuzzDecode(t, data, wide{S: "before"})
		fuzzDecode(t, data, map[string]int{"before": 1})
	})
}

func fuzzDecode[T any](t *testing.T, data []byte, was T) {
	t.Helper()
	m := object.New(was)
	before := captured(t, m)
	if err := m.RestoreState(data); err != nil {
		if now := captured(t, m); !bytes.Equal(now, before) {
			t.Fatalf("%T: refused state %q changed the object's state from %q to %q", was, data, before, now)
		}
		return
	}
	st := captured(t, m)
	if len(data) == 0 || st[0] != data[0] {
		t.Fatalf("%T: accepted %q, which captures again as %q", was, data, st)
	}
	switch data[0] {
	case 0x00, 0x02:
		if !bytes.Equal(st, data) {
			t.Fatalf("%T: accepted %q, which captures again as %q", was, data, st)
		}
	case 0x01:
		again := object.New(was)
		if err := again.RestoreState(st); err != nil {
			t.Fatalf("%T: restore of re-captured %q (from %q): %v", was, st, data, err)
		}
		if twice := captured(t, again); !bytes.Equal(twice, st) {
			t.Fatalf("%T: state %q: %q after one restore, %q after capture and restore", was, data, st, twice)
		}
	default:
		t.Fatalf("%T: accepted %q, whose discriminator is unknown", was, data)
	}
}
