package object_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mca/internal/action"
	"mca/internal/colour"
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

// TestStateGoldenBytes pins the serialized form: one discriminator byte,
// 0x00 for an absent object and nothing after it, 0x01 for a present one
// followed by exactly json.Marshal of the value.
func TestStateGoldenBytes(t *testing.T) {
	type cell [6]int
	for _, c := range []struct {
		name string
		got  store.State
		want string
	}{
		{"absent", captured(t, deleted(t, 7)), "\x00"},
		{"int", captured(t, object.New(7)), "\x017"},
		{"cell", captured(t, object.New(cell{0, 1, 0, 0, 0, 2})), "\x01[0,1,0,0,0,2]"},
		{"struct", captured(t, object.New(account{Owner: "ada", Balance: 100})), "\x01" + `{"owner":"ada","balance":100}`},
		{"string", captured(t, object.New("<a&b>")), "\x01" + `"\u003ca\u0026b\u003e"`},
		{"nil map", captured(t, object.New(map[string]int(nil))), "\x01null"},
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
		v := flatStruct{Name: strings.ToValidUTF8(name, "?"), N: n, Ratio: float64(n) / 8, Tags: tags}
		v.Tags[0], v.Tags[1] = strings.ToValidUTF8(tags[0], "?"), strings.ToValidUTF8(tags[1], "?")
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

// TestLoadRefusesForeignState: a stored state in the pre-discriminator
// {"exists":…} form, or any other bytes CaptureState cannot have written,
// fails activation with an error that names the object.
func TestLoadRefusesForeignState(t *testing.T) {
	for name, raw := range map[string]string{
		"legacy envelope":       `{"exists":true,"value":1}`,
		"legacy absent":         `{"exists":false}`,
		"empty":                 "",
		"unknown discriminator": "\x02" + `1`,
		"absent with a tail":    "\x00" + `1`,
		"present without value": "\x01",
		"truncated value":       "\x01" + `{"owner":"ad`,
		"wrong type":            "\x01" + `"a string"`,
		"garbage":               "\xff\xfe\xfd",
	} {
		st := store.NewStable()
		id := ids.NewObjectID()
		if err := st.Write(id, store.State(raw)); err != nil {
			t.Fatal(err)
		}
		_, err := object.Load[account](id, st)
		if err == nil {
			t.Errorf("%s: Load accepted %q", name, raw)
			continue
		}
		if !strings.Contains(err.Error(), id.String()) {
			t.Errorf("%s: error %q does not name object %v", name, err, id)
		}
	}
}

// FuzzStateDecode feeds RestoreState arbitrary bytes: it must not panic,
// a refused state must leave the object as it was, and an accepted one
// must survive a capture and a second restore unchanged.
func FuzzStateDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		was := account{Owner: "before", Balance: 1}
		m := object.New(was)
		if err := m.RestoreState(data); err != nil {
			if !m.Exists() || m.Peek() != was {
				t.Fatalf("refused state %q changed the object to exists=%v %+v", data, m.Exists(), m.Peek())
			}
			return
		}
		if len(data) == 0 || (data[0] != 0x00 && data[0] != 0x01) {
			t.Fatalf("accepted state %q without a discriminator", data)
		}
		if m.Exists() != (data[0] == 0x01) {
			t.Fatalf("state %q: exists = %v", data, m.Exists())
		}
		st, err := m.CaptureState()
		if err != nil {
			t.Fatalf("capture after restoring %q: %v", data, err)
		}
		again := object.New(was)
		if err := again.RestoreState(st); err != nil {
			t.Fatalf("restore of re-captured %q (from %q): %v", st, data, err)
		}
		if again.Exists() != m.Exists() || again.Peek() != m.Peek() {
			t.Fatalf("state %q: %+v after one restore, %+v after capture and restore", data, m.Peek(), again.Peek())
		}
	})
}
