package object_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mca/internal/action"
	"mca/internal/colour"
	"mca/internal/metrics"
	"mca/internal/object"
)

// Value types for the before-image rule: the first four hold no
// references and are snapshotted by assignment, the rest alias under
// assignment and are snapshotted through their encoding.
type (
	flatStruct struct {
		Name  string
		N     int
		Ratio float64
		Tags  [2]string
	}
	sliceStruct struct {
		Next  int
		Items []int
	}
	pointerStruct struct {
		Label string
		Ptr   *int
	}
)

// imageCase drives one value type through the abort scenarios. fresh
// builds the initial value — called again for the expectation, so the two
// share no memory — and mutate changes a value in place, the way a Write
// callback that appends, assigns through a map or stores through a
// pointer does.
type imageCase struct {
	name string
	run  func(t *testing.T)
}

func imageCaseOf[T any](name string, fresh func() T, mutate func(*T)) imageCase {
	mutateIn := func(t *testing.T, a *action.Action, m *object.Managed[T]) {
		t.Helper()
		if err := m.Write(a, func(v *T) error { mutate(v); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	requireValue := func(t *testing.T, m *object.Managed[T], want T) {
		t.Helper()
		if !m.Exists() {
			t.Fatal("object does not exist")
		}
		if got := m.Peek(); !reflect.DeepEqual(got, want) {
			t.Fatalf("value = %+v, want %+v", got, want)
		}
	}
	mutated := func(times int) T {
		v := fresh()
		for range times {
			mutate(&v)
		}
		return v
	}
	return imageCase{name: name, run: func(t *testing.T) {
		t.Run("abort", func(t *testing.T) {
			rt := action.NewRuntime()
			m := object.New(fresh())
			a := mustBegin(t, rt)
			mutateIn(t, a, m)
			mutateIn(t, a, m) // the second write must not replace the image
			requireValue(t, m, mutated(2))
			if err := a.Abort(); err != nil {
				t.Fatal(err)
			}
			requireValue(t, m, fresh())
		})
		t.Run("commit then abort", func(t *testing.T) {
			// The image of the second action is the first one's result.
			rt := action.NewRuntime()
			m := object.New(fresh())
			if err := rt.Run(func(a *action.Action) error { mutateIn(t, a, m); return nil }); err != nil {
				t.Fatal(err)
			}
			a := mustBegin(t, rt)
			mutateIn(t, a, m)
			if err := a.Abort(); err != nil {
				t.Fatal(err)
			}
			requireValue(t, m, mutated(1))
		})
		t.Run("hand-over", func(t *testing.T) {
			// The child's image passes to the parent at the child's
			// commit; the parent's own, older image wins when it has one.
			for _, parentWritesFirst := range []bool{false, true} {
				rt := action.NewRuntime()
				m := object.New(fresh())
				parent := mustBegin(t, rt)
				if parentWritesFirst {
					mutateIn(t, parent, m)
				}
				if err := parent.Run(func(child *action.Action) error { mutateIn(t, child, m); return nil }); err != nil {
					t.Fatal(err)
				}
				if !parent.HasWrites() {
					t.Fatal("the parent holds no image after the child's commit")
				}
				mutateIn(t, parent, m)
				if err := parent.Abort(); err != nil {
					t.Fatal(err)
				}
				requireValue(t, m, fresh())
			}
		})
		t.Run("nested abort", func(t *testing.T) {
			rt := action.NewRuntime()
			m := object.New(fresh())
			parent := mustBegin(t, rt)
			mutateIn(t, parent, m)
			child, err := parent.Begin()
			if err != nil {
				t.Fatal(err)
			}
			mutateIn(t, child, m)
			if err := child.Abort(); err != nil {
				t.Fatal(err)
			}
			requireValue(t, m, mutated(1))
			if err := parent.Commit(); err != nil {
				t.Fatal(err)
			}
			requireValue(t, m, mutated(1))
		})
		t.Run("NewIn", func(t *testing.T) {
			rt := action.NewRuntime()
			a := mustBegin(t, rt)
			m, err := object.NewIn(a, colour.None, fresh())
			if err != nil {
				t.Fatal(err)
			}
			mutateIn(t, a, m)
			requireValue(t, m, mutated(1))
			if err := a.Abort(); err != nil {
				t.Fatal(err)
			}
			if m.Exists() {
				t.Fatal("the object exists after its creator aborted")
			}
		})
		t.Run("DeleteIn", func(t *testing.T) {
			rt := action.NewRuntime()
			m := object.New(fresh())
			a := mustBegin(t, rt)
			mutateIn(t, a, m)
			if err := m.DeleteIn(a, colour.None); err != nil {
				t.Fatal(err)
			}
			if m.Exists() {
				t.Fatal("the object exists inside the deleting action")
			}
			if err := a.Abort(); err != nil {
				t.Fatal(err)
			}
			requireValue(t, m, fresh())

			// A nested delete that commits into a parent that aborts.
			parent := mustBegin(t, rt)
			if err := parent.Run(func(child *action.Action) error { return m.DeleteIn(child, colour.None) }); err != nil {
				t.Fatal(err)
			}
			if err := parent.Abort(); err != nil {
				t.Fatal(err)
			}
			requireValue(t, m, fresh())
		})
	}}
}

func TestAbortRestoresBeforeImage(t *testing.T) {
	cases := []imageCase{
		imageCaseOf("int", func() int { return 7 }, func(v *int) { *v += 3 }),
		imageCaseOf("[6]int", func() [6]int { return [6]int{1, 2, 3} }, func(v *[6]int) { v[1]++; v[5]-- }),
		imageCaseOf("string", func() string { return "before" }, func(v *string) { *v += "+" }),
		imageCaseOf("flat struct",
			func() flatStruct { return flatStruct{Name: "a", N: 1, Ratio: 0.5, Tags: [2]string{"x", "y"}} },
			func(v *flatStruct) { v.N++; v.Tags[0] += "!"; v.Ratio *= 2 }),
		imageCaseOf("[]int", func() []int { return []int{1, 2, 3} }, func(v *[]int) { (*v)[0]++; *v = append(*v, 9) }),
		imageCaseOf("map[string]int", func() map[string]int { return map[string]int{"a": 1} },
			func(v *map[string]int) { (*v)["a"]++; (*v)[fmt.Sprint("k", len(*v))] = 1 }),
		imageCaseOf("struct with a slice",
			func() sliceStruct { return sliceStruct{Next: 1, Items: []int{4, 5}} },
			func(v *sliceStruct) { v.Items[0]++; v.Items = append(v.Items, v.Next); v.Next++ }),
		imageCaseOf("struct with a pointer",
			func() pointerStruct { n := 10; return pointerStruct{Label: "p", Ptr: &n} },
			func(v *pointerStruct) { *v.Ptr++; v.Label += "'" }),
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}

// modelObject is the before-image scheme this package had before images
// became values, kept for the differential below: every first write
// serializes the value, and an abort decodes it back.
type modelObject[T any] struct {
	value  T
	exists bool
}

type modelImage struct {
	exists  bool
	encoded []byte
}

func (m *modelObject[T]) capture(t *testing.T) modelImage {
	t.Helper()
	if !m.exists {
		return modelImage{}
	}
	data, err := json.Marshal(m.value)
	if err != nil {
		t.Fatal(err)
	}
	return modelImage{exists: true, encoded: data}
}

func (m *modelObject[T]) restore(t *testing.T, im modelImage) {
	t.Helper()
	var v T
	if im.exists {
		if err := json.Unmarshal(im.encoded, &v); err != nil {
			t.Fatal(err)
		}
	}
	m.value, m.exists = v, im.exists
}

// differential drives seeded random write / delete / nested begin /
// commit / abort sequences over a few objects through the runtime and
// through the model, and requires the two to agree after every step.
func differential[T any](t *testing.T, seed int64, fresh func() T, mutate func(*T, int)) {
	t.Helper()
	const objects, steps = 3, 400
	rng := rand.New(rand.NewSource(seed))
	rt := action.NewRuntime()

	real := make([]*object.Managed[T], objects)
	model := make([]*modelObject[T], objects)
	for i := range real {
		real[i] = object.New(fresh())
		model[i] = &modelObject[T]{value: fresh(), exists: true}
	}
	// The stack of open actions, outermost first, with the model's undo
	// log of each: first image per object.
	type frame struct {
		act  *action.Action
		undo map[int]modelImage
	}
	var stack []frame
	record := func(f frame, i int) {
		if _, ok := f.undo[i]; !ok {
			f.undo[i] = model[i].capture(t)
		}
	}
	check := func(step int, what string) {
		t.Helper()
		for i := range real {
			if real[i].Exists() != model[i].exists {
				t.Fatalf("seed %d step %d (%s): object %d exists = %v, model %v", seed, step, what, i, real[i].Exists(), model[i].exists)
			}
			if got := real[i].Peek(); model[i].exists && !reflect.DeepEqual(got, model[i].value) {
				t.Fatalf("seed %d step %d (%s): object %d = %+v, model %+v", seed, step, what, i, got, model[i].value)
			}
		}
	}

	abortTop := func() {
		t.Helper()
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if err := top.act.Abort(); err != nil {
			t.Fatal(err)
		}
		for i, im := range top.undo {
			model[i].restore(t, im)
		}
	}

	for step := range steps {
		if len(stack) == 0 {
			stack = append(stack, frame{act: mustBegin(t, rt), undo: map[int]modelImage{}})
		}
		top := stack[len(stack)-1]
		i := rng.Intn(objects)
		var what string
		switch r := rng.Intn(10); {
		case r < 4:
			what = "write"
			arg := rng.Intn(100)
			err := real[i].Write(top.act, func(v *T) error { mutate(v, arg); return nil })
			if model[i].exists {
				if err != nil {
					t.Fatalf("seed %d step %d: write: %v", seed, step, err)
				}
				record(top, i)
				mutate(&model[i].value, arg)
			} else if err == nil {
				t.Fatalf("seed %d step %d: write to an absent object succeeded", seed, step)
			}
		case r < 5:
			what = "delete"
			err := real[i].DeleteIn(top.act, colour.None)
			if model[i].exists {
				if err != nil {
					t.Fatalf("seed %d step %d: delete: %v", seed, step, err)
				}
				record(top, i)
				var zero T
				model[i].value, model[i].exists = zero, false
			} else if err == nil {
				t.Fatalf("seed %d step %d: delete of an absent object succeeded", seed, step)
			}
		case r < 7 && len(stack) < 4:
			what = "begin"
			child, err := top.act.Begin()
			if err != nil {
				t.Fatal(err)
			}
			stack = append(stack, frame{act: child, undo: map[int]modelImage{}})
		case r < 9:
			what = "commit"
			if err := top.act.Commit(); err != nil {
				t.Fatal(err)
			}
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				for i, im := range top.undo {
					if _, ok := parent.undo[i]; !ok {
						parent.undo[i] = im
					}
				}
			}
		default:
			what = "abort"
			abortTop()
		}
		check(step, what)
	}
	for len(stack) > 0 {
		abortTop()
		check(steps, "final abort")
	}
}

// TestBeforeImagesMatchEncodedModel is the differential: value images
// and encoded images must be indistinguishable from the scheme that
// encoded every before-image and decoded it on abort.
func TestBeforeImagesMatchEncodedModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		differential(t, seed, func() [6]int { return [6]int{} }, func(v *[6]int, arg int) { v[arg%6] += arg })
		differential(t, seed, func() flatStruct { return flatStruct{Name: "n"} },
			func(v *flatStruct, arg int) { v.N += arg; v.Tags[arg%2] = fmt.Sprint(arg) })
		differential(t, seed, func() map[string]int { return map[string]int{} },
			func(v *map[string]int, arg int) { (*v)[fmt.Sprint(arg%7)] += arg })
		differential(t, seed, func() sliceStruct { return sliceStruct{Items: []int{0}} },
			func(v *sliceStruct, arg int) {
				v.Items[arg%len(v.Items)] += arg
				if arg%3 == 0 {
					v.Items = append(v.Items, arg)
				}
				v.Next++
			})
	}
}

// snapshotsCounted reads mca_object_snapshots_total{kind=…} from the
// registry /metrics is rendered from.
func snapshotsCounted(t *testing.T, kind string) int {
	t.Helper()
	fam, _ := metrics.Default().Find("mca_object_snapshots_total")
	for _, s := range fam.Samples {
		if slices.Equal(s.Labels, []string{"kind", kind}) {
			return int(s.Value)
		}
	}
	t.Fatalf("mca_object_snapshots_total has no sample of kind %q", kind)
	return 0
}

// TestSnapshotCounterTellsThePathsApart: one add per first write, under
// the kind T decides; later writes in the action, and failed ones, add
// nothing.
func TestSnapshotCounterTellsThePathsApart(t *testing.T) {
	rt := action.NewRuntime()
	flat := object.New(flatStruct{})
	refs := object.New(sliceStruct{Items: []int{1}})
	gone := deleted(t, 0)

	value, encoded := snapshotsCounted(t, "value"), snapshotsCounted(t, "encoded")
	if err := rt.Run(func(a *action.Action) error {
		for range 3 {
			if err := flat.Write(a, func(v *flatStruct) error { v.N++; return nil }); err != nil {
				return err
			}
			if err := refs.Write(a, func(v *sliceStruct) error { v.Items[0]++; return nil }); err != nil {
				return err
			}
		}
		_ = gone.Write(a, func(*int) error { return nil })
		return a.Run(func(b *action.Action) error { // a nested action takes its own image
			return flat.Write(b, func(v *flatStruct) error { v.N++; return nil })
		})
	}); err != nil {
		t.Fatal(err)
	}
	if v, e := snapshotsCounted(t, "value")-value, snapshotsCounted(t, "encoded")-encoded; v != 2 || e != 1 {
		t.Fatalf("snapshots counted: %d value, %d encoded; want 2 and 1", v, e)
	}
}
