// Package object provides managed recoverable objects: the persistent
// objects of paper §2 that atomic actions operate on.
//
// A Managed[T] wraps a Go value with action-aware access: reads and
// writes acquire coloured locks through the action runtime, writes record
// before-images for recovery, and — when the object is given a stable
// store — the state written by an outermost-coloured commit is flushed
// durably (activation/passivation in Arjuna terms).
//
// Recovery data never leaves the object: a before-image is a copy of the
// value kept in memory. Only the state a commit (or a prepare) persists
// is serialized, as one discriminator byte — stateAbsent; stateBinary
// followed by the value's binary layout when T is flat and plain (see
// form); stateJSON followed by the value's JSON otherwise.
package object

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"

	"mca/internal/action"
	"mca/internal/colour"
	"mca/internal/ids"
	"mca/internal/lock"
	"mca/internal/metrics"
	"mca/internal/store"
	"mca/internal/wire"
)

// ErrNotExists is returned when reading an object that does not
// (currently) exist: never created, deleted, or undone by an abort.
var ErrNotExists = errors.New("object: does not exist")

// StableStore is the storage dependency of persistent objects: batch
// application for commits plus reads for activation. *store.Stable
// implements it.
type StableStore interface {
	action.Persister
	Read(ids.ObjectID) (store.State, error)
}

var _ StableStore = (*store.Stable)(nil)

// Before-images taken of existing objects, by how: a workload on the
// slow (encoded) path shows on /metrics. Handles are resolved here so a
// write never touches the label map.
var (
	snapshots = metrics.Default().CounterVec("mca_object_snapshots_total",
		"Before-images taken at an action's first write to an object, by kind: value (copy of a reference-free T) or encoded (JSON of a T that holds references).",
		"kind")
	valueSnapshots   = snapshots.With("value")
	encodedSnapshots = snapshots.With("encoded")
)

// Managed is a lockable, recoverable, optionally persistent object
// holding a value of type T. Its zero value must be usable. A T that
// holds references, or has a JSON or text marshaler anywhere in it, must
// be JSON-serializable: its before-images and states are its JSON. Any
// other T — bools, numbers, strings, and arrays and structs of those
// with exported fields — needs nothing: its states are a binary layout
// that keeps every bit, infinities and NaNs included. Managed is safe
// for concurrent use; isolation between actions is enforced by coloured
// locking, not by the internal mutex.
//
// Aliasing rule: a before-image must not share memory with the value a
// Write mutates in place. When T holds no references (bools, numbers,
// strings, arrays and structs of those) a plain assignment is such a
// copy and that is what a first write costs; when T holds a pointer,
// slice, map or interface anywhere, an assignment would alias — an
// in-place m[k] = v would rewrite its own before-image — so the image
// is the value's JSON, decoded again only if the action aborts. Which
// of the two applies follows from T alone.
type Managed[T any] struct {
	id    ids.ObjectID
	store StableStore // nil for volatile-only objects
	form  form

	mu     sync.Mutex
	value  T
	exists bool
}

// image is a before-image of m: the existence bit and, for an object
// that existed, its value — as a copy when T is reference-free, as JSON
// otherwise.
type image[T any] struct {
	m       *Managed[T]
	exists  bool
	value   T
	encoded []byte
}

// Restore implements action.Image.
func (im *image[T]) Restore() error {
	v := &im.value
	if im.encoded != nil {
		v = new(T) // decoded afresh, so nothing the image keeps is handed out
		if err := json.Unmarshal(im.encoded, v); err != nil {
			return fmt.Errorf("decode before-image: %w", err)
		}
	}
	im.m.mu.Lock()
	defer im.m.mu.Unlock()
	im.m.value, im.m.exists = *v, im.exists
	return nil
}

// Option configures a Managed object.
type Option interface{ apply(*objOptions) }

type objOptions struct {
	store StableStore
	id    ids.ObjectID
}

type storeOption struct{ s StableStore }

func (o storeOption) apply(opts *objOptions) { opts.store = o.s }

// WithStore makes the object persistent in the given stable store.
func WithStore(s StableStore) Option { return storeOption{s: s} }

type idOption ids.ObjectID

func (o idOption) apply(opts *objOptions) { opts.id = ids.ObjectID(o) }

// WithID fixes the object identifier. The default is a fresh identifier.
// An object the store has a state for activates with Load: built with
// WithID instead, it bypasses the store's refusal of objects in doubt.
func WithID(id ids.ObjectID) Option { return idOption(id) }

// New creates a managed object with the given initial value, existing
// from the start and outside any action (setup-time creation).
func New[T any](initial T, opts ...Option) *Managed[T] {
	m := build[T](opts)
	m.value = initial
	m.exists = true
	return m
}

// NewIn creates a managed object inside the action a: the creation is
// part of a's effects and is undone if a (or the relevant enclosing
// action) aborts. The write lock is acquired in colour c (action default
// when None).
func NewIn[T any](a *action.Action, c colour.Colour, initial T, opts ...Option) (*Managed[T], error) {
	m := build[T](opts)
	err := a.Step(m, lock.Write, c, func(bool) (action.Image, error) {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.value, m.exists = initial, true
		return &image[T]{m: m}, nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Load activates an object from its stable store. It fails with
// store.ErrNotFound when the store has no state for the identifier.
func Load[T any](id ids.ObjectID, s StableStore) (*Managed[T], error) {
	st, err := s.Read(id)
	if err != nil {
		return nil, fmt.Errorf("activate %v: %w", id, err)
	}
	m := newManaged[T](id, s)
	if err := m.RestoreState(st); err != nil {
		return nil, fmt.Errorf("activate %v: %w", id, err)
	}
	return m, nil
}

func build[T any](opts []Option) *Managed[T] {
	var o objOptions
	for _, opt := range opts {
		opt.apply(&o)
	}
	id := o.id
	if id == 0 {
		id = ids.NewObjectID()
	}
	return newManaged[T](id, o.store)
}

func newManaged[T any](id ids.ObjectID, s StableStore) *Managed[T] {
	return &Managed[T]{id: id, store: s, form: formOf(reflect.TypeFor[T]())}
}

var _ action.Recoverable = (*Managed[int])(nil)

// ObjectID implements action.Recoverable.
func (m *Managed[T]) ObjectID() ids.ObjectID { return m.id }

// Persister implements action.Recoverable.
func (m *Managed[T]) Persister() action.Persister {
	if m.store == nil {
		return nil
	}
	return m.store
}

// CaptureState implements action.Recoverable: it serializes the current
// value (and existence) for recovery records and permanence.
func (m *Managed[T]) CaptureState() (store.State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.captureLocked()
}

func (m *Managed[T]) captureLocked() (store.State, error) {
	switch {
	case !m.exists:
		return store.State{stateAbsent}, nil
	case m.form.binary:
		// Laid out on the stack and copied once: a layout that fits the
		// scratch costs the state alone.
		var scratch [256]byte
		b := appendBinary(append(scratch[:0], stateBinary), reflect.ValueOf(&m.value).Elem())
		return append(store.State(nil), b...), nil
	}
	raw, err := json.Marshal(&m.value) // by pointer: boxing a T would copy it to the heap first
	if err != nil {
		return nil, fmt.Errorf("capture %v: %w", m.id, err)
	}
	st := make(store.State, 1+len(raw))
	st[0] = stateJSON
	copy(st[1:], raw)
	return st, nil
}

// RestoreState replaces the object's value and existence with what a
// state written by CaptureState holds. Anything else is refused, the
// other form of present state included: a T has one form.
func (m *Managed[T]) RestoreState(st store.State) error {
	var v T
	switch {
	case len(st) == 1 && st[0] == stateAbsent:
	case len(st) > 0 && st[0] == stateBinary && m.form.binary:
		r := wire.NewReader(st[1:])
		if readBinary(&r, reflect.ValueOf(&v).Elem()); !r.Done() {
			return fmt.Errorf("restore %v: %d bytes that are not a %T state", m.id, len(st), v)
		}
	case len(st) > 0 && st[0] == stateJSON && !m.form.binary:
		if err := json.Unmarshal(st[1:], &v); err != nil {
			return fmt.Errorf("restore %v: %w", m.id, err)
		}
	default:
		return fmt.Errorf("restore %v: %d bytes that are not an object state of %T", m.id, len(st), v)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.value = v
	m.exists = st[0] != stateAbsent
	return nil
}

// Read runs fn over the value under a read lock in the action's default
// colour.
func (m *Managed[T]) Read(a *action.Action, fn func(T) error) error {
	return m.ReadIn(a, colour.None, fn)
}

// ReadIn is Read with an explicit colour. fn runs on a copy of the value,
// after the read's step.
func (m *Managed[T]) ReadIn(a *action.Action, c colour.Colour, fn func(T) error) error {
	var v T
	err := a.Step(m, lock.Read, c, func(bool) (action.Image, error) {
		m.mu.Lock()
		defer m.mu.Unlock()
		if !m.exists {
			return nil, fmt.Errorf("read %v: %w", m.id, ErrNotExists)
		}
		v = m.value
		return nil, nil
	})
	if err != nil {
		return err
	}
	return fn(v)
}

// Write runs fn over a pointer to the value under a write lock in the
// action's default colour, recording a before-image first. fn runs inside
// the write's step (see action.Step) and must not call back into a.
func (m *Managed[T]) Write(a *action.Action, fn func(*T) error) error {
	return m.WriteIn(a, colour.None, fn)
}

// WriteIn is Write with an explicit colour.
func (m *Managed[T]) WriteIn(a *action.Action, c colour.Colour, fn func(*T) error) error {
	return m.change(a, c, "write", func() error { return fn(&m.value) })
}

// DeleteIn removes the object as part of a's effects (undone on abort).
func (m *Managed[T]) DeleteIn(a *action.Action, c colour.Colour) error {
	return m.change(a, c, "delete", func() error {
		var zero T
		m.value, m.exists = zero, false
		return nil
	})
}

// change runs apply over the existing object as one write step of a,
// handing a the before-image at its first write. op names the write in
// the error when the object does not exist, and then nothing is recorded.
func (m *Managed[T]) change(a *action.Action, c colour.Colour, op string, apply func() error) error {
	return a.Step(m, lock.Write, c, func(first bool) (action.Image, error) {
		m.mu.Lock()
		defer m.mu.Unlock()
		if !m.exists {
			return nil, fmt.Errorf("%s %v: %w", op, m.id, ErrNotExists)
		}
		if !first {
			return nil, apply()
		}
		im := &image[T]{m: m, exists: true}
		if m.form.flat {
			im.value = m.value
			valueSnapshots.Inc()
		} else {
			var err error
			if im.encoded, err = json.Marshal(&m.value); err != nil {
				return nil, fmt.Errorf("snapshot %v: %w", m.id, err)
			}
			encodedSnapshots.Inc()
		}
		return im, apply()
	})
}

// Retain acquires an exclusive-read lock in colour c: the mechanism the
// glued and serializing structures use to keep objects inaccessible to
// outsiders while passing them between top-level actions (paper §5.3,
// §5.4).
func (m *Managed[T]) Retain(a *action.Action, c colour.Colour) error {
	return a.Lock(m.id, lock.ExclusiveRead, c)
}

// Exists reports whether the object currently exists. Like Peek it reads
// without locking.
func (m *Managed[T]) Exists() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.exists
}

// Peek returns the current value without any locking or isolation. It is
// meant for test assertions and the experiment harness, never for
// application code paths.
func (m *Managed[T]) Peek() T {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.value
}

// UpdateWithRetry runs fn over the object in its own top-level action,
// retrying on deadlock-victim aborts up to attempts times. It is the
// standard application idiom: a deadlock abort is clean, so the work
// can simply be resubmitted.
func UpdateWithRetry[T any](rt *action.Runtime, m *Managed[T], attempts int, fn func(*T) error) error {
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		lastErr = rt.Run(func(a *action.Action) error {
			return m.Write(a, fn)
		})
		if lastErr == nil {
			return nil
		}
		if !errors.Is(lastErr, lock.ErrDeadlock) && !errors.Is(lastErr, action.ErrAborted) {
			return lastErr
		}
	}
	return fmt.Errorf("object: %d attempts exhausted: %w", attempts, lastErr)
}
