package object

import (
	"errors"
	"sync"

	"mca/internal/ids"
	"mca/internal/store"
)

// Registry manages a set of persistent objects of one type in one
// stable store: it activates objects on first use (loading their state
// when the store has one, creating them otherwise) — the pattern every
// node-resident service needs (paper §2: objects "normally reside in
// object stores"; they are activated into volatile memory to be operated
// on). A registry belongs to one incarnation of its node: it activates
// through that incarnation's store handle, and the next incarnation
// builds a registry of its own.
type Registry[T any] struct {
	store   StableStore
	initial func(ids.ObjectID) T

	mu      sync.Mutex
	objects map[ids.ObjectID]*Managed[T]
}

// NewRegistry builds a registry over the store. initial provides the
// starting value for objects the store has no state for (nil means the
// zero value).
func NewRegistry[T any](s StableStore, initial func(ids.ObjectID) T) *Registry[T] {
	if initial == nil {
		initial = func(ids.ObjectID) T { var zero T; return zero }
	}
	return &Registry[T]{
		store:   s,
		initial: initial,
		objects: make(map[ids.ObjectID]*Managed[T]),
	}
}

// Get returns the managed object with the given identifier, activating
// it from the store on first use — or creating it at its initial value
// when the store has no state for it, and no other error: an object the
// store refuses (store.ErrUnresolved) is activated by a later Get.
func (r *Registry[T]) Get(id ids.ObjectID) (*Managed[T], error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.objects[id]; ok {
		return m, nil
	}
	m, err := Load[T](id, r.store)
	if errors.Is(err, store.ErrNotFound) {
		m = New(r.initial(id), WithStore(r.store), WithID(id))
		err = nil
	}
	if err != nil {
		return nil, err
	}
	r.objects[id] = m
	return m, nil
}

// Known returns the identifiers of currently activated objects, in no
// particular order.
func (r *Registry[T]) Known() []ids.ObjectID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ids.ObjectID, 0, len(r.objects))
	for id := range r.objects {
		out = append(out, id)
	}
	return out
}
