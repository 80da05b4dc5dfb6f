// Package core is the public programming surface of the multi-coloured
// action library: the paper's primary contribution assembled for
// application builders.
//
// A downstream user writes against three layers:
//
//   - the action runtime (Runtime, Action): conventional and coloured
//     atomic actions over lockable recoverable objects;
//   - managed objects (package internal/object, re-exported helpers
//     below): typed persistent state accessed under actions;
//   - action structures (Serializing, Chain/Glued, RunIndependent and
//     friends): the paper's §3 control structures with automatic colour
//     assignment.
//
// Quick start:
//
//	rt := core.NewRuntime()
//	st := core.NewStableStore()
//	acct := core.NewObject(100, core.WithStore(st))
//	err := rt.Run(func(a *core.Action) error {
//	    return acct.Write(a, func(v *int) error { *v -= 10; return nil })
//	})
//
// See examples/ for complete programs and DESIGN.md for the mapping back
// to the paper.
package core

import (
	"mca/internal/action"
	"mca/internal/colour"
	"mca/internal/ids"
	"mca/internal/lock"
	"mca/internal/object"
	"mca/internal/store"
	"mca/internal/structures"
)

// Core action types.
type (
	// Runtime owns an action tree and its coloured lock manager.
	Runtime = action.Runtime
	// Action is one (coloured) atomic action.
	Action = action.Action
	// Status is an action's lifecycle state.
	Status = action.Status
	// BeginOption configures a new action.
	BeginOption = action.BeginOption
	// Colour is the attribute assigned to actions and locks.
	Colour = colour.Colour
	// ColourSet is an immutable set of colours.
	ColourSet = colour.Set
	// ObjectID identifies a managed object.
	ObjectID = ids.ObjectID
	// LockMode is a lock mode (read, write, exclusive read).
	LockMode = lock.Mode
)

// Action lifecycle states.
const (
	Active    = action.Active
	Committed = action.Committed
	Aborted   = action.Aborted
)

// Lock modes.
const (
	Read          = lock.Read
	Write         = lock.Write
	ExclusiveRead = lock.ExclusiveRead
)

// Structure types.
type (
	// Serializing is the paper's §3.1 structure: atomic with respect
	// to concurrency but not failures.
	Serializing = structures.Serializing
	// Chain is a sequence of glued top-level actions (§3.2).
	Chain = structures.Chain
	// Stage is one top-level action within a Chain.
	Stage = structures.Stage
	// Handle tracks an asynchronous independent action (§3.3).
	Handle = structures.Handle
	// Anchor marks the commit level for n-level independent actions
	// (§5.6).
	Anchor = structures.Anchor
)

// Runtime construction and action options.
var (
	// NewRuntime builds an empty action runtime.
	NewRuntime = action.NewRuntime
	// WithMaxLockWait bounds lock waits (deadlock safety valve).
	WithMaxLockWait = action.WithMaxLockWait
	// WithColours gives a new action exactly the listed colours.
	WithColours = action.WithColours
	// WithColourSet is WithColours for an existing set.
	WithColourSet = action.WithColourSet
	// WithExtraColours adds colours to the inherited set.
	WithExtraColours = action.WithExtraColours
	// WithPrivateColours adds non-heritable colours (anchors).
	WithPrivateColours = action.WithPrivateColours
	// WithDefaultColour selects the default colour for lock/write
	// calls.
	WithDefaultColour = action.WithDefaultColour
	// WithReadColour selects the default read colour.
	WithReadColour = action.WithReadColour
	// WithWriteColour selects the default write colour.
	WithWriteColour = action.WithWriteColour
	// WithWriteCompanion adds an exclusive-read companion colour to
	// writes.
	WithWriteCompanion = action.WithWriteCompanion
	// FreshColour mints a new process-unique colour.
	FreshColour = colour.Fresh
	// NewColourSet builds a colour set.
	NewColourSet = colour.NewSet
)

// Structures: the §3 control structures with automatic colours (§6).
var (
	// BeginSerializing starts a top-level serializing action.
	BeginSerializing = structures.BeginSerializing
	// BeginSerializingIn starts a serializing action from an invoker.
	BeginSerializingIn = structures.BeginSerializingIn
	// NewChain builds an empty glued chain.
	NewChain = structures.NewChain
	// Glued runs two glued top-level actions.
	Glued = structures.Glued
	// RunIndependent invokes a synchronous top-level independent
	// action.
	RunIndependent = structures.RunIndependent
	// SpawnIndependent invokes an asynchronous top-level independent
	// action.
	SpawnIndependent = structures.SpawnIndependent
	// BeginAnchored starts an action carrying a private anchor colour.
	BeginAnchored = structures.BeginAnchored
	// BeginAnchoredIn is BeginAnchored nested under an invoker.
	BeginAnchoredIn = structures.BeginAnchoredIn
	// RunIndependentTo invokes an n-level independent action.
	RunIndependentTo = structures.RunIndependentTo
	// SpawnIndependentTo is the asynchronous form of RunIndependentTo.
	SpawnIndependentTo = structures.SpawnIndependentTo
)

// Object is a managed recoverable object holding a value of type T.
type Object[T any] = object.Managed[T]

// ObjectOption configures a managed object.
type ObjectOption = object.Option

// Object construction.
var (
	// WithStore makes an object persistent in a stable store.
	WithStore = object.WithStore
	// WithID fixes an object's identifier (re-activation).
	WithID = object.WithID
	// NewStableStore builds an in-memory stable store.
	NewStableStore = store.NewStable
	// OpenFileStore opens a disk-backed stable store: one append-only,
	// checksummed log per directory, replayed on open.
	OpenFileStore = store.OpenFileStore
)

// NewObject creates a managed object with the given initial value.
func NewObject[T any](initial T, opts ...ObjectOption) *Object[T] {
	return object.New(initial, opts...)
}

// NewObjectIn creates a managed object as part of an action's effects.
func NewObjectIn[T any](a *Action, c Colour, initial T, opts ...ObjectOption) (*Object[T], error) {
	return object.NewIn(a, c, initial, opts...)
}

// LoadObject activates a persistent object from its stable store.
func LoadObject[T any](id ObjectID, s object.StableStore) (*Object[T], error) {
	return object.Load[T](id, s)
}
