// Package action implements the multi-coloured action runtime of paper §5.
//
// An Action is the unit of work. Every action carries a static set of
// colours (paper §5.1); conventional atomic actions are the single-colour
// special case. Actions nest: children inherit their parent's colours by
// default, and may be given different colour sets to express the paper's
// serializing, glued and independent structures (package structures does
// so automatically).
//
// The runtime provides the three coloured-action properties:
//
//   - failure atomicity per colour set: an aborting action undoes every
//     state change it made (before-image recovery records), and recursively
//     aborts active descendants whose colour sets intersect its own;
//     colour-disjoint descendants — independent actions — survive;
//   - serializability: two-phase coloured locking through internal/lock;
//     locks are held to completion and inherited per colour;
//   - permanence of effect per colour: when an outermost action of colour a
//     commits (no ancestor possesses a), the write set of colour a is
//     flushed atomically to the objects' stable stores.
package action

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mca/internal/clock"
	"mca/internal/colour"
	"mca/internal/ids"
	"mca/internal/lock"
	"mca/internal/store"
)

// Status is the lifecycle state of an action. One byte, so that it
// packs beside the action's other small fields.
type Status uint8

// Action lifecycle states.
const (
	Active Status = iota + 1
	Committed
	Aborted
)

// String renders the status for logs and traces.
func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Errors reported by the runtime.
var (
	// ErrNotActive is returned by operations on a completed action.
	ErrNotActive = errors.New("action: not active")
	// ErrActiveChildren is returned by Commit when a nested action
	// sharing a colour is still running; the programmer must complete
	// children first (independent, colour-disjoint children are
	// exempt).
	ErrActiveChildren = errors.New("action: active non-independent children")
	// ErrAborted is returned by a step (a lock, read or write) whose
	// action ended (possibly by a cascading parent abort) while the step
	// was in flight.
	ErrAborted = errors.New("action: aborted")
	// ErrColourNotHeld is returned when a lock or write names a colour
	// the action does not possess (paper §5.2: "a coloured action may
	// only use the colours which it possesses").
	ErrColourNotHeld = errors.New("action: colour not possessed")
	// ErrPermanence is returned by Commit when flushing a colour's
	// write set to stable storage failed; the action is aborted.
	ErrPermanence = errors.New("action: permanence failure")
)

// Persister is the durable sink for the write set of an outermost-colour
// commit. *store.Stable implements it.
type Persister interface {
	ApplyBatch(store.Batch) error
}

var _ Persister = (*store.Stable)(nil)

// Recoverable is a managed object as seen by the runtime: it can
// serialize its state for permanence and names the stable store
// responsible for it (nil for volatile-only objects).
type Recoverable interface {
	ObjectID() ids.ObjectID
	CaptureState() (store.State, error)
	Persister() Persister
}

// Image is a before-image: what an object was (or that it was absent)
// when an action first wrote it. Recovery data is the object's private,
// in-memory matter — the runtime only keeps the image and asks it to put
// the object back.
type Image interface {
	Restore() error
}

// undoRecord is one before-image: restoring it undoes every write this
// action performed on the object. An action holds at most one record per
// object, because the write-colour rule forbids one action writing the
// same object under two colours.
type undoRecord struct {
	res    Recoverable
	colour colour.Colour
	before Image
}

// EventKind classifies runtime events for observers.
type EventKind int

// Event kinds.
const (
	EventBegin EventKind = iota + 1
	EventCommit
	EventAbort
	// EventLockWait reports a lock request of the action that blocked:
	// Time is when the wait ended, Waited how long it lasted.
	EventLockWait
)

// String renders the event kind for logs and traces.
func (k EventKind) String() string {
	switch k {
	case EventBegin:
		return "begin"
	case EventCommit:
		return "commit"
	case EventAbort:
		return "abort"
	case EventLockWait:
		return "lockwait"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one lifecycle notification delivered to an observer.
type Event struct {
	Kind    EventKind
	Time    time.Time
	Action  ids.ActionID
	Parent  ids.ActionID // zero for top-level actions
	Colours colour.Set
	Waited  time.Duration // EventLockWait only
}

// Observer receives runtime events. Observers run synchronously on the
// acting goroutine and must be fast and non-blocking; they must not call
// back into the runtime.
type Observer func(Event)

// Runtime owns the action tree and the coloured lock manager.
type Runtime struct {
	locks    *lock.Manager
	observer Observer
	clk      clock.Clock
	closed   atomic.Bool

	// registry holds every active action, striped by identifier: the
	// begins, finishes and lock-ancestry queries of different actions
	// take different mutexes.
	registry [registryStripes]registryStripe
}

// registryStripes is the stripe width of the action registry, the same
// as the lock manager's owner index. Action identifiers are sequential,
// so their low bits spread actions evenly over the stripes.
const registryStripes = 64

// registryStripe holds the active actions whose identifiers fall on it.
// Its map is made by the first action registered there, so a runtime
// costs nothing per stripe until it is used.
type registryStripe struct {
	mu      sync.Mutex
	actions map[ids.ActionID]*Action
}

func (r *Runtime) stripe(id ids.ActionID) *registryStripe {
	return &r.registry[id%registryStripes]
}

// lookup returns the active action with this identifier, or nil.
func (r *Runtime) lookup(id ids.ActionID) *Action {
	st := r.stripe(id)
	st.mu.Lock()
	a := st.actions[id]
	st.mu.Unlock()
	return a
}

// Option configures a Runtime.
type Option interface{ apply(*runtimeOptions) }

type runtimeOptions struct {
	maxLockWait time.Duration
	observer    Observer
	clk         clock.Clock
}

type maxLockWaitOption time.Duration

func (o maxLockWaitOption) apply(opts *runtimeOptions) { opts.maxLockWait = time.Duration(o) }

// WithMaxLockWait bounds lock waits; see lock.WithMaxWait.
func WithMaxLockWait(d time.Duration) Option { return maxLockWaitOption(d) }

type observerOption struct{ fn Observer }

func (o observerOption) apply(opts *runtimeOptions) { opts.observer = o.fn }

// WithObserver installs an event observer on the runtime (tracing,
// timeline rendering — see internal/trace).
func WithObserver(fn Observer) Option { return observerOption{fn: fn} }

type clockOption struct{ c clock.Clock }

func (o clockOption) apply(opts *runtimeOptions) { opts.clk = o.c }

// WithClock substitutes the runtime's time source (observer event
// timestamps, lock-wait timers). The default is clock.Real();
// deterministic simulations install a clock.Fake.
func WithClock(c clock.Clock) Option { return clockOption{c} }

// NewRuntime builds an empty runtime.
func NewRuntime(opts ...Option) *Runtime {
	var o runtimeOptions
	for _, opt := range opts {
		opt.apply(&o)
	}
	if o.clk == nil {
		o.clk = clock.Real()
	}
	r := &Runtime{observer: o.observer, clk: o.clk}
	lockOpts := []lock.Option{lock.WithClock(o.clk)}
	if o.maxLockWait > 0 {
		lockOpts = append(lockOpts, lock.WithMaxWait(o.maxLockWait))
	}
	r.locks = lock.NewManager(runtimeAncestry{r: r}, lockOpts...)
	return r
}

// runtimeAncestry exposes the action tree to the lock manager,
// including family (top-level root) resolution for nested-transaction
// deadlock detection.
type runtimeAncestry struct {
	r *Runtime
}

var (
	_ lock.Ancestry       = runtimeAncestry{}
	_ lock.FamilyResolver = runtimeAncestry{}
)

// IsSameOrAncestor implements lock.Ancestry.
func (ra runtimeAncestry) IsSameOrAncestor(a, b ids.ActionID) bool {
	return ra.r.isSameOrAncestor(a, b)
}

// TopLevelOf implements lock.FamilyResolver.
func (ra runtimeAncestry) TopLevelOf(id ids.ActionID) ids.ActionID {
	cur := ra.r.lookup(id)
	if cur == nil {
		return id
	}
	for cur.parent != nil {
		cur = cur.parent
	}
	return cur.id
}

// Close ends the runtime with its node's incarnation: its actions lock nothing more.
func (r *Runtime) Close() { r.closed.Store(true) }

// Locks exposes the lock manager for introspection by tests and the
// experiment harness.
func (r *Runtime) Locks() *lock.Manager { return r.locks }

// isSameOrAncestor serves the lock manager's ancestry queries.
func (r *Runtime) isSameOrAncestor(a, b ids.ActionID) bool {
	for cur := r.lookup(b); cur != nil; cur = cur.parent {
		if cur.id == a {
			return true
		}
	}
	return false
}

func (r *Runtime) register(a *Action) {
	st := r.stripe(a.id)
	st.mu.Lock()
	if st.actions == nil {
		st.actions = make(map[ids.ActionID]*Action)
	}
	st.actions[a.id] = a
	st.mu.Unlock()
	beginsByKind[a.kind].Inc()
	depthHist.Observe(uint64(a.depth))
	activeActions.Inc()
	r.observe(EventBegin, a, 0)
}

// observe delivers an event to the runtime's observer, if any.
func (r *Runtime) observe(kind EventKind, a *Action, waited time.Duration) {
	if r.observer == nil {
		return
	}
	ev := Event{
		Kind:    kind,
		Time:    r.clk.Now(),
		Action:  a.id,
		Colours: a.colours,
		Waited:  waited,
	}
	if a.parent != nil {
		ev.Parent = a.parent.id
	}
	r.observer(ev)
}

func (r *Runtime) unregister(id ids.ActionID) {
	st := r.stripe(id)
	st.mu.Lock()
	delete(st.actions, id)
	st.mu.Unlock()
}

// ActiveActions returns the number of actions currently registered, for
// leak checks in tests.
func (r *Runtime) ActiveActions() int {
	n := 0
	for i := range r.registry {
		st := &r.registry[i]
		st.mu.Lock()
		n += len(st.actions)
		st.mu.Unlock()
	}
	return n
}

// BeginOption configures one action. Options take and return the
// settings by value: behind a pointer they would escape through the
// interface call and cost every Begin a heap object.
type BeginOption interface {
	applyBegin(beginOptions) beginOptions
}

type beginOptions struct {
	colours        colour.Set
	coloursSet     bool
	extraColours   []colour.Colour
	privateColours []colour.Colour
	defaultColour  colour.Colour
	readColour     colour.Colour
	writeColour    colour.Colour
	companion      colour.Colour
}

type coloursOption colour.Set

func (o coloursOption) applyBegin(b beginOptions) beginOptions {
	b.colours = colour.Set(o)
	b.coloursSet = true
	return b
}

// WithColours gives the action exactly the listed colours instead of
// inheriting its parent's set.
func WithColours(cs ...colour.Colour) BeginOption {
	return coloursOption(colour.NewSet(cs...))
}

// WithColourSet is WithColours for an existing set.
func WithColourSet(s colour.Set) BeginOption { return coloursOption(s) }

type extraColoursOption []colour.Colour

func (o extraColoursOption) applyBegin(b beginOptions) beginOptions {
	b.extraColours = append(b.extraColours, o...)
	return b
}

// WithExtraColours gives the action its parent's colours plus the listed
// ones.
func WithExtraColours(cs ...colour.Colour) BeginOption { return extraColoursOption(cs) }

type defaultColourOption colour.Colour

func (o defaultColourOption) applyBegin(b beginOptions) beginOptions {
	b.defaultColour = colour.Colour(o)
	return b
}

// WithDefaultColour selects the colour used by lock and write calls that
// do not name one explicitly. It must be a member of the action's set.
func WithDefaultColour(c colour.Colour) BeginOption { return defaultColourOption(c) }

type readColourOption colour.Colour

func (o readColourOption) applyBegin(b beginOptions) beginOptions {
	b.readColour = colour.Colour(o)
	return b
}

// WithReadColour selects the colour used by read locks that do not name a
// colour, overriding WithDefaultColour for reads. The structures layer
// uses it: a serializing constituent reads in the container colour so its
// read locks are retained by the container (paper §5.3).
func WithReadColour(c colour.Colour) BeginOption { return readColourOption(c) }

type writeColourOption colour.Colour

func (o writeColourOption) applyBegin(b beginOptions) beginOptions {
	b.writeColour = colour.Colour(o)
	return b
}

// WithWriteColour selects the colour used by write locks (and recorded
// writes) that do not name a colour, overriding WithDefaultColour for
// writes.
func WithWriteColour(c colour.Colour) BeginOption { return writeColourOption(c) }

type companionOption colour.Colour

func (o companionOption) applyBegin(b beginOptions) beginOptions {
	b.companion = colour.Colour(o)
	return b
}

// WithWriteCompanion makes every write lock acquisition also acquire an
// exclusive-read lock on the object in colour c. This implements the
// §5.3/§5.4 schemes where written objects must stay inaccessible to
// outsiders after the writer's (top-level) commit: the companion
// exclusive-read lock is inherited by the enclosing container while the
// write lock is released.
func WithWriteCompanion(c colour.Colour) BeginOption { return companionOption(c) }

type privateColoursOption []colour.Colour

func (o privateColoursOption) applyBegin(b beginOptions) beginOptions {
	b.privateColours = append(b.privateColours, o...)
	return b
}

// WithPrivateColours adds colours to the action that its children do NOT
// inherit by default. A private colour anchors n-level independent
// actions (paper §5.6, fig 15): a deep descendant created with exactly
// that colour commits its effects to this action's level, skipping every
// intermediate action.
func WithPrivateColours(cs ...colour.Colour) BeginOption { return privateColoursOption(cs) }

// Action is one (coloured) atomic action.
type Action struct {
	rt      *Runtime
	id      ids.ActionID
	parent  *Action
	colours colour.Set
	// heritable is the subset of colours children inherit by default
	// (colours minus the private ones).
	heritable colour.Set
	defRead   colour.Colour
	defWrite  colour.Colour
	// companion, when valid, is the colour of the exclusive-read lock
	// acquired alongside every write lock.
	companion colour.Colour
	// kind and depth are fixed at Begin for telemetry: the structural
	// relation to the parent and the nesting depth (top level = 1). They
	// share a word with status and settled, which keeps an Action at 224
	// bytes, its size class (TestActionSize).
	kind   structureKind
	status Status
	// settled is set, under mu, by the end that released or passed on
	// the action's locks (see step).
	settled bool
	depth   int32

	// mu guards status, settled and every field below.
	mu sync.Mutex
	// done is closed when the action stops being active, unblocking its
	// lock waits. It is made by the first wait that parks (see
	// waitContext): an action whose locks are all granted at once never
	// has one.
	done chan struct{}
	// children lists the active nested actions. The first nested Begin
	// allocates it, one pointer long.
	children []*Action
	// undo holds one record per object written. An action writes an
	// object or two, so lookups scan it.
	undo []undoRecord
	// completionHooks run once, after the action completed (status
	// set, effects applied or undone, locks transferred/released).
	// Applications use them for compensation: e.g. withdrawing a
	// bulletin posting when the invoking action turns out to abort.
	completionHooks []func(Status)
}

// Begin starts a top-level action. With no colour options it receives a
// single fresh colour, i.e. it is a conventional top-level atomic action.
func (r *Runtime) Begin(opts ...BeginOption) (*Action, error) {
	return r.begin(nil, opts...)
}

// Begin starts an action nested in a. With no colour options the child
// inherits the parent's colours (conventional nested action).
func (a *Action) Begin(opts ...BeginOption) (*Action, error) {
	if a == nil {
		return nil, errors.New("action: Begin on nil parent")
	}
	return a.rt.begin(a, opts...)
}

func (r *Runtime) begin(parent *Action, opts ...BeginOption) (*Action, error) {
	var bo beginOptions
	for _, opt := range opts {
		bo = opt.applyBegin(bo)
	}

	var cs colour.Set
	switch {
	case bo.coloursSet:
		cs = bo.colours
	case parent != nil:
		cs = parent.heritable
	default:
		cs = colour.Singleton(colour.Fresh())
	}
	cs = cs.With(bo.extraColours...)
	heritable := cs
	cs = cs.With(bo.privateColours...)
	if cs.Len() == 0 {
		return nil, errors.New("action: empty colour set")
	}

	pick := func(specific colour.Colour, inherited func(*Action) colour.Colour) (colour.Colour, error) {
		c := specific
		if c == colour.None {
			c = bo.defaultColour
		}
		if c == colour.None {
			if parent != nil && cs.Contains(inherited(parent)) {
				c = inherited(parent)
			} else {
				c = cs.Any()
			}
		}
		if !cs.Contains(c) {
			return colour.None, fmt.Errorf("action: default colour %v not in set %v: %w", c, cs, ErrColourNotHeld)
		}
		return c, nil
	}
	defRead, err := pick(bo.readColour, func(p *Action) colour.Colour { return p.defRead })
	if err != nil {
		return nil, err
	}
	defWrite, err := pick(bo.writeColour, func(p *Action) colour.Colour { return p.defWrite })
	if err != nil {
		return nil, err
	}
	if bo.companion != colour.None && !cs.Contains(bo.companion) {
		return nil, fmt.Errorf("action: companion colour %v not in set %v: %w", bo.companion, cs, ErrColourNotHeld)
	}

	kind, depth := kindTop, int32(1)
	if parent != nil {
		depth = parent.depth + 1
		switch {
		case cs.Equal(parent.heritable):
			kind = kindNested
		case cs.Disjoint(parent.colours):
			kind = kindIndependent
		default:
			kind = kindRecoloured
		}
	}

	a := &Action{
		rt:        r,
		id:        ids.NewActionID(),
		parent:    parent,
		colours:   cs,
		heritable: heritable,
		defRead:   defRead,
		defWrite:  defWrite,
		companion: bo.companion,
		kind:      kind,
		depth:     depth,
		status:    Active,
	}

	if parent != nil {
		parent.mu.Lock()
		if parent.status != Active {
			parent.mu.Unlock()
			return nil, fmt.Errorf("action: parent %v is %v: %w", parent.id, parent.status, ErrNotActive)
		}
		parent.children = append(parent.children, a)
		parent.mu.Unlock()
	}
	r.register(a)
	return a, nil
}

// ID returns the action identifier.
func (a *Action) ID() ids.ActionID { return a.id }

// Colours returns the action's (static) colour set.
func (a *Action) Colours() colour.Set { return a.colours }

// DefaultColour returns the colour used by write operations that do not
// name one.
func (a *Action) DefaultColour() colour.Colour { return a.defWrite }

// ReadColour returns the colour used by read locks that do not name one.
func (a *Action) ReadColour() colour.Colour { return a.defRead }

// Parent returns the enclosing action, or nil for a top-level action.
func (a *Action) Parent() *Action { return a.parent }

// Status returns the action's lifecycle state.
func (a *Action) Status() Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.status
}

// Runtime returns the runtime the action belongs to.
func (a *Action) Runtime() *Runtime { return a.rt }

// heir returns the closest ancestor possessing colour c (paper §5.2
// commit rule), or ok == false when none exists, i.e. a is the outermost
// action of colour c and the colour's changes become permanent.
func (a *Action) heir(c colour.Colour) (*Action, bool) {
	for anc := a.parent; anc != nil; anc = anc.parent {
		if anc.colours.Contains(c) {
			return anc, true
		}
	}
	return nil, false
}

// defaultFor picks the default colour for a lock mode.
func (a *Action) defaultFor(mode lock.Mode) colour.Colour {
	if mode == lock.Read {
		return a.defRead
	}
	return a.defWrite
}

// Lock acquires a lock on the object in the given mode using the given
// colour, blocking until granted, the action aborts, or the lock manager
// reports a deadlock/timeout. When the action has a write companion
// colour, write locks are accompanied by an exclusive-read lock in that
// colour (§5.3 scheme). It is a step with nothing to apply (see Step).
func (a *Action) Lock(obj ids.ObjectID, mode lock.Mode, c colour.Colour) error {
	return a.step(obj, mode, c, true, nil, nil)
}

// TryLock is Lock without blocking; it returns lock.ErrConflict when a
// lock is unavailable.
func (a *Action) TryLock(obj ids.ObjectID, mode lock.Mode, c colour.Colour) error {
	return a.step(obj, mode, c, false, nil, nil)
}

// Step runs op as one operation of the action on res, a single step
// against the action's end. It takes res's lock in mode and colour c (the
// action's default for the mode when None), then runs op under the
// action's mutex, which Commit and Abort take to end the action: a step in
// flight finishes before its action ends, and a step that finds its action
// ended applies nothing, gives back any lock granted to it meanwhile, and
// fails with ErrAborted.
//
// first tells op that the action holds no before-image of res yet. A write
// then returns res's before-image, taken with its change under res's own
// mutex, and the step records it even when op fails, as op may have
// changed res part way; the first image per object wins. A read returns
// none. op must not call back into the action.
func (a *Action) Step(res Recoverable, mode lock.Mode, c colour.Colour, op func(first bool) (Image, error)) error {
	return a.step(res.ObjectID(), mode, c, true, res, op)
}

// afterGrant, set by tests, runs in every step between its lock grant and
// its apply.
var afterGrant func(*Action)

func (a *Action) step(obj ids.ObjectID, mode lock.Mode, c colour.Colour, wait bool, res Recoverable, op func(bool) (Image, error)) error {
	if c == colour.None {
		c = a.defaultFor(mode)
	}
	if !a.colours.Contains(c) {
		return fmt.Errorf("action %v locking with colour %v (own %v): %w", a.id, c, a.colours, ErrColourNotHeld)
	}
	if a.Status() != Active {
		return ErrNotActive
	}
	err := a.acquire(obj, mode, c, wait)
	if err == nil && mode == lock.Write && a.companion.Valid() && a.companion != c {
		err = a.acquire(obj, lock.ExclusiveRead, a.companion, wait)
	}
	if err == nil && afterGrant != nil {
		afterGrant(a)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.status != Active {
		// The end took or passed on every lock granted before it settled;
		// one granted since is the step's to give back.
		if a.settled {
			a.rt.locks.ReleaseAll(a.id)
		}
		return ErrAborted
	}
	if err != nil || op == nil {
		return err
	}
	im, err := op(!a.hasUndoLocked(obj))
	if im != nil {
		a.undo = append(a.undo, undoRecord{res: res, colour: c, before: im})
	}
	return err
}

// waitContext is the context an action's lock waits run under: it ends,
// with context.Canceled, when the action stops being active. Deriving a
// context per action would allocate at every Begin; this one costs
// nothing until a wait parks and asks for Done.
type waitContext struct{ a *Action }

var (
	_ context.Context   = waitContext{}
	_ lock.WaitObserver = waitContext{}
)

// LockWaited implements lock.WaitObserver: a lock request that blocked
// is an EventLockWait.
func (w waitContext) LockWaited(d time.Duration) { w.a.rt.observe(EventLockWait, w.a, d) }

func (waitContext) Deadline() (time.Time, bool) { return time.Time{}, false }
func (waitContext) Value(any) any               { return nil }

func (w waitContext) Err() error {
	if w.a.Status() != Active {
		return context.Canceled
	}
	return nil
}

func (w waitContext) Done() <-chan struct{} {
	a := w.a
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.done == nil {
		a.done = make(chan struct{})
		if a.status != Active {
			close(a.done)
		}
	}
	return a.done
}

// completeLocked moves an active action to its final status and wakes
// its lock waits. Caller holds a.mu.
func (a *Action) completeLocked(st Status) {
	a.status = st
	if a.done != nil {
		close(a.done)
	}
}

func (a *Action) acquire(obj ids.ObjectID, mode lock.Mode, c colour.Colour, wait bool) error {
	if a.rt.closed.Load() {
		return fmt.Errorf("action %v: runtime closed: %w", a.id, ErrNotActive)
	}
	req := lock.Request{Object: obj, Owner: a.id, Colour: c, Mode: mode}
	if !wait {
		return a.rt.locks.TryAcquire(req)
	}
	err := a.rt.locks.Acquire(waitContext{a}, req)
	if errors.Is(err, context.Canceled) {
		return ErrAborted
	}
	return err
}

// hasUndoLocked reports whether the log holds a before-image for the
// object. Caller holds a.mu.
func (a *Action) hasUndoLocked(id ids.ObjectID) bool {
	for i := range a.undo {
		if a.undo[i].res.ObjectID() == id {
			return true
		}
	}
	return false
}

// HasWrites reports whether the action has written any object at all
// (persistent or volatile-only). A participant for which this is false
// performed pure reads: the commit protocol lets it vote yes without
// logging and drops it from the completion phase. Volatile-only writers
// deliberately count as writers — their commit must still run so heirs
// and completion hooks fire.
func (a *Action) HasWrites() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.undo) > 0
}

// PendingWrites captures the serialized current states of every
// persistent object this action has written, as one batch. The
// distributed commit protocol (internal/dist) forces this write set to
// the intention log during its prepare phase; a crash between prepare
// and decision is then repaired from the log.
func (a *Action) PendingWrites() (store.Batch, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	batch := store.Batch{Writes: make(map[ids.ObjectID]store.State, len(a.undo))}
	for _, rec := range a.undo {
		if rec.res.Persister() == nil {
			continue
		}
		st, err := rec.res.CaptureState()
		if err != nil {
			return store.Batch{}, fmt.Errorf("capture %v: %w", rec.res.ObjectID(), err)
		}
		batch.Writes[rec.res.ObjectID()] = st
	}
	return batch, nil
}

// Commit terminates the action successfully.
//
// Per colour c of the action: if an ancestor possesses c, the locks and
// recovery records of colour c pass to the closest such ancestor;
// otherwise the write set of colour c is flushed atomically to the
// objects' stable stores and the locks are released (permanence of
// effect, paper §5.1 property 3).
//
// Commit fails with ErrActiveChildren while nested actions sharing any
// colour with a are still active. Active colour-disjoint children
// (independent actions) are left running. On permanence failure the
// action is aborted and ErrPermanence returned.
func (a *Action) Commit() error { return a.commit(nil, nil) }

// CommitWith is Commit with sink standing in for the objects' own stable
// stores: it receives the whole outermost write set as one batch — empty
// when the action wrote no persistent object, and applied all the same —
// and must have made it durable and installed it where the objects
// reload from when it returns nil. The distributed layer's one-phase
// commit uses it to make the write set and the commit decision one log
// record under one force.
func (a *Action) CommitWith(sink Persister) error { return a.commit(sink, nil) }

// CommitPrepared is CommitWith for an action unchanged since PendingWrites
// captured prepared: a top-level one hands sink that very batch; one with
// a parent, whose records may pass to an heir, captures as CommitWith.
func (a *Action) CommitPrepared(sink Persister, prepared store.Batch) error {
	if a.parent != nil {
		return a.commit(sink, nil)
	}
	return a.commit(sink, &prepared)
}

func (a *Action) commit(sink Persister, prepared *store.Batch) error {
	a.mu.Lock()
	if a.status != Active {
		defer a.mu.Unlock()
		return fmt.Errorf("action %v is %v: %w", a.id, a.status, ErrNotActive)
	}
	for _, child := range a.children {
		if child.Status() == Active && !child.colours.Disjoint(a.colours) {
			a.mu.Unlock()
			return fmt.Errorf("action %v: child %v still active: %w", a.id, child.id, ErrActiveChildren)
		}
	}

	// Partition the write set of colours that have no heir by stable
	// store. An action writes to a store or two, so the partition is a
	// slice to scan.
	type flush struct {
		persister Persister
		batch     store.Batch
	}
	var flushBuf [2]flush
	flushes := flushBuf[:0]
	undo := a.undo
	switch {
	case prepared != nil:
		// Top level: no record has an heir, so prepared is the write set.
		flushes = append(flushes, flush{persister: sink, batch: *prepared})
		undo = nil
	case sink != nil:
		flushes = append(flushes, flush{persister: sink, batch: store.Batch{Writes: make(map[ids.ObjectID]store.State)}})
	}
	for _, rec := range undo {
		if _, ok := a.heir(rec.colour); ok {
			continue // handed to the heir below
		}
		// Outermost for this colour: the current state becomes
		// permanent.
		p := rec.res.Persister()
		if p == nil {
			continue // volatile-only object: nothing to flush
		}
		st, err := rec.res.CaptureState()
		if err != nil {
			a.mu.Unlock()
			a.Abort()
			return fmt.Errorf("capture %v for permanence: %w (%w)", rec.res.ObjectID(), err, ErrPermanence)
		}
		if sink != nil {
			p = sink
		}
		i := slices.IndexFunc(flushes, func(f flush) bool { return f.persister == p })
		if i < 0 {
			i = len(flushes)
			flushes = append(flushes, flush{persister: p, batch: store.Batch{Writes: make(map[ids.ObjectID]store.State)}})
		}
		flushes[i].batch.Writes[rec.res.ObjectID()] = st
	}

	// Flush permanence batches before publishing the commit. Each
	// batch is atomic within its store; cross-store atomicity is the
	// job of the distributed commit protocol (internal/dist).
	for _, f := range flushes {
		if err := f.persister.ApplyBatch(f.batch); err != nil {
			a.mu.Unlock()
			a.Abort()
			return fmt.Errorf("flush write set: %w (%w)", err, ErrPermanence)
		}
	}

	a.completeLocked(Committed)
	a.mu.Unlock()

	// Hand recovery records to their colours' heirs. The log is frozen
	// now that the action is complete.
	for _, rec := range a.undo {
		if h, ok := a.heir(rec.colour); ok {
			h.adoptRecord(rec)
		}
	}

	// Transfer / release locks per colour.
	a.mu.Lock()
	a.rt.locks.CommitTransfer(a.id, func(c colour.Colour) (ids.ActionID, bool) {
		if h, ok := a.heir(c); ok {
			assertHeirHoldsColour(a, h, c)
			return h.id, true
		}
		return 0, false
	})
	a.settled = true
	a.mu.Unlock()

	a.finish()
	return nil
}

// adoptRecord merges a committing child's recovery record into the
// heir's undo log; the heir's own before-image, if any, is older and
// stays.
func (h *Action) adoptRecord(rec undoRecord) {
	recordTransfers.Inc()
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.hasUndoLocked(rec.res.ObjectID()) {
		h.undo = append(h.undo, rec)
	}
}

// Abort terminates the action undoing its effects: active descendants
// sharing a colour abort first (deepest first), every recorded
// before-image is restored in reverse order, and all locks are
// discarded. Colour-disjoint active children — independent actions —
// survive. Aborting a completed action is a no-op returning nil, so
// defer a.Abort() is safe cleanup.
func (a *Action) Abort() error {
	a.mu.Lock()
	if a.status != Active {
		a.mu.Unlock()
		return nil
	}
	// Completing wakes any lock wait in flight on this action.
	a.completeLocked(Aborted)
	children := slices.Clone(a.children) // each child's finish edits the list
	undo := a.undo
	a.undo = nil
	a.mu.Unlock()

	// Cascade to non-independent descendants first so their (younger)
	// before-images are restored before ours.
	for _, child := range children {
		if child.colours.Disjoint(a.colours) {
			continue // independent action: survives invoker abort
		}
		_ = child.Abort() // Abort on completed children is a no-op
	}

	// Restore before-images in reverse order.
	var firstErr error
	for i := len(undo) - 1; i >= 0; i-- {
		if err := undo[i].before.Restore(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("restore %v: %w", undo[i].res.ObjectID(), err)
		}
	}

	a.mu.Lock()
	a.rt.locks.ReleaseAll(a.id)
	a.settled = true
	a.mu.Unlock()
	a.finish()
	return firstErr
}

// OnCompletion registers fn to run after the action completes, with the
// final status. Hooks run outside the action: they see the post-commit
// (or post-abort) world and typically start new top-level actions —
// the application-specific compensations of paper §3.4. Registering on
// a completed action runs fn immediately.
func (a *Action) OnCompletion(fn func(Status)) {
	a.mu.Lock()
	st := a.status
	if st == Active {
		a.completionHooks = append(a.completionHooks, fn)
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
	fn(st)
}

// finish detaches a completed action from the tree and the runtime, and
// runs completion hooks.
func (a *Action) finish() {
	if p := a.parent; p != nil {
		p.mu.Lock()
		if i := slices.Index(p.children, a); i >= 0 {
			p.children = slices.Delete(p.children, i, i+1)
		}
		p.mu.Unlock()
	}
	a.rt.unregister(a.id)

	a.mu.Lock()
	hooks := a.completionHooks
	a.completionHooks = nil
	st := a.status
	a.mu.Unlock()

	activeActions.Dec()
	kind := EventCommit
	if st == Aborted {
		abortsByKind[a.kind].Inc()
		kind = EventAbort
	} else {
		commitsByKind[a.kind].Inc()
	}
	a.rt.observe(kind, a, 0)

	for _, h := range hooks {
		h(st)
	}
}

// Run executes fn inside a new nested action and commits it when fn
// returns nil, aborts it when fn returns an error or panics (the panic
// is re-raised). It is the convenience wrapper used throughout the
// examples.
func (a *Action) Run(fn func(*Action) error, opts ...BeginOption) error {
	child, err := a.Begin(opts...)
	if err != nil {
		return err
	}
	return runAndComplete(child, fn)
}

// Run executes fn inside a new top-level action; see Action.Run.
func (r *Runtime) Run(fn func(*Action) error, opts ...BeginOption) error {
	a, err := r.Begin(opts...)
	if err != nil {
		return err
	}
	return runAndComplete(a, fn)
}

func runAndComplete(a *Action, fn func(*Action) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			_ = a.Abort()
			panic(r)
		}
	}()
	if err := fn(a); err != nil {
		if abortErr := a.Abort(); abortErr != nil {
			return fmt.Errorf("%w (abort: %v)", err, abortErr)
		}
		return err
	}
	return a.Commit()
}
