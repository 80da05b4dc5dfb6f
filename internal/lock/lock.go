// Package lock implements the coloured lock manager of paper §5.2.
//
// Objects are locked in one of three modes: read, write and exclusive
// read. Every lock carries the colour named by its requester. The grant
// rules generalise Moss's nested-transaction rules:
//
//   - write in colour a: every current holder (any mode, any colour) must
//     be an ancestor (inclusive) of the requester, and every write lock
//     currently held on the object must itself be coloured a;
//   - exclusive read in colour a: every current holder must be an ancestor
//     of the requester;
//   - read in colour a: every holder of a write or exclusive-read lock
//     must be an ancestor of the requester (shared reads are unrestricted).
//
// On commit, locks are inherited per colour by the closest ancestor
// possessing that colour, or released when no such ancestor exists; on
// abort all locks are discarded. Those transitions are driven by the
// action runtime through CommitTransfer and ReleaseAll.
//
// The manager performs deadlock handling two ways: requests that can never
// be granted (blocked by an ancestor's write lock of a different colour,
// which cannot be released while the requester runs) fail immediately with
// ErrDeadlock, and circular waits among peers are detected on the
// waits-for graph each time a request blocks.
//
// # Concurrency structure
//
// The lock table is striped: ObjectIDs hash onto a power-of-two array of
// shards, each with its own mutex, its own slice of the table and its own
// per-object FIFO wait queues. A grant or release therefore serializes
// only against traffic on the same shard, and the §5.2 grant evaluation
// runs entirely within one shard. Blocked acquirers park on a per-waiter
// channel registered in the object's wait queue; a release or commit
// transfer signals exactly the waiters queued on the objects whose locks
// changed — never the whole system. A striped owner index maps each
// action to the objects it holds locks on, so ReleaseAll, CommitTransfer
// and HeldObjects visit only the shards that actually contain the owner's
// locks. Deadlock detection lives in a dedicated cross-shard waits-for
// registry with its own mutex, updated when a request blocks or unblocks.
//
// Lock ordering: a shard mutex may be taken while no other manager lock
// is held; an owner-index stripe mutex may be taken under a shard mutex;
// the waits-for registry mutex is only ever taken with no shard or stripe
// mutex held. No blocking operation runs under any of them.
package lock

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mca/internal/clock"
	"mca/internal/colour"
	"mca/internal/flightrec"
	"mca/internal/ids"
)

// Mode is a lock mode.
type Mode int

// The three lock modes of paper §5.2.
const (
	Read Mode = iota + 1
	Write
	ExclusiveRead
)

// String renders the mode for traces and errors.
func (m Mode) String() string {
	switch m {
	case Read:
		return "read"
	case Write:
		return "write"
	case ExclusiveRead:
		return "xread"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Errors reported by the manager.
var (
	// ErrDeadlock is returned when a request provably can never be
	// granted: either the waits-for graph contains a cycle, or the
	// request is blocked by a lock that only an ancestor of the
	// requester holds in an incompatible way (the ancestor cannot
	// terminate while the requester is active, so the wait is forever).
	ErrDeadlock = errors.New("lock: deadlock")

	// ErrConflict is returned by TryAcquire when the request would
	// block.
	ErrConflict = errors.New("lock: conflicting lock held")

	// ErrInvalidRequest is returned for requests with a zero colour,
	// unknown mode or zero object.
	ErrInvalidRequest = errors.New("lock: invalid request")

	// ErrTimeout is returned when a blocking acquire exceeded the
	// manager's maximum wait.
	ErrTimeout = errors.New("lock: wait timed out")
)

// Ancestry lets the lock manager ask the action runtime about the action
// tree. IsSameOrAncestor(a, b) reports whether a == b or a is an ancestor
// of b.
type Ancestry interface {
	IsSameOrAncestor(a, b ids.ActionID) bool
}

// FamilyResolver optionally extends Ancestry: TopLevelOf returns the
// root of an action's tree. When available, deadlock detection runs on
// the waits-for graph between FAMILIES (top-level trees) rather than
// individual actions: a nested action's wait transitively blocks its
// whole family (locks release only at family completion), so cycles
// like "A's child waits on B's top, B's child waits on A's top" are
// real deadlocks even though no single action waits in a cycle. This is
// slightly conservative for colour-independent subtrees, whose spurious
// victims simply abort and retry.
type FamilyResolver interface {
	TopLevelOf(id ids.ActionID) ids.ActionID
}

// AncestryFunc adapts a function to the Ancestry interface.
type AncestryFunc func(a, b ids.ActionID) bool

// IsSameOrAncestor implements Ancestry.
func (f AncestryFunc) IsSameOrAncestor(a, b ids.ActionID) bool { return f(a, b) }

var _ Ancestry = AncestryFunc(nil)

// Request names one lock acquisition.
type Request struct {
	Object ids.ObjectID
	Owner  ids.ActionID
	Colour colour.Colour
	Mode   Mode
}

// Entry is one granted lock as reported by HoldersOf.
type Entry struct {
	Owner  ids.ActionID
	Colour colour.Colour
	Mode   Mode
}

// Option configures a Manager.
type Option interface{ apply(*options) }

type options struct {
	maxWait time.Duration
	shards  int
	clk     clock.Clock
}

type maxWaitOption time.Duration

func (o maxWaitOption) apply(opts *options) { opts.maxWait = time.Duration(o) }

// WithMaxWait bounds how long a blocking Acquire may wait before failing
// with ErrTimeout. Zero (the default) means wait until the context is
// cancelled.
func WithMaxWait(d time.Duration) Option { return maxWaitOption(d) }

type shardsOption int

func (o shardsOption) apply(opts *options) { opts.shards = int(o) }

// WithShards fixes the number of lock-table shards (rounded up to a
// power of two). The default scales with GOMAXPROCS; tests use 1 to
// exercise the degenerate single-shard layout.
func WithShards(n int) Option { return shardsOption(n) }

type clockOption struct{ c clock.Clock }

func (o clockOption) apply(opts *options) { opts.clk = o.c }

// WithClock substitutes the manager's time source (maxWait timers,
// block-duration metrics). The default is clock.Real().
func WithClock(c clock.Clock) Option { return clockOption{c} }

// defaultShardCount scales the stripe width with available parallelism:
// enough shards that concurrent acquirers on distinct objects rarely
// collide, bounded so small processes don't pay for empty maps.
func defaultShardCount() int {
	n := runtime.GOMAXPROCS(0) * 8
	if n < 8 {
		n = 8
	}
	if n > 256 {
		n = 256
	}
	return nextPow2(n)
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Manager is a coloured lock manager. It is safe for concurrent use.
type Manager struct {
	ancestry Ancestry
	opts     options

	// shards is the striped lock table; shardMask selects a shard from
	// a hashed ObjectID. len(shards) is a power of two, fixed at
	// construction.
	shards    []shard
	shardMask uint64

	// owners maps each action to the set of objects it holds locks on,
	// so release paths visit only the shards that matter.
	owners ownerIndex

	// waits is the cross-shard waits-for registry backing deadlock
	// cycle detection.
	waits waitsFor

	// slow holds the counters the shard-mutex fast path does not keep.
	// It is allocated apart from the manager, like shards, so that the
	// process totals can fold both in once the manager is collected
	// (metrics.go).
	slow *slowCounts
}

// slowCounts are the atomic counters of the paths off the shard-mutex
// fast path. Those paths have already parked or taken the waits-for
// mutex, so an atomic add is free by comparison.
type slowCounts struct {
	// signals counts targeted waiter wakeups; tests use it to pin that
	// a release wakes only the waiters queued on the released objects.
	signals atomic.Uint64
	// Failure outcomes (cycle deadlocks, timeouts, cancellations),
	// indexed by Mode (slot 0 unused).
	cycles   [4]atomic.Uint64
	timeouts [4]atomic.Uint64
	cancels  [4]atomic.Uint64
}

// shardStats are the shard's hot-path telemetry counters. They are
// plain integers deliberately: every increment happens under the shard
// mutex the surrounding operation already holds, so instrumenting the
// grant/release cycle costs an in-cache add, not an atomic RMW (which
// measurably regresses the uncontended acquire/release benchmark).
// Gather-time collectors in metrics.go sum them across shards and live
// managers. Arrays are indexed by Mode (1..3; slot 0 unused).
type shardStats struct {
	grants    [4]uint64 // granted requests, by mode
	conflicts [4]uint64 // TryAcquire refusals, by mode
	permanent [4]uint64 // permanent (ancestor-write) deadlocks, by mode
	blocks    uint64    // Acquires that parked at least once
	inherited uint64    // entries inherited by an heir on commit
	relCommit uint64    // entries released outright on commit
	relAbort  uint64    // entries discarded by ReleaseAll
}

// shard is one stripe of the lock table. Its mutex covers both maps.
type shard struct {
	mu sync.Mutex

	// stats accumulates this shard's telemetry; guarded by mu.
	stats shardStats
	// objects maps each object to its lock entries. A record whose
	// entry list drains is retained (list emptied, capacity kept) so
	// the object's next grant re-uses it instead of reallocating; the
	// footprint is one small record per object ever locked, the same
	// order as the object store itself.
	objects map[ids.ObjectID]*objectLocks
	// waiters holds, per object, the FIFO queue of parked acquirers.
	// A queue may outlive the object's entry list (the blocker
	// released; the waiters have not yet re-evaluated).
	waiters map[ids.ObjectID][]*waiter
}

type objectLocks struct {
	entries []Entry
}

// waiter is one parked Acquire. ready has capacity 1: a targeted signal
// is a non-blocking send, so wakeups coalesce instead of piling up.
type waiter struct {
	owner ids.ActionID
	ready chan struct{}
}

// NewManager builds a Manager over the given ancestry oracle.
func NewManager(ancestry Ancestry, opts ...Option) *Manager {
	var o options
	for _, opt := range opts {
		opt.apply(&o)
	}
	if o.clk == nil {
		o.clk = clock.Real()
	}
	n := o.shards
	if n <= 0 {
		n = defaultShardCount()
	} else {
		n = nextPow2(n)
	}
	m := &Manager{
		ancestry:  ancestry,
		opts:      o,
		shards:    make([]shard, n),
		shardMask: uint64(n - 1),
		slow:      new(slowCounts),
	}
	for i := range m.shards {
		m.shards[i].objects = make(map[ids.ObjectID]*objectLocks)
		m.shards[i].waiters = make(map[ids.ObjectID][]*waiter)
	}
	m.owners.init()
	if fr, ok := ancestry.(FamilyResolver); ok {
		m.waits.init(fr.TopLevelOf)
	} else {
		m.waits.init(func(id ids.ActionID) ids.ActionID { return id })
	}
	registerManager(m)
	return m
}

// mix64 is the splitmix64 finalizer: ObjectIDs are sequential small
// integers, so without mixing they would stripe onto shards in lockstep
// with allocation order.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (m *Manager) shardIndex(o ids.ObjectID) uint64 { return mix64(uint64(o)) & m.shardMask }

func (m *Manager) shardOf(o ids.ObjectID) *shard { return &m.shards[m.shardIndex(o)] }

func validate(req Request) error {
	if req.Object == 0 || req.Owner == 0 || !req.Colour.Valid() {
		return ErrInvalidRequest
	}
	switch req.Mode {
	case Read, Write, ExclusiveRead:
		return nil
	default:
		return ErrInvalidRequest
	}
}

// memoInline is how many (holder, answer) pairs an ancestryMemo keeps
// in its inline arrays before spilling to a map. Objects rarely have
// more distinct holders than this.
const memoInline = 8

// ancestryMemo caches IsSameOrAncestor(holder, requester) per holder for
// the lifetime of one request. An action's ancestor chain is fixed at
// creation, so a cached answer stays valid across wakeups; holders that
// appear mid-wait simply miss and resolve fresh. The memo lives on the
// acquirer's stack and allocates nothing until more than memoInline
// distinct holders are consulted.
type ancestryMemo struct {
	n        int
	keys     [memoInline]ids.ActionID
	vals     [memoInline]bool
	overflow map[ids.ActionID]bool
}

func (mm *ancestryMemo) resolve(anc Ancestry, holder, requester ids.ActionID) bool {
	if holder == requester {
		return true
	}
	for i := 0; i < mm.n; i++ {
		if mm.keys[i] == holder {
			return mm.vals[i]
		}
	}
	if v, ok := mm.overflow[holder]; ok {
		return v
	}
	v := anc.IsSameOrAncestor(holder, requester)
	if mm.n < memoInline {
		mm.keys[mm.n] = holder
		mm.vals[mm.n] = v
		mm.n++
	} else {
		if mm.overflow == nil {
			mm.overflow = make(map[ids.ActionID]bool, memoInline)
		}
		mm.overflow[holder] = v
	}
	return v
}

// TryAcquire grants the request immediately or returns ErrConflict (or
// ErrDeadlock for permanently blocked requests) without waiting.
func (m *Manager) TryAcquire(req Request) error {
	if err := validate(req); err != nil {
		return err
	}
	var memo ancestryMemo
	s := m.shardOf(req.Object)
	s.mu.Lock()
	defer s.mu.Unlock()
	blockers, permanent := m.evaluateLocked(s, req, &memo)
	if permanent {
		s.stats.permanent[req.Mode]++
		flightrec.Record(flightrec.Event{Kind: flightrec.KindDeadlock, A: uint64(req.Owner), B: uint64(req.Object)})
		return ErrDeadlock
	}
	if len(blockers) > 0 {
		s.stats.conflicts[req.Mode]++
		return ErrConflict
	}
	m.grantLocked(s, req)
	m.checkShardInvariants(s)
	return nil
}

// WaitObserver is implemented by an Acquire context that wants to learn
// how long its request stayed parked: Acquire calls LockWaited once for a
// request that blocked, whatever the outcome, after the wait.
type WaitObserver interface {
	LockWaited(time.Duration)
}

// Acquire grants the request, waiting for conflicting locks to be
// released. It fails with ErrDeadlock when the wait provably cannot end,
// with ErrTimeout when the manager's maximum wait is exceeded, and with
// the context's error when ctx is cancelled.
//
// An uncontended Acquire takes one shard mutex and returns: no
// goroutine, timer or channel is allocated unless the request actually
// blocks. A blocked Acquire parks on its waiter channel in the object's
// FIFO queue and re-evaluates the grant rules each time a release on
// that object signals it.
func (m *Manager) Acquire(ctx context.Context, req Request) error {
	if err := validate(req); err != nil {
		return err
	}
	var (
		memo       ancestryMemo
		deadline   <-chan time.Time
		w          *waiter
		blockStart time.Time
	)
	// Record how long the request spent parked, whatever the outcome,
	// and tell a context that asks. Requests that never block skip the
	// observation entirely.
	defer func() {
		if w != nil {
			blocked := m.opts.clk.Since(blockStart)
			blockNs.ObserveDuration(blocked)
			if o, ok := ctx.(WaitObserver); ok {
				o.LockWaited(blocked)
			}
		}
	}()
	s := m.shardOf(req.Object)
	for {
		if err := ctx.Err(); err != nil {
			m.slow.cancels[req.Mode].Add(1)
			m.abandonWait(s, req.Object, req.Owner, w)
			return err
		}
		s.mu.Lock()
		blockers, permanent := m.evaluateLocked(s, req, &memo)
		if permanent {
			s.stats.permanent[req.Mode]++
			m.dequeueLocked(s, req.Object, w)
			s.mu.Unlock()
			m.finishWait(req.Owner, w)
			flightrec.Record(flightrec.Event{Kind: flightrec.KindDeadlock, A: uint64(req.Owner), B: uint64(req.Object)})
			flightrec.AutoDump("deadlock")
			return ErrDeadlock
		}
		if len(blockers) == 0 {
			m.grantLocked(s, req)
			m.dequeueLocked(s, req.Object, w)
			m.checkShardInvariants(s)
			s.mu.Unlock()
			m.finishWait(req.Owner, w)
			return nil
		}
		if w == nil {
			w = &waiter{owner: req.Owner, ready: make(chan struct{}, 1)}
			s.waiters[req.Object] = append(s.waiters[req.Object], w)
			s.stats.blocks++
			blockStart = m.opts.clk.Now()
			flightrec.Record(flightrec.Event{Kind: flightrec.KindLockBlock, A: uint64(req.Owner), B: uint64(req.Object)})
			// The timer backing ErrTimeout starts on first block:
			// uncontended acquires never pay for it.
			if m.opts.maxWait > 0 && deadline == nil {
				timer := m.opts.clk.NewTimer(m.opts.maxWait)
				defer timer.Stop()
				deadline = timer.C()
			}
		}
		s.mu.Unlock()
		// Register the waits-for edges and check for a cycle through
		// this owner's family. Registration is atomic with the check,
		// so of two requests completing a cycle concurrently at least
		// the later one observes it.
		if m.waits.block(req.Owner, blockers) {
			m.slow.cycles[req.Mode].Add(1)
			m.abandonWait(s, req.Object, req.Owner, w)
			flightrec.Record(flightrec.Event{Kind: flightrec.KindDeadlock, A: uint64(req.Owner), B: uint64(req.Object)})
			flightrec.AutoDump("deadlock")
			return ErrDeadlock
		}
		select {
		case <-w.ready:
			// A lock on the object changed; loop and re-evaluate.
		case <-ctx.Done():
			m.slow.cancels[req.Mode].Add(1)
			m.abandonWait(s, req.Object, req.Owner, w)
			return ctx.Err()
		case <-deadline:
			m.slow.timeouts[req.Mode].Add(1)
			m.abandonWait(s, req.Object, req.Owner, w)
			return ErrTimeout
		}
	}
}

// abandonWait removes the waiter from its queue and clears the owner's
// waits-for edges on a non-grant exit path. A nil waiter means the
// request never blocked and left no state behind.
func (m *Manager) abandonWait(s *shard, obj ids.ObjectID, owner ids.ActionID, w *waiter) {
	if w == nil {
		return
	}
	s.mu.Lock()
	m.dequeueLocked(s, obj, w)
	s.mu.Unlock()
	m.waits.clear(owner)
}

// finishWait clears the owner's waits-for edges after a grant or
// permanent-deadlock exit (the queue entry was already removed under the
// shard mutex).
func (m *Manager) finishWait(owner ids.ActionID, w *waiter) {
	if w == nil {
		return
	}
	m.waits.clear(owner)
}

// dequeueLocked splices the waiter out of the object's queue. Callers
// hold s.mu. A nil waiter is a no-op.
func (m *Manager) dequeueLocked(s *shard, obj ids.ObjectID, w *waiter) {
	if w == nil {
		return
	}
	q := s.waiters[obj]
	for i, x := range q {
		if x == w {
			q = append(q[:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(s.waiters, obj)
	} else {
		s.waiters[obj] = q
	}
}

// signalWaiters delivers one targeted wakeup to each waiter. Sends are
// non-blocking (the channel has capacity 1), so an already-signalled
// waiter coalesces rather than blocking the releaser. Callers must NOT
// hold the shard mutex; the woken waiters immediately contend for it.
func (m *Manager) signalWaiters(woken []*waiter) {
	for _, w := range woken {
		m.slow.signals.Add(1)
		select {
		case w.ready <- struct{}{}:
		default:
		}
	}
}

// evaluateLocked applies the §5.2 grant rules within the object's shard.
// It returns the set of owners blocking the request and whether the
// block is permanent (an ancestor of the requester holds a write lock in
// a different colour, which cannot be released while the requester
// runs). Callers hold s.mu.
func (m *Manager) evaluateLocked(s *shard, req Request, memo *ancestryMemo) (blockers map[ids.ActionID]struct{}, permanent bool) {
	ol := s.objects[req.Object]
	if ol == nil {
		return nil, false
	}
	for _, e := range ol.entries {
		if e.Owner == req.Owner && e.Colour == req.Colour && e.Mode == req.Mode {
			continue // re-acquisition of a held lock is free
		}
		isAncestor := memo.resolve(m.ancestry, e.Owner, req.Owner)
		switch req.Mode {
		case Read:
			if e.Mode == Read {
				continue // shared
			}
			if !isAncestor {
				if blockers == nil {
					blockers = make(map[ids.ActionID]struct{})
				}
				blockers[e.Owner] = struct{}{}
			}
		case ExclusiveRead:
			if !isAncestor {
				if blockers == nil {
					blockers = make(map[ids.ActionID]struct{})
				}
				blockers[e.Owner] = struct{}{}
			}
		case Write:
			if !isAncestor {
				if blockers == nil {
					blockers = make(map[ids.ActionID]struct{})
				}
				blockers[e.Owner] = struct{}{}
				continue
			}
			if e.Mode == Write && e.Colour != req.Colour {
				// An ancestor (possibly the requester itself)
				// holds a write lock in another colour. That
				// lock cannot be released before the requester
				// terminates, so the request can never be
				// granted (paper §5.2: an action "may only
				// acquire a write lock on that object using
				// colour a").
				return nil, true
			}
		}
	}
	return blockers, false
}

// grantLocked records the lock and indexes it under its owner. Callers
// hold s.mu. Duplicate (owner, colour, mode) triples collapse. The
// owner index is touched only when this is the owner's first entry on
// the object; re-acquisitions in a new mode or colour stay shard-local.
func (m *Manager) grantLocked(s *shard, req Request) {
	s.stats.grants[req.Mode]++
	ol := s.objects[req.Object]
	if ol == nil {
		ol = &objectLocks{}
		s.objects[req.Object] = ol
	}
	ownerHolds := false
	for _, e := range ol.entries {
		if e.Owner == req.Owner {
			if e.Colour == req.Colour && e.Mode == req.Mode {
				return
			}
			ownerHolds = true
		}
	}
	ol.entries = append(ol.entries, Entry{Owner: req.Owner, Colour: req.Colour, Mode: req.Mode})
	if !ownerHolds {
		m.owners.add(req.Owner, req.Object)
	}
}

// sortByShard orders the owner's held objects by (shard index, object)
// in place, so multi-shard mutations always walk the table in the same
// direction (release order was never observable under the old global
// mutex either, but determinism keeps the invariants checker and
// LockCount snapshots consistent). Small sets — the overwhelmingly
// common case — use an allocation-free insertion sort over precomputed
// shard keys.
func (m *Manager) sortByShard(objs []ids.ObjectID) {
	if len(objs) < 2 {
		return
	}
	if len(objs) <= 32 {
		var keys [32]uint64
		for i, o := range objs {
			keys[i] = m.shardIndex(o)
		}
		for i := 1; i < len(objs); i++ {
			k, o := keys[i], objs[i]
			j := i - 1
			for j >= 0 && (keys[j] > k || (keys[j] == k && objs[j] > o)) {
				keys[j+1], objs[j+1] = keys[j], objs[j]
				j--
			}
			keys[j+1], objs[j+1] = k, o
		}
		return
	}
	// Shell sort for the rare large set: closure-free on purpose, so the
	// release paths' stack buffer never escapes through a sort.Slice
	// func value.
	n := len(objs)
	for gap := n / 2; gap > 0; gap /= 2 {
		for i := gap; i < n; i++ {
			o := objs[i]
			k := m.shardIndex(o)
			j := i
			for j >= gap && m.shardLess(k, o, objs[j-gap]) {
				objs[j] = objs[j-gap]
				j -= gap
			}
			objs[j] = o
		}
	}
}

// shardLess orders (k, o) before other under the (shard index, object)
// release-path ordering; k is o's precomputed shard index.
func (m *Manager) shardLess(k uint64, o, other ids.ObjectID) bool {
	ko := m.shardIndex(other)
	return k < ko || (k == ko && o < other)
}

// ReleaseAll discards every lock held by owner (abort semantics, paper
// §5.2: "the locks of all colours and modes are discarded"). Ancestors
// holding their own locks on the same objects keep them. Only the
// waiters queued on the released objects are woken.
//
// The owner's whole held-object list is claimed from the index in one
// stripe operation, then the affected shards are visited in index order.
func (m *Manager) ReleaseAll(owner ids.ActionID) {
	var buf [8]ids.ObjectID
	objs := m.owners.take(owner, buf[:0])
	if len(objs) == 0 {
		return
	}
	m.sortByShard(objs)
	for start := 0; start < len(objs); {
		idx := m.shardIndex(objs[start])
		end := start + 1
		for end < len(objs) && m.shardIndex(objs[end]) == idx {
			end++
		}
		s := &m.shards[idx]
		var woken []*waiter
		s.mu.Lock()
		for _, oid := range objs[start:end] {
			ol := s.objects[oid]
			if ol == nil {
				continue
			}
			kept := ol.entries[:0]
			for _, e := range ol.entries {
				if e.Owner != owner {
					kept = append(kept, e)
				}
			}
			if len(kept) == len(ol.entries) {
				continue
			}
			s.stats.relAbort += uint64(len(ol.entries) - len(kept))
			ol.entries = kept
			woken = append(woken, s.waiters[oid]...)
		}
		m.checkShardInvariants(s)
		s.mu.Unlock()
		if len(woken) > 0 {
			m.signalWaiters(woken)
		}
		start = end
	}
}

// Heir resolves, per colour, which action inherits a committing action's
// locks of that colour. Returning ok == false means the lock is released
// and the colour's changes become permanent.
type Heir func(colour.Colour) (ids.ActionID, bool)

// CommitTransfer applies commit semantics for owner: every lock of colour
// a is inherited (in the same mode) by heir(a) when one exists, otherwise
// released. It returns the identifiers of objects on which at least one
// lock was released outright, which the action runtime uses to double-
// check its permanence bookkeeping. Only the waiters queued on the
// affected objects are woken.
func (m *Manager) CommitTransfer(owner ids.ActionID, heir Heir) []ids.ObjectID {
	var buf [8]ids.ObjectID
	objs := m.owners.take(owner, buf[:0])
	if len(objs) == 0 {
		return nil
	}
	var released []ids.ObjectID
	m.sortByShard(objs)
	for start := 0; start < len(objs); {
		idx := m.shardIndex(objs[start])
		end := start + 1
		for end < len(objs) && m.shardIndex(objs[end]) == idx {
			end++
		}
		s := &m.shards[idx]
		var woken []*waiter
		s.mu.Lock()
		for _, oid := range objs[start:end] {
			ol := s.objects[oid]
			if ol == nil {
				continue
			}
			kept := ol.entries[:0]
			releasedHere := false
			ownerHad := false
			for _, e := range ol.entries {
				if e.Owner != owner {
					// Dedup against already-inherited entries too: when the
					// committing owner's entry precedes the heir's own
					// identical entry, the inherited copy is appended first
					// and the original must collapse into it.
					if !containsEntry(kept, e) {
						kept = append(kept, e)
					}
					continue
				}
				ownerHad = true
				h, ok := heir(e.Colour)
				if !ok {
					releasedHere = true
					s.stats.relCommit++
					continue
				}
				s.stats.inherited++
				m.assertHeir(owner, h, e.Colour)
				inherited := Entry{Owner: h, Colour: e.Colour, Mode: e.Mode}
				if !containsEntry(kept, inherited) {
					kept = append(kept, inherited)
				}
				m.owners.add(h, oid)
			}
			ol.entries = kept
			if releasedHere {
				released = append(released, oid)
			}
			if ownerHad {
				woken = append(woken, s.waiters[oid]...)
			}
		}
		m.checkShardInvariants(s)
		s.mu.Unlock()
		if len(woken) > 0 {
			m.signalWaiters(woken)
		}
		start = end
	}
	return released
}

func containsEntry(entries []Entry, e Entry) bool {
	for _, x := range entries {
		if x == e {
			return true
		}
	}
	return false
}

// HoldersOf returns a copy of the lock entries currently held on the
// object, for introspection by tests and the experiment harness.
func (m *Manager) HoldersOf(object ids.ObjectID) []Entry {
	s := m.shardOf(object)
	s.mu.Lock()
	defer s.mu.Unlock()
	ol := s.objects[object]
	if ol == nil || len(ol.entries) == 0 {
		return nil
	}
	out := make([]Entry, len(ol.entries))
	copy(out, ol.entries)
	return out
}

// Holds reports whether owner holds a lock on object in the given mode
// and colour.
func (m *Manager) Holds(owner ids.ActionID, object ids.ObjectID, mode Mode, c colour.Colour) bool {
	s := m.shardOf(object)
	s.mu.Lock()
	defer s.mu.Unlock()
	ol := s.objects[object]
	if ol == nil {
		return false
	}
	return containsEntry(ol.entries, Entry{Owner: owner, Colour: c, Mode: mode})
}

// HeldObjects returns the identifiers of objects on which owner holds at
// least one lock, in ascending object order.
func (m *Manager) HeldObjects(owner ids.ActionID) []ids.ObjectID {
	out := m.owners.objects(owner)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LockCount returns the total number of lock entries currently held,
// used by experiments measuring lock footprint. Shards are visited in
// index order; the count is a consistent snapshot only at quiescence.
func (m *Manager) LockCount() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		for _, ol := range s.objects {
			n += len(ol.entries)
		}
		s.mu.Unlock()
	}
	return n
}

// waitersOn reports the queue length for one object, for tests that
// need to observe a waiter parking.
func (m *Manager) waitersOn(object ids.ObjectID) int {
	s := m.shardOf(object)
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters[object])
}

// signalCount returns the cumulative number of targeted wakeups sent,
// for tests pinning the no-spurious-wakeup property.
func (m *Manager) signalCount() uint64 { return m.slow.signals.Load() }
