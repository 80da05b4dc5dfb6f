// Package store implements the stable storage of paper §2: object states
// that survive node crashes. A node's volatile state is what its Crash
// discards (internal/node); nothing here models it.
//
// Stores hold opaque serialized object states keyed by object identifier.
// Every write is an atomic batch — the all-or-nothing installation of a
// top-level (or outermost-coloured) action's write set — and stable
// stores also keep an intention log used by the distributed commit
// protocol. A file-backed stable store keeps both in one append-only log
// (log.go) that recovery replays; in the in-memory one the object map is
// itself the disk.
package store

import (
	"errors"
	"fmt"
	"maps"
	"sync"

	"mca/internal/flightrec"
	"mca/internal/ids"
	"mca/internal/metrics"
)

// State is an opaque serialized object state. Read returns a copy, so
// callers may change it. A state handed to the store, in a Batch or an
// Intention, is kept as it is, uncopied: nobody writes it again.
type State []byte

// ErrNotFound is returned when no state is recorded for an object.
var ErrNotFound = errors.New("store: object not found")

// ErrCrashed is returned by operations attempted on a store whose node is
// crashed (fail-silence: a crashed node performs no work).
var ErrCrashed = errors.New("store: node is crashed")

// ErrUnresolved is returned by Stable.Read for an object whose state is in
// doubt: a prepared record replayed at the store's open or recovery writes
// it. It is transient: the record's commit or abort lifts it.
var ErrUnresolved = errors.New("store: object written by an unresolved transaction")

var readsRefused = metrics.Default().Counter("mca_store_reads_refused_total",
	"Stable-store reads refused with ErrUnresolved: the object is written by a prepared record replayed at a restart and not yet resolved.")

// Batch is a write set applied atomically to a stable store.
// ApplyBatch and ApplyBatchLazy keep nothing of the batch but its states
// once they return, so the caller may clear its map and reuse it; nobody
// may write a state handed in again. Record keeps an intention's write
// set whole, map included: the caller must not change it afterwards.
type Batch struct {
	Writes  map[ids.ObjectID]State
	Deletes []ids.ObjectID
}

// Empty reports whether the batch changes nothing.
func (b Batch) Empty() bool { return len(b.Writes) == 0 && len(b.Deletes) == 0 }

func cloneState(s State) State {
	if s == nil {
		return nil
	}
	out := make(State, len(s))
	copy(out, s)
	return out
}

// CrashPoint selects a moment inside the next ApplyBatch or
// ApplyBatchLazy at which an injected crash takes effect, for recovery
// testing. On either backing the call returns ErrCrashed, and after
// Recover the batch is wholly absent or wholly present.
type CrashPoint int

// Crash points understood by Stable.CrashDuringNextBatch.
const (
	// CrashBeforeForce crashes before the batch is durable: it is lost.
	CrashBeforeForce CrashPoint = iota + 1
	// CrashAfterForce crashes once the batch is durable: Recover yields
	// it whole.
	CrashAfterForce
)

// Stable is one incarnation's handle on a node's stable storage: Crash
// closes it for good, keeping what is durable for the handle Restart
// opens. A closed handle refuses every operation, one begun before the
// crash included. Every object write is a batch (ApplyBatch,
// ApplyBatchLazy), installed whole or not at all. It is safe for
// concurrent use.
//
// NewStable's storage is in memory: its object map is the disk, so a
// batch is durable once applied. Storage opened with NewStableAt is
// log-structured: every durable mutation — object batches and intention
// records — is one record appended to the directory's wal.log through the
// group-commit WAL, forced, and only then installed in data, which is a
// cache of the log's replay. Restart re-reads the log, so the next
// incarnation sees exactly what was durable at the crash — the "diskfull
// workstation" configuration, with the in-memory store's crash model.
type Stable struct {
	d   *disk
	gen uint64 // the disk's crash generation when the handle was opened
}

// disk is the storage the handles of a node's incarnations share: object
// states, fences and the log, whose settings and counters outlive crashes.
type disk struct {
	mu     sync.Mutex
	closed bool // by Close: no incarnation follows
	data   map[ids.ObjectID]State
	// sums checks, under the invariants build tag, that nobody writes an
	// installed state; without it, it is empty and does nothing.
	sums stateSums
	// pendingCrash injects a crash at the chosen point of the next batch.
	pendingCrash CrashPoint
	// fenced maps every object a prepared record replayed at the last open
	// or Restart writes or deletes to the record's action, until the
	// record is forgotten (IntentionLog.Forget). Records appended since
	// fence nothing: the action that wrote them holds the objects' locks.
	fenced map[ids.ObjectID]ids.ActionID
	// cur is the newest handle, the one Restart takes.
	cur *Stable
	wal *WAL
}

// handle returns a handle of the disk's current incarnation and makes it
// the newest. Called with mu held, or before the disk is shared.
func (d *disk) handle() *Stable {
	d.cur = &Stable{d: d, gen: d.wal.gen.Load()}
	return d.cur
}

// NewStable returns an empty stable store.
func NewStable() *Stable {
	d := &disk{data: make(map[ids.ObjectID]State)}
	d.wal = newWAL(d, nil, nil)
	return d.handle()
}

// NewStableAt returns a stable store backed by the log in dir (created
// if absent): the log is replayed into the object cache and the
// intention index, and a torn tail — an append a crash interrupted — is
// cut off. A directory in the per-object-file layout of earlier
// versions is refused.
func NewStableAt(dir string) (*Stable, error) {
	s, _, err := OpenFileStore(dir)
	return s, err
}

// OpenFileStore is NewStableAt, also reporting whether a torn tail — an
// append a crash interrupted, never acknowledged — was cut off.
func OpenFileStore(dir string) (*Stable, bool, error) {
	lf, img, truncated, err := openLogFile(dir)
	if err != nil {
		return nil, false, err
	}
	d := &disk{data: img.data, fenced: fencesOf(img.index)}
	d.sums.replayed(d.data)
	d.wal = newWAL(d, lf, img.index)
	return d.handle(), truncated, nil
}

// open reports whether no crash has closed the handle, for good.
func (s *Stable) open() bool { return s.gen == s.d.wal.gen.Load() }

// Read returns the state recorded for the object, or ErrNotFound. A fenced
// object is refused with ErrUnresolved whether or not the store holds a
// state for it, so an object the unresolved transaction creates is not
// created a second time.
func (s *Stable) Read(id ids.ObjectID) (State, error) {
	d := s.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if !s.open() {
		return nil, ErrCrashed
	}
	if a, ok := d.fenced[id]; ok {
		readsRefused.Inc()
		flightrec.Record(flightrec.Event{Kind: flightrec.KindUnresolvedRead, Node: d.wal.nodeID.Load(), A: uint64(id), B: uint64(a)})
		return nil, fmt.Errorf("%w (object %v, transaction %v)", ErrUnresolved, id, a)
	}
	st, ok := d.data[id]
	if !ok {
		return nil, ErrNotFound
	}
	d.sums.check(id, st)
	return cloneState(st), nil
}

// ApplyBatch installs the batch atomically: either every write and delete
// takes effect or none does. It returns once the batch is durable, or
// with ErrCrashed when the handle is, or became, closed. It keeps
// nothing of the batch but its states (Batch).
func (s *Stable) ApplyBatch(b Batch) error { return s.applyBatch(b, false) }

// ApplyBatchLazy is ApplyBatch without the wait: on the file backing the
// batch is installed at once and its record joins the log's open batch,
// durable with the next record forced (Durable says when) and lost to a
// crash before then. An armed crash point fires as in ApplyBatch. It
// keeps nothing of the batch but its states (Batch).
func (s *Stable) ApplyBatchLazy(b Batch) error { return s.applyBatch(b, true) }

func (s *Stable) applyBatch(b Batch, lazy bool) error {
	d := s.d
	d.mu.Lock()
	if !s.open() {
		d.mu.Unlock()
		return ErrCrashed
	}
	if b.Empty() {
		d.mu.Unlock()
		return nil
	}
	point := d.pendingCrash
	d.pendingCrash = 0
	var err error
	switch {
	case point == CrashBeforeForce:
		d.crashLocked()
		d.mu.Unlock()
		return ErrCrashed
	case d.wal.file == nil:
		d.applyLocked(b)
		d.mu.Unlock()
	case lazy && point == 0:
		// The cache takes the batch before the log does: a compaction
		// that checkpoints the cache in between then holds it too, rather
		// than replacing the log record it would have missed.
		d.applyLocked(b)
		d.mu.Unlock()
		return d.wal.appendLazy(s.gen, logRecord{kind: kindBatch, batch: b, noInstall: true})
	default:
		// One log record — atomic because a record is whole or absent —
		// joined to the WAL's group commit; the cache takes it once
		// forced. mu is not held across the force.
		d.mu.Unlock()
		err = d.wal.append(s.gen, logRecord{kind: kindBatch, batch: b})
	}
	if err == nil && point == CrashAfterForce {
		s.Crash()
		err = ErrCrashed
	}
	return err
}

// install enters what the forced records install (logRecord.installs)
// into the cache, in log order. Appenders are still blocked in their
// append, and their maps are read here for the last time.
func (d *disk) install(records []logRecord) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range records {
		if b, ok := records[i].installs(); ok {
			d.applyLocked(b)
		}
	}
}

// snapshot returns the cache's current contents. Nobody writes a state
// once it is installed, so the copy is shallow.
func (d *disk) snapshot() map[ids.ObjectID]State {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sums.checkAll(d.data)
	return maps.Clone(d.data)
}

// applyLocked installs the batch's states as they are: the caller never
// writes them again (Batch).
func (d *disk) applyLocked(b Batch) {
	for id, st := range b.Writes {
		d.data[id] = st
		d.sums.installed(id, st)
	}
	for _, id := range b.Deletes {
		delete(d.data, id)
		d.sums.deleted(id)
	}
}

// Crash models a node crash: the handle closes for good, and what is
// durable waits for the next incarnation's (Restart). Crashing a closed
// handle does nothing.
func (s *Stable) Crash() { s.d.crash(s.gen) }

// crash crashes incarnation gen, if it is still the current one.
func (d *disk) crash(gen uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if gen == d.wal.gen.Load() {
		d.crashLocked()
	}
}

func (d *disk) crashLocked() {
	// Invalidate in-flight WAL batches: a force completing after the
	// crash must fail its waiters, not install records on a store that
	// was down. Records nobody forced are lost with the node.
	d.wal.gen.Add(1)
	d.wal.dropOpen()
}

// CrashDuringNextBatch arms a crash injection for the next non-empty
// ApplyBatch or ApplyBatchLazy.
func (s *Stable) CrashDuringNextBatch(p CrashPoint) {
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	s.d.pendingCrash = p
}

// Crashed reports whether a crash has closed the handle.
func (s *Stable) Crashed() bool { return !s.open() }

// Close shuts the storage down cleanly, not as a crash: it forces what
// the log holds unforced and closes the file backing. Every handle then
// fails with ErrCrashed and Restart refuses; a store opened on the same
// directory finds everything.
func (s *Stable) Close() error {
	var err error
	if s.open() {
		err = s.Sync()
	}
	d := s.d
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		d.crashLocked()
	}
	d.mu.Unlock()
	if lf := d.wal.file; lf != nil {
		// Forces check the crash under flushMu before touching the file.
		d.wal.flushMu.Lock()
		defer d.wal.flushMu.Unlock()
		if cerr := lf.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Restart crashes s, if nothing has, and returns the next incarnation's
// handle with what was durable: a file-backed store replays its log, the
// in-memory one keeps its object map and intentions, and either fences the
// objects of the prepared records it holds. On an error — the log does
// not replay, the storage is closed, or s is not the newest handle — there
// is no next handle; a later Restart of s may try again.
func (s *Stable) Restart() (*Stable, error) {
	d, w := s.d, s.d.wal
	d.mu.Lock()
	stale := d.closed || d.cur != s
	if !stale && s.open() {
		d.crashLocked()
	}
	d.mu.Unlock()
	if stale {
		return nil, fmt.Errorf("restart: %w (the store is closed, or a later handle exists)", ErrCrashed)
	}
	var img *logImage
	if w.file != nil {
		// No force may run while the log is read and its end re-established.
		w.flushMu.Lock()
		defer w.flushMu.Unlock()
		var err error
		if img, _, err = w.file.replay(); err != nil {
			return nil, err
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || d.cur != s {
		return nil, fmt.Errorf("restart: %w (the store is closed, or a later handle exists)", ErrCrashed)
	}
	w.mu.Lock()
	if img != nil {
		d.data, w.index = img.data, img.index
		d.sums.replayed(d.data)
	}
	d.fenced = fencesOf(w.index)
	w.mu.Unlock()
	return d.handle(), nil
}

// fencesOf returns the objects the prepared records of index write or
// delete, each with its record's action.
func fencesOf(index map[ids.ActionID]Intention) map[ids.ObjectID]ids.ActionID {
	fenced := make(map[ids.ObjectID]ids.ActionID)
	for a, in := range index {
		if in.Status != IntentionPrepared {
			continue
		}
		for id := range in.Writes.Writes {
			fenced[id] = a
		}
		for _, id := range in.Writes.Deletes {
			fenced[id] = a
		}
	}
	return fenced
}

// unfence lifts the fences of action a's record, which is resolved.
func (d *disk) unfence(a ids.ActionID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	maps.DeleteFunc(d.fenced, func(_ ids.ObjectID, by ids.ActionID) bool { return by == a })
}

// Intentions returns the handle's intention log.
func (s *Stable) Intentions() *IntentionLog { return (*IntentionLog)(s) }

// WAL returns the write-ahead log the storage's handles share, for
// tuning (group-commit window, simulated force latency) and flush
// observation. Its settings and counters outlive every crash.
func (s *Stable) WAL() *WAL {
	return s.d.wal
}

// CrashDuringNextForce arms a crash injection inside the handle's next
// force: the node dies mid group-commit window, with every transaction
// waiting in the batch unforced. A crash before then disarms it.
func (s *Stable) CrashDuringNextForce() { s.d.wal.crashNextForce.Store(s.gen + 1) }

// DisarmCrashes disarms every crash injection that has not fired yet:
// CrashDuringNextBatch's point and CrashDuringNextForce's kill. A fault
// schedule calls it at the end of a step, so an injection no operation
// of that step reached cannot fire in a later one.
func (s *Stable) DisarmCrashes() {
	s.CrashDuringNextBatch(0)
	s.d.wal.crashNextForce.Store(0)
}

func cloneBatch(b Batch) Batch {
	out := Batch{Writes: make(map[ids.ObjectID]State, len(b.Writes))}
	for id, st := range b.Writes {
		out.Writes[id] = cloneState(st)
	}
	out.Deletes = append(out.Deletes, b.Deletes...)
	return out
}

// IntentionStatus is the durable state of a distributed action at a
// participant or coordinator (presumed-abort two-phase commit).
type IntentionStatus int

// Intention statuses.
const (
	// IntentionPrepared: a participant has forced its write set and
	// votes yes; the outcome is in doubt until the coordinator decides.
	IntentionPrepared IntentionStatus = iota + 1
	// IntentionCommitted: the decision (or the applied outcome) is
	// commit.
	IntentionCommitted
	// IntentionAborted: the decision is abort.
	IntentionAborted
)

// String renders the status for logs and traces.
func (st IntentionStatus) String() string {
	switch st {
	case IntentionPrepared:
		return "prepared"
	case IntentionCommitted:
		return "committed"
	case IntentionAborted:
		return "aborted"
	default:
		return fmt.Sprintf("status(%d)", int(st))
	}
}

// Intention is one durable record of the commit protocol.
type Intention struct {
	Action      ids.ActionID
	Status      IntentionStatus
	Writes      Batch
	Coordinator ids.NodeID
	// Participants is recorded by the coordinator with its decision,
	// so recovery can owe them the commit again.
	Participants []ids.NodeID
}

// IntentionLog is the stable log consulted during crash recovery of the
// commit protocol, through one handle: records survive crashes, and
// operations fail once the handle is closed.
//
// The log is a view over the store's write-ahead log: Record and Forget
// append entries and return once the group-commit batch holding them is
// forced, so concurrent transactions share forces instead of paying one
// each.
type IntentionLog Stable

// Record durably stores (or overwrites) the intention for the action,
// returning once the batch containing it is forced. The log keeps in as
// given: the caller must not change its write set afterwards.
func (l *IntentionLog) Record(in Intention) error {
	return l.d.wal.append(l.gen, logRecord{kind: kindIntention, action: in.Action, in: in})
}
