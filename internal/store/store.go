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
// callers may change it; a Batch or Intention handed to the store is kept
// as it is.
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

// Batch is a write set applied atomically to a stable store. A batch
// handed to ApplyBatch, or in an intention to Record, belongs to the store
// from then on: it is immutable, and the caller must not reuse it.
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

// Stable models stable storage: Crash preserves everything durable, and
// Recover brings the store back with exactly that. Every object write is
// a batch (ApplyBatch, ApplyBatchLazy), installed whole or not at all. It
// is safe for concurrent use.
//
// NewStable's store is in memory: its object map is the disk, so a batch
// is durable once applied. A store opened with NewStableAt is
// log-structured: every durable mutation — object batches and intention
// records — is one record appended to the directory's wal.log through the
// group-commit WAL, forced, and only then installed in data, which is a
// cache of the log's replay. Recover re-reads the log, so recovery sees
// exactly what was durable at the crash — the "diskfull workstation"
// configuration, with the in-memory store's crash model.
type Stable struct {
	mu      sync.Mutex
	crashed bool
	closed  bool // by Close: crashed for good
	data    map[ids.ObjectID]State
	// pendingCrash injects a crash at the chosen point of the next batch.
	pendingCrash CrashPoint
	// fenced maps every object a prepared record replayed at the last open
	// or Recover writes or deletes to the record's action, until the record
	// is forgotten (WAL.Forget). Records appended since fence nothing: the
	// action that wrote them holds the objects' locks.
	fenced map[ids.ObjectID]ids.ActionID

	wal        *WAL
	intentions *IntentionLog
}

// NewStable returns an empty stable store.
func NewStable() *Stable {
	s := &Stable{data: make(map[ids.ObjectID]State)}
	s.wal = newWAL(s, nil, nil)
	s.intentions = &IntentionLog{wal: s.wal}
	return s
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
	s := &Stable{data: img.data, fenced: fencesOf(img.index)}
	s.wal = newWAL(s, lf, img.index)
	s.intentions = &IntentionLog{wal: s.wal}
	return s, truncated, nil
}

// Read returns the state recorded for the object, or ErrNotFound. A fenced
// object is refused with ErrUnresolved whether or not the store holds a
// state for it, so an object the unresolved transaction creates is not
// created a second time.
func (s *Stable) Read(id ids.ObjectID) (State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil, ErrCrashed
	}
	if a, ok := s.fenced[id]; ok {
		readsRefused.Inc()
		flightrec.Record(flightrec.Event{Kind: flightrec.KindUnresolvedRead, Node: s.wal.nodeID.Load(), A: uint64(id), B: uint64(a)})
		return nil, fmt.Errorf("%w (object %v, transaction %v)", ErrUnresolved, id, a)
	}
	st, ok := s.data[id]
	if !ok {
		return nil, ErrNotFound
	}
	return cloneState(st), nil
}

// ApplyBatch installs the batch atomically: either every write and delete
// takes effect or none does. It returns once the batch is durable, or
// with ErrCrashed when the store is, or became, crashed.
func (s *Stable) ApplyBatch(b Batch) error { return s.applyBatch(b, false) }

// ApplyBatchLazy is ApplyBatch without the wait: on the file backing the
// batch is installed at once and its record joins the log's open batch,
// durable with the next record forced (WAL.Durable says when) and lost
// to a crash before then. An armed crash point fires as in ApplyBatch.
func (s *Stable) ApplyBatchLazy(b Batch) error { return s.applyBatch(b, true) }

func (s *Stable) applyBatch(b Batch, lazy bool) error {
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return ErrCrashed
	}
	if b.Empty() {
		s.mu.Unlock()
		return nil
	}
	point := s.pendingCrash
	s.pendingCrash = 0
	var err error
	switch {
	case point == CrashBeforeForce:
		s.crashLocked()
		s.mu.Unlock()
		return ErrCrashed
	case s.wal.file == nil:
		s.applyLocked(b)
		s.mu.Unlock()
	case lazy && point == 0:
		// The cache takes the batch before the log does: a compaction
		// that checkpoints the cache in between then holds it too, rather
		// than replacing the log record it would have missed.
		s.applyLocked(b)
		s.mu.Unlock()
		return s.wal.appendLazy(logRecord{kind: kindBatch, batch: b, noInstall: true})
	default:
		// One log record — atomic because a record is whole or absent —
		// joined to the WAL's group commit; the cache takes it once
		// forced. mu is not held across the force.
		s.mu.Unlock()
		err = s.wal.append(logRecord{kind: kindBatch, batch: b})
	}
	if err == nil && point == CrashAfterForce {
		s.Crash()
		err = ErrCrashed
	}
	return err
}

// install enters what the forced records install (logRecord.installs)
// into the cache, in log order. Appenders are still blocked in their
// append, so their states are copied here, once.
func (s *Stable) install(records []logRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range records {
		if b, ok := records[i].installs(); ok {
			s.applyLocked(b)
		}
	}
}

// snapshot returns the cache's current contents. States are immutable
// once installed, so the copy is shallow.
func (s *Stable) snapshot() map[ids.ObjectID]State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.data)
}

func (s *Stable) applyLocked(b Batch) {
	for id, st := range b.Writes {
		s.data[id] = cloneState(st)
	}
	for _, id := range b.Deletes {
		delete(s.data, id)
	}
}

// Crash models a node crash. Durable data (including the intention log)
// is preserved; the store rejects operations until Recover.
func (s *Stable) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashLocked()
}

func (s *Stable) crashLocked() {
	s.crashed = true
	// Invalidate in-flight WAL batches: a force completing after the
	// crash must fail its waiters, not install records on a store that
	// was down. Records nobody forced are lost with the node.
	s.wal.gen.Add(1)
	s.wal.dropOpen()
}

// CrashDuringNextBatch arms a crash injection for the next non-empty
// ApplyBatch or ApplyBatchLazy.
func (s *Stable) CrashDuringNextBatch(p CrashPoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pendingCrash = p
}

// Crashed reports whether the store is currently crashed.
func (s *Stable) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// Close shuts the store down cleanly, not as a crash: it forces what the
// log holds unforced and closes the file backing. Later operations fail
// with ErrCrashed and Recover refuses; a store opened on the same
// directory finds everything.
func (s *Stable) Close() error {
	var err error
	if !s.Crashed() {
		err = s.wal.Sync(s.wal.Mark())
	}
	s.mu.Lock()
	s.closed = true
	s.crashLocked()
	s.mu.Unlock()
	if lf := s.wal.file; lf != nil {
		// Forces check the crash under flushMu before touching the file.
		s.wal.flushMu.Lock()
		defer s.wal.flushMu.Unlock()
		if cerr := lf.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Recover restarts a crashed store with what was durable at the crash. A
// file-backed store replays its log into the object cache and the
// intention index; the in-memory one keeps both, as they are its disk.
// Either way the prepared records the store then holds fence their
// objects. On an error — the log does not replay, or the store is closed
// — the store stays crashed, and a later Recover may try again.
func (s *Stable) Recover() error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("recover: %w (the store is closed)", ErrCrashed)
	}
	w := s.wal
	var img *logImage
	if w.file != nil {
		// No force may run while the log is read and its end re-established.
		w.flushMu.Lock()
		defer w.flushMu.Unlock()
		var err error
		if img, _, err = w.file.replay(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if img != nil {
		s.data, w.index = img.data, img.index
	}
	s.fenced = fencesOf(w.index)
	s.crashed = false
	return nil
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
func (s *Stable) unfence(a ids.ActionID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	maps.DeleteFunc(s.fenced, func(_ ids.ObjectID, by ids.ActionID) bool { return by == a })
}

// Intentions returns the store's intention log. The log shares the
// store's crash state.
func (s *Stable) Intentions() *IntentionLog {
	return s.intentions
}

// WAL returns the store's write-ahead log, for tuning (group-commit
// window, simulated force latency) and flush observation.
func (s *Stable) WAL() *WAL {
	return s.wal
}

// CrashDuringNextForce arms a crash injection inside the WAL's next
// force: the node dies mid group-commit window, with every transaction
// waiting in the batch unforced.
func (s *Stable) CrashDuringNextForce() {
	s.wal.crashNextForce.Store(true)
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
// commit protocol. It shares fate with its owning Stable store: records
// survive crashes, and operations fail while the store is crashed.
//
// The log is a view over the store's write-ahead log: Record and Forget
// append entries and return once the group-commit batch holding them is
// forced, so concurrent transactions share forces instead of paying one
// each.
type IntentionLog struct {
	wal *WAL
}

// Record durably stores (or overwrites) the intention for the action.
func (l *IntentionLog) Record(in Intention) error { return l.wal.Record(in) }

// Lookup returns the intention recorded for the action.
func (l *IntentionLog) Lookup(a ids.ActionID) (Intention, bool, error) { return l.wal.Lookup(a) }

// Forget removes the record once the outcome is fully applied and
// acknowledged.
func (l *IntentionLog) Forget(a ids.ActionID) error { return l.wal.Forget(a) }

// Pending returns all records still in the log, for recovery scans.
func (l *IntentionLog) Pending() ([]Intention, error) { return l.wal.Pending() }
