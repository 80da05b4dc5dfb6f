// Per-node write-ahead log with group commit. Every durable fact of a
// node — the commit protocol's intention and decision records, their
// forgets, and the object batches that install write sets — is appended
// to one logically-ordered log (the shape of the transaction-control
// literature's commit/recovery log), and a single force makes every
// record waiting in the current batch durable at once: one write and
// one fsync for the file backing, one simulated force for the in-memory
// Stable. Callers block only until the batch containing their record is
// forced, so durability cost is amortised across all transactions in
// flight on the node instead of being paid per record. The appender that
// finds no force running forces the log itself; later ones wait for it.
package store

import (
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mca/internal/clock"
	"mca/internal/flightrec"
	"mca/internal/ids"
	"mca/internal/metrics"
)

// WAL telemetry, exported under mca_store_*.
var (
	walFlushes = metrics.Default().Counter("mca_store_wal_flushes_total",
		"WAL group-commit flushes (one force each).")
	walFlushRecords = metrics.Default().Counter("mca_store_wal_records_total",
		"Records made durable by WAL flushes.")
	walFlushNs = metrics.Default().Histogram("mca_store_wal_flush_ns",
		"WAL flush duration (force + install), ns.")
	walBatchRecords = metrics.Default().Histogram("mca_store_wal_batch_records",
		"Records per WAL flush (group-commit batch size).")
)

// walBatch is one group-commit unit: every record appended while the
// batch was open becomes durable with a single force. Once its last waiter
// has read the outcome, the batch and its buffers serve the next one.
type walBatch struct {
	entries []logRecord
	// frames is the entries' on-disk encoding, in order (file backing
	// only): the force is one write of it.
	frames []byte
	// wanted marks a batch somebody needs forced. A batch holding only
	// lazy forgets is not: it waits for the next record to carry it.
	wanted bool
	// gen is the disk's crash generation at the batch's creation: a
	// crash between append and force invalidates the batch, so records
	// never install "durably" on a store that was down when they were
	// forced.
	gen uint64
	// seq numbers the batch in opening order (WAL.Mark).
	seq uint64

	// flushed says err is the outcome; a waiting follower makes done.
	// waiters counts the appenders that have yet to read the outcome.
	flushed bool
	err     error
	done    chan struct{}
	waiters int
}

// hasIntention reports whether the batch holds an intention record for
// the action.
func (b *walBatch) hasIntention(a ids.ActionID) bool {
	if b == nil {
		return false
	}
	for i := range b.entries {
		if b.entries[i].kind == kindIntention && b.entries[i].action == a {
			return true
		}
	}
	return false
}

// FlushInfo describes one completed WAL flush, for observers (the node
// layer turns these into trace spans).
type FlushInfo struct {
	Records  int
	Duration time.Duration
	Err      error
}

// WAL is a per-node write-ahead log shared by every transaction and every
// incarnation of the node, settings and counters included: an append
// through a closed handle fails, and forced records survive crashes.
type WAL struct {
	owner *disk

	// gen counts crashes: a handle is open while it is the generation it
	// was opened in, and in-flight batches from an older generation fail
	// instead of installing.
	gen atomic.Uint64
	// window holds a flush open (ns) so more transactions join the
	// batch. Zero means natural batching only: records arriving while a
	// force is in progress form the next batch.
	window atomic.Int64
	// forceDelay simulates the latency of one stable-log force for the
	// in-memory backing (the file backing pays its real fsync instead).
	forceDelay atomic.Int64
	// crashNextForce arms a crash injection inside the next force of
	// incarnation crashNextForce-1 — the "kill mid group-commit window"
	// point of the chaos matrix; a crash before it disarms it.
	crashNextForce atomic.Uint64
	// nodeID tags flight-recorder events with the hosting node, when the
	// node layer announces it (store itself is node-agnostic).
	nodeID atomic.Uint64
	// clk times flushes and paces the group-commit window. Stored
	// atomically (boxed, since atomic.Value rejects differing concrete
	// types) because flushLoop goroutines may already be running when
	// the node layer installs its clock.
	clk atomic.Value // clockBox

	// flushes/records count completed work for tests and experiments.
	flushes atomic.Uint64
	records atomic.Uint64

	obsMu sync.Mutex
	obs   func(FlushInfo)

	mu    sync.Mutex
	index map[ids.ActionID]Intention
	cur   *walBatch
	// inflight is the batch the flusher has taken but not yet installed:
	// its intention records are not in index yet.
	inflight *walBatch
	// seq is the newest batch opened, forced the newest forced. A crash
	// takes a fresh number for both.
	seq, forced uint64
	flushing    bool
	// free is a batch whose outcome every waiter has read, for the next.
	free *walBatch

	// flushMu serialises forces (one log head), and with them
	// compaction, recovery's replay and closing the file.
	flushMu sync.Mutex
	file    *logFile // nil for the in-memory backing
}

func newWAL(owner *disk, file *logFile, index map[ids.ActionID]Intention) *WAL {
	if index == nil {
		index = make(map[ids.ActionID]Intention)
	}
	w := &WAL{owner: owner, file: file, index: index}
	w.clk.Store(clockBox{clock.Real()})
	return w
}

// clockBox wraps the clock interface so atomic.Value accepts stores of
// differing concrete clock types.
type clockBox struct{ c clock.Clock }

// SetClock substitutes the WAL's time source (group-commit window,
// flush timing, simulated force delay). The node layer installs its
// clock here so a virtual node's WAL shares the virtual timeline.
func (w *WAL) SetClock(c clock.Clock) { w.clk.Store(clockBox{c}) }

func (w *WAL) clock() clock.Clock { return w.clk.Load().(clockBox).c }

// SetWindow holds each flush open for d so more records join the batch.
// Zero (the default) batches naturally: whatever arrives during the
// previous force forms the next batch.
func (w *WAL) SetWindow(d time.Duration) { w.window.Store(int64(d)) }

// SetForceDelay simulates per-force stable-log latency for the
// in-memory backing. The file backing ignores it (its fsync is real).
func (w *WAL) SetForceDelay(d time.Duration) { w.forceDelay.Store(int64(d)) }

// SetNodeID tags the WAL's flight-recorder events with the hosting
// node's identifier.
func (w *WAL) SetNodeID(id uint64) { w.nodeID.Store(id) }

// SetFlushObserver installs a callback receiving every completed flush.
func (w *WAL) SetFlushObserver(fn func(FlushInfo)) {
	w.obsMu.Lock()
	defer w.obsMu.Unlock()
	w.obs = fn
}

// Stats returns the number of completed flushes and the number of
// records they made durable. records/flushes is the achieved group
// size.
func (w *WAL) Stats() (flushes, records uint64) {
	return w.flushes.Load(), w.records.Load()
}

// Forget removes the record once the outcome is fully applied and
// acknowledged. The record leaves the index at once, and the forget
// takes its place in log order at once, but nobody waits for its force:
// it becomes durable with the next record forced after it. A crash
// before then resurrects the intention, and recovery resolves it again
// — re-applying a write set that nothing later in the log overwrote,
// because anything later in the log would have carried the forget. A
// forgotten prepared record fences no object any more.
func (l *IntentionLog) Forget(a ids.ActionID) error {
	w := l.d.wal
	e := logRecord{kind: kindForget, action: a}
	w.mu.Lock()
	if !(*Stable)(l).open() {
		w.mu.Unlock()
		return ErrCrashed
	}
	in, had := w.index[a]
	if had && in.Status == IntentionPrepared {
		defer w.owner.unfence(a) // after mu is released: a crash takes the owner's lock before mu
	}
	defer w.mu.Unlock()
	delete(w.index, a)
	// A Record of the same action still on its way to the index (an
	// abort overtaking its prepare) would outlive this forget there
	// until the forget's own flush: do not leave that to chance.
	racing := w.cur.hasIntention(a) || w.inflight.hasIntention(a)
	if !had && !racing {
		return nil // nothing durable or in flight to forget
	}
	b, err := w.joinLocked(l.gen, &e)
	if err != nil {
		return err
	}
	if racing {
		b.wanted = true
		w.kickLocked()
	}
	return nil
}

// Lookup returns the intention recorded for the action.
func (l *IntentionLog) Lookup(a ids.ActionID) (Intention, bool, error) {
	w := l.d.wal
	w.mu.Lock()
	defer w.mu.Unlock()
	if !(*Stable)(l).open() {
		return Intention{}, false, ErrCrashed
	}
	in, ok := w.index[a]
	return in, ok, nil
}

// Pending returns all records still in the log, sorted by action, for
// recovery scans.
func (l *IntentionLog) Pending() ([]Intention, error) {
	w := l.d.wal
	w.mu.Lock()
	defer w.mu.Unlock()
	if !(*Stable)(l).open() {
		return nil, ErrCrashed
	}
	out := make([]Intention, 0, len(w.index))
	for _, in := range w.index {
		out = append(out, in)
	}
	sortIntentions(out)
	return out, nil
}

// add appends the record to the batch, encoding it for the file backing.
func (w *WAL) add(b *walBatch, e *logRecord) error {
	if w.file != nil {
		frames, err := appendLogRecord(b.frames, e)
		if err != nil {
			return err
		}
		b.frames = frames
	}
	b.entries = append(b.entries, *e)
	return nil
}

// joinLocked adds incarnation gen's record to the open batch, opening one
// if needed. Called with mu held: a crash refuses it, or drops it later.
func (w *WAL) joinLocked(gen uint64, e *logRecord) (*walBatch, error) {
	if gen != w.gen.Load() {
		return nil, ErrCrashed
	}
	if w.cur == nil {
		w.seq++
		b := w.free
		if b == nil {
			b = &walBatch{}
		}
		w.free = nil
		*b = walBatch{gen: gen, seq: w.seq, entries: b.entries, frames: b.frames[:0]}
		w.cur = b
	}
	return w.cur, w.add(w.cur, e)
}

// releaseLocked keeps the flushed batch b for the next one to open once no
// appender waits on it any more, unless a batch is kept already or b's
// buffers have grown past maxSpareFrames or maxSpareEntries. Its outcome
// stays readable until then. Called with mu held.
func (w *WAL) releaseLocked(b *walBatch) {
	if b.waiters > 0 || w.free != nil || cap(b.frames) > maxSpareFrames || cap(b.entries) > maxSpareEntries {
		return
	}
	clear(b.entries)
	b.entries = b.entries[:0]
	w.free = b
}

// kickLocked makes sure a flusher is draining batches, for a caller that
// does not wait for the force. Called with mu held.
func (w *WAL) kickLocked() {
	if !w.flushing {
		w.flushing = true
		//mcalint:ignore goleak flushLoop exits when no wanted batch remains
		go w.flushLoop()
	}
}

// awaitLocked returns the outcome of the wanted batch b once forced: by
// the caller, draining every wanted batch, when no flush is running, else
// by the flush that is. Called with mu held, which it releases.
func (w *WAL) awaitLocked(b *walBatch) error {
	b.waiters++
	for !b.flushed && !w.flushing {
		w.flushing = true
		w.mu.Unlock()
		w.flushLoop()
		w.mu.Lock()
	}
	if !b.flushed {
		if b.done == nil {
			b.done = make(chan struct{})
		}
		done := b.done
		w.mu.Unlock()
		<-done // closed once err is set
		w.mu.Lock()
	}
	err := b.err
	b.waiters--
	w.releaseLocked(b)
	w.mu.Unlock()
	return err
}

// append adds the record of incarnation gen to the open batch and waits
// for that batch's force.
func (w *WAL) append(gen uint64, e logRecord) error {
	w.mu.Lock()
	b, err := w.joinLocked(gen, &e)
	if err != nil {
		w.mu.Unlock()
		return err
	}
	b.wanted = true
	return w.awaitLocked(b)
}

// appendLazy adds the record of incarnation gen to the open batch and
// asks for no force: it becomes durable with the next record somebody
// waits for, as a forget does.
func (w *WAL) appendLazy(gen uint64, e logRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err := w.joinLocked(gen, &e)
	return err
}

// Mark returns the log's position, for Durable.
func (s *Stable) Mark() uint64 {
	w := s.d.wal
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cur != nil {
		return w.cur.seq
	}
	return w.seq
}

// Durable reports whether what was appended by the time of mark is
// forced, and the handle is open. Batches are forced in order, and a
// failed force fails every later one until a crash. Nothing is durable
// through a closed handle: what its incarnation appended since its last
// force is lost, and the next incarnation's log does not hold it.
func (s *Stable) Durable(mark uint64) bool {
	w := s.d.wal
	w.mu.Lock()
	defer w.mu.Unlock()
	return s.open() && mark <= w.forced
}

// Sync forces everything appended so far, lazy records included, and
// fails unless that makes it durable through the handle.
func (s *Stable) Sync() error {
	if !s.open() {
		return ErrCrashed // a dead incarnation forces nothing
	}
	w, to := s.d.wal, s.Mark()
	w.mu.Lock()
	b := w.cur
	if b != nil {
		b.wanted = true
	} else {
		b = w.inflight
	}
	if b == nil {
		w.mu.Unlock()
	} else if w.awaitLocked(b) != nil {
		return ErrCrashed
	}
	if !s.Durable(to) {
		return ErrCrashed
	}
	return nil
}

// flushLoop drains wanted batches until none remain. While one batch is
// being forced, new appends pile into the next, so concurrent
// transactions share forces without any coordination of their own.
func (w *WAL) flushLoop() {
	for {
		w.mu.Lock()
		b := w.cur
		if b == nil || !b.wanted {
			w.flushing = false
			w.mu.Unlock()
			return
		}
		seq := b.seq
		// Hold the batch open for the window or, before an fsync on one
		// processor, for the appenders already runnable to join: nothing
		// else runs there between a leader's append and its force.
		w.mu.Unlock()
		if d := time.Duration(w.window.Load()); d > 0 {
			w.clock().Sleep(d)
		} else if w.file != nil && runtime.GOMAXPROCS(0) == 1 {
			runtime.Gosched()
		}
		w.mu.Lock()
		if w.cur != b || b.seq != seq {
			w.mu.Unlock() // a crash dropped it meanwhile
			continue
		}
		w.cur, w.inflight = nil, b
		w.mu.Unlock()
		w.flushMu.Lock()
		w.flush(b)
		w.flushMu.Unlock()
	}
}

// maxSpareFrames and maxSpareEntries bound the frame buffer and record
// slice of a batch kept for the next, so one huge batch does not pin them.
const maxSpareFrames, maxSpareEntries = 64 << 10, 1024

// flush forces the batch and, on success, installs its records: the
// intentions in the index, the object batches — and the write sets of
// committed intentions — in the owner's cache, in log order — and then
// records the outcome for its appenders. Called with flushMu held.
func (w *WAL) flush(b *walBatch) {
	clk := w.clock()
	start := clk.Now()
	err := w.force(b)
	objects := false
	w.mu.Lock()
	if err == nil {
		for i := range b.entries {
			switch e := &b.entries[i]; e.kind {
			case kindIntention:
				w.index[e.action] = e.in
			case kindForget:
				delete(w.index, e.action)
			}
			if _, ok := b.entries[i].installs(); ok {
				objects = true
			}
		}
		w.forced = max(w.forced, b.seq)
	}
	if w.inflight == b {
		w.inflight = nil
	}
	w.mu.Unlock()
	if err == nil {
		if objects {
			w.owner.install(b.entries)
		}
		w.maybeCompact()
	}
	d := clk.Since(start)
	w.flushes.Add(1)
	w.records.Add(uint64(len(b.entries)))
	walFlushes.Inc()
	walFlushRecords.Add(uint64(len(b.entries)))
	walFlushNs.ObserveDuration(d)
	walBatchRecords.Observe(uint64(len(b.entries)))
	flightrec.Record(flightrec.Event{
		Kind: flightrec.KindWALFlush,
		Node: w.nodeID.Load(),
		A:    uint64(len(b.entries)),
		B:    uint64(d),
	})
	w.obsMu.Lock()
	obs := w.obs
	w.obsMu.Unlock()
	if obs != nil {
		obs(FlushInfo{Records: len(b.entries), Duration: d, Err: err})
	}
	w.mu.Lock()
	b.flushed, b.err = true, err
	done := b.done // made before flushed was set, if at all
	w.releaseLocked(b)
	w.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// force makes the batch durable: one fsync'd file append for the file
// backing, one (optionally delayed) install for the in-memory backing.
// A crash during the force fails every record in the batch.
func (w *WAL) force(b *walBatch) error {
	if w.crashNextForce.CompareAndSwap(b.gen+1, 0) {
		// Injected kill mid-window: the node dies with the batch
		// unforced — no waiter learns of success, and presumed abort
		// resolves them after recovery.
		w.owner.crash(b.gen)
		return ErrCrashed
	}
	if b.gen != w.gen.Load() {
		return ErrCrashed
	}
	if w.file != nil {
		if err := w.file.appendSync(b.frames); err != nil {
			return err
		}
	} else if d := time.Duration(w.forceDelay.Load()); d > 0 {
		w.clock().Sleep(d)
	}
	if b.gen != w.gen.Load() {
		return ErrCrashed
	}
	return nil
}

// dropOpen discards the open batch, whose force a crash has just
// overtaken: its records are lost, and its appenders fail. What the next
// incarnation appends goes to a batch of its own — joined to this one, it
// would fail with it, while later batches are forced. Called by the owner
// as it crashes.
func (w *WAL) dropOpen() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if b := w.cur; b != nil {
		w.cur = nil
		b.flushed, b.err = true, ErrCrashed
		if b.done != nil {
			//mcalint:ignore forceorder the batch completes failed: its appenders learn that nothing in it is durable
			close(b.done)
		}
		w.releaseLocked(b)
	}
	w.seq++
	w.forced = w.seq
}

// maybeCompact rewrites the file backing down to a checkpoint of the
// live states and intentions when the log has grown past its compaction
// threshold. Called with flushMu held: no force runs concurrently, so
// the cache and the index are exactly what the log holds (less the
// forgets already applied to the index, which compaction then makes
// durable early).
func (w *WAL) maybeCompact() {
	if w.file == nil || w.file.size <= w.file.compactAt {
		return
	}
	img := &logImage{data: w.owner.snapshot()}
	w.mu.Lock()
	img.index = maps.Clone(w.index)
	w.mu.Unlock()
	// Best effort: a failed compaction leaves the old (valid) log.
	//mcalint:ignore errdrop a failed compaction keeps the old log, which remains correct, only longer
	_ = w.file.compact(img)
}

func sortIntentions(out []Intention) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Action < out[j-1].Action; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
}
