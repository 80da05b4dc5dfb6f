// Package dist implements distributed atomic actions across simulated
// nodes: remote object invocation over RPC and a presumed-abort
// two-phase commit protocol with crash recovery from intention logs
// (the "commit protocol required during the termination of an atomic
// action" of paper §2).
//
// Every node runs a Manager, which plays both roles:
//
//   - participant: hosts named resources; remote invocations execute
//     under a node-local participant action holding local locks; prepare
//     forces the action's write set to the node's intention log;
//   - coordinator: Begin starts a distributed action, which owns a local
//     action only once it touches this node's objects; Invoke routes
//     operations to resources (local or remote), and a remote writer votes
//     in the reply to the first invoke at its node; Commit runs two-phase
//     commit — prepare the participants whose vote does not stand (readers,
//     and nodes invoked again), force the decision with the writer list —
//     and returns. The commit then reaches each writer with the
//     coordinator's next message to it (release.go), and the
//     decision record stays until every writer has acknowledged it. A
//     transaction that only read at exactly one remote node is committed
//     where it stands.
//
// Each incarnation of the node has its own participant table, queues and
// loops, on its own store handle and peer: what a crash leaves running of
// it changes nothing. A restart loads the logged prepared records before
// it serves; an entry untouched for a termination interval asks its
// coordinator what was decided (presumed abort); a restarted coordinator
// owes every unacknowledged commit again. A restarted node serves at once:
// its store refuses objects a record in doubt writes (store.ErrUnresolved).
package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mca/internal/action"
	"mca/internal/clock"
	"mca/internal/colour"
	"mca/internal/flightrec"
	"mca/internal/ids"
	"mca/internal/node"
	"mca/internal/rpc"
	"mca/internal/store"
	"mca/internal/trace"
)

// Errors reported by the distributed action layer.
var (
	// ErrAborted is returned by Commit when the action was aborted
	// (a participant voted no or was unreachable).
	ErrAborted = errors.New("dist: action aborted")
	// ErrDone is returned for operations on a completed transaction.
	ErrDone = errors.New("dist: transaction already completed")
	// ErrPrepared is returned for invokes on a transaction this
	// participant has already voted yes on: the logged write set is
	// frozen, so no further mutation may join the action.
	ErrPrepared = errors.New("dist: transaction already prepared")
	// ErrNoResource is returned when the named resource is not
	// registered at the target node.
	ErrNoResource = errors.New("dist: no such resource")
	// ErrOverlappingInvoke is returned by an Invoke made while another
	// Invoke on the same transaction runs; it runs nothing.
	ErrOverlappingInvoke = errors.New("dist: invoke overlaps another on the same transaction")
)

// RPC method names.
const (
	methodInvoke   = "dist.invoke"
	methodPrepare  = "dist.prepare"
	methodDecision = "dist.decision"
	methodEnd      = "dist.end"
)

// Resource serves operations on application objects hosted at a node.
// Implementations run op under the given node-local action: they lock
// and update managed objects through it, and the commit protocol takes
// care of the rest.
type Resource interface {
	Invoke(a *action.Action, op string, arg []byte) ([]byte, error)
}

// ResourceFunc adapts a function to Resource.
type ResourceFunc func(a *action.Action, op string, arg []byte) ([]byte, error)

// Invoke implements Resource.
func (f ResourceFunc) Invoke(a *action.Action, op string, arg []byte) ([]byte, error) {
	return f(a, op, arg)
}

var _ Resource = ResourceFunc(nil)

// Hooks are fault-injection points for crash-matrix tests: each, when
// non-nil, runs at the named moment of the coordinator's commit
// processing.
type Hooks struct {
	// AfterPrepare runs after every participant voted yes, before the
	// decision is forced.
	AfterPrepare func()
	// AfterDecision runs after the commit record is durable, before
	// the completion phase.
	AfterDecision func()
}

// Manager is the per-node engine for distributed actions: configuration
// that holds across crashes, and the node's current incarnation.
type Manager struct {
	// TestHooks injects faults between commit phases; nil fields are
	// ignored. Set it only from tests, before driving transactions.
	TestHooks Hooks

	// node, clk and tracer are the hosting node's, fixed for the
	// manager's life: clk drives recovery retries and round metrics,
	// tracer (node.WithTracer) is nil when the node is untraced.
	node      *node.Node
	clk       clock.Clock
	tracer    *trace.Recorder
	resources sync.Map // name → Resource
	cur       atomic.Pointer[incarnation]
}

// incarnation is a Manager's state for one incarnation of its node, built
// by Register on that incarnation's store handle, peer and runtime: its
// handlers, goroutines and transactions reach only these, which a crash
// closes.
type incarnation struct {
	*Manager
	self ids.NodeID
	st   *store.Stable
	peer *rpc.Peer
	rt   *action.Runtime

	mu sync.Mutex
	// txns is the participant table, from a transaction's first invoke
	// (or log record) until maxBuried burials after its own; burials lists
	// the buried ones oldest first.
	txns    map[ids.ActionID]*entry
	burials []ids.ActionID
	// installed, on mu, is broadcast when an entry stops installing.
	installed sync.Cond
	// containers are this node's volatile container actions for
	// distributed structures, and passColours maps a structured
	// participant action to the colour resource handlers retain
	// objects in (see structured.go).
	containers  map[StructureID]*action.Action
	passColours map[ids.ActionID]colour.Colour

	// owed is what this node, as coordinator, owes its participants and
	// the acks it awaits from them; acks are what it owes, as
	// participant, its coordinators (release.go).
	owed *owedQueue
	acks ackQueue

	// deciding is the decision table: every transaction this incarnation
	// coordinates, from Begin until its Commit or Abort returns.
	deciding txnSet
}

// txnSet is a set of transaction identifiers, striped by identifier as the
// action registry is: the begins and ends of different transactions take
// different mutexes. A stripe's map is made by the first transaction that
// falls on it.
type txnSet [txnSetStripes]struct {
	mu  sync.Mutex
	set map[ids.ActionID]struct{}
}

// txnSetStripes is the stripe width of a txnSet. Identifiers are
// sequential, so their low bits spread transactions evenly.
const txnSetStripes = 64

func (s *txnSet) add(id ids.ActionID) {
	st := &s[id%txnSetStripes]
	st.mu.Lock()
	if st.set == nil {
		st.set = make(map[ids.ActionID]struct{})
	}
	st.set[id] = struct{}{}
	st.mu.Unlock()
}

func (s *txnSet) remove(id ids.ActionID) {
	st := &s[id%txnSetStripes]
	st.mu.Lock()
	delete(st.set, id)
	st.mu.Unlock()
}

func (s *txnSet) has(id ids.ActionID) bool {
	st := &s[id%txnSetStripes]
	st.mu.Lock()
	_, ok := st.set[id]
	st.mu.Unlock()
	return ok
}

// maxBuried bounds the finished transactions the table remembers against
// late messages, far beyond any in-flight window of the simulation.
const maxBuried = 4096

var _ node.Service = (*Manager)(nil)

// NewManager builds a manager and installs it on the node; after a crash,
// node.Restart runs the recovery hook.
func NewManager(n *node.Node) *Manager {
	m := &Manager{node: n, clk: n.Clock(), tracer: n.Tracer()}
	n.Host(m)
	return m
}

// Node returns the hosting node.
func (m *Manager) Node() *node.Node { return m.node }

// RegisterResource installs a named resource at this node.
func (m *Manager) RegisterResource(name string, r Resource) { m.resources.Store(name, r) }

// Register implements node.Service: it builds the node's new incarnation.
// What the last one held died with it. Every prepared record the log kept
// is an entry in doubt before the node serves, so that no invoke arriving
// ahead of recovery — a retransmission of the one that voted, say —
// begins the transaction afresh beside its record.
func (m *Manager) Register(n *node.Node, p *rpc.Peer) {
	st := n.Stable()
	inc := &incarnation{
		Manager:     m,
		self:        n.ID(),
		st:          st,
		peer:        p,
		rt:          n.Runtime(),
		txns:        make(map[ids.ActionID]*entry),
		containers:  make(map[StructureID]*action.Action),
		passColours: make(map[ids.ActionID]colour.Colour),
		owed:        &owedQueue{clk: m.clk, owed: make(map[ids.NodeID]*owedTo), awaiting: make(map[ids.ActionID]int), wake: make(chan struct{}, 1)},
		acks:        ackQueue{st: st},
	}
	inc.installed.L = &inc.mu
	// A log that cannot be read belongs to a store handle already closed:
	// this incarnation has crashed, and the next one loads it.
	if pending, err := st.Intentions().Pending(); err == nil {
		for _, in := range pending {
			if in.Coordinator != inc.self && in.Status == store.IntentionPrepared {
				inc.txns[in.Action] = &entry{coord: in.Coordinator, state: prepared, touched: true}
			}
		}
	}
	m.cur.Store(inc)
	life := n.Context()
	//mcalint:ignore goleak the flusher ends with the node's lifetime context, which Crash and Stop cancel
	go inc.flushOwed(life)
	//mcalint:ignore goleak the termination loop ends with the node's lifetime context, which Crash and Stop cancel
	go inc.terminate(life, m.clk.NewTicker(terminateAfter))

	p.Handle(methodInvoke, inc.handleInvoke)
	p.Handle(methodPrepare, inc.handlePrepare)
	p.Handle(methodDecision, inc.handleDecision)
	p.Handle(methodEnd, inc.handleEnd)
}

// Recover implements node.Service: it asks the coordinator of every
// prepared record the log kept what was decided, and owes its
// participants the commit of every decision record it kept. Its first
// pass runs before it returns, so node.Restart waits for it: one RPC call
// timeout for each record whose coordinator does not answer. The node
// serves meanwhile, and the store refuses only the objects records in
// doubt write. While records stay in doubt, a background loop asks again
// until none is left, or ctx, the incarnation's lifetime, ends, or a pass
// fails: its store handle has closed.
func (m *Manager) Recover(ctx context.Context, _ *node.Node) {
	inc := m.cur.Load()
	inDoubt, _, err := inc.recoverPass(ctx)
	if err != nil || inDoubt == 0 {
		return
	}
	go func() {
		ticker := m.clk.NewTicker(25 * time.Millisecond)
		defer ticker.Stop()
		for err == nil && inDoubt > 0 {
			select {
			case <-ctx.Done():
				return // crashed again or stopped: the next Restart recovers afresh
			case <-ticker.C():
			}
			inDoubt, _, err = inc.recoverPass(ctx)
		}
	}()
}

// --- participant role ---
//
// Every transaction this node serves is one entry of the participant
// table, and every message about it one guarded transition of the entry,
// taken under inc.mu; what it does to the action and the log follows
// outside. DESIGN.md §7 has the table.

// state is where a transaction stands here: live (invoked; clean or wrote,
// as its action's HasWrites says), prepared (voted yes with its write set
// forced, and frozen — reopenable when the vote rode an invoke reply) or
// buried (finished: a late invoke is refused).
type state uint8

const (
	live state = iota
	prepared
	buried
)

// entry is one transaction of the participant table. touched is set by
// every message about it and cleared by the termination tick: an entry
// left untouched for a whole tick asks its coordinator (terminate).
// installing is set while a commit installs the prepared write set, until
// the install and the forget are in the log (incarnation.installed).
// reopenable marks a prepared entry that voted in its invoke reply, until
// the coordinator's next invoke here reopens it or a commit-time prepare
// makes the vote final.
type entry struct {
	a          *action.Action // nil when loaded from the log, and once finished
	coord      ids.NodeID
	state      state
	touched    bool
	installing bool
	reopenable bool
}

// buryLocked buries txn's entry — e, or a new one when nil — and returns
// the action it held; past maxBuried burials the oldest buried entry is
// evicted. Caller holds inc.mu.
func (inc *incarnation) buryLocked(txn ids.ActionID, e *entry) *action.Action {
	if e == nil {
		e = &entry{}
		inc.txns[txn] = e
	}
	a := e.a
	if a != nil {
		delete(inc.passColours, a.ID())
	}
	e.a, e.state = nil, buried
	inc.burials = append(inc.burials, txn)
	for len(inc.burials) > maxBuried {
		if old := inc.txns[inc.burials[0]]; old != nil && old.state == buried {
			delete(inc.txns, inc.burials[0])
		}
		inc.burials = inc.burials[1:]
	}
	return a
}

// participantAction resolves the node-local action serving the
// distributed transaction, creating it on the coordinator's first contact
// and reopening it on a continuation after a vote in an invoke reply.
// A continuation that finds no entry, or only the prepared record a
// restart loaded, is refused as aborted: the action it continues died in a
// crash with the earlier invocations' effects. A new action joins the
// trace of caller, the RPC server span, when valid.
func (inc *incarnation) participantAction(txn ids.ActionID, coord ids.NodeID, continuation bool, caller trace.Context, info *structureInfo) (*action.Action, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	e := inc.txns[txn]
	switch {
	case e == nil && continuation:
		inc.buryLocked(txn, nil)
		return nil, fmt.Errorf("%w (txn %v: participant restarted since its earlier invocations)", ErrAborted, txn)
	case e == nil:
	case e.state == live:
		e.touched = true
		return e.a, nil
	case e.state == buried:
		return nil, fmt.Errorf("%w (txn %v)", ErrAborted, txn)
	case e.a == nil && continuation:
		// The vote a restart loaded from the log stays for the abort, or
		// the no vote that a prepare of it gets, to forget: after a restart
		// this may be a late copy of a continuation the vote already
		// answered, and the decision may have named this node.
		return nil, fmt.Errorf("%w (txn %v: participant restarted since its earlier invocations)", ErrAborted, txn)
	case e.reopenable && continuation && e.coord == coord:
		// The coordinator goes on with a transaction that voted in its
		// invoke reply: the vote and its record go, unforced, and the
		// commit-time prepare votes on the whole write set.
		if err := inc.st.Intentions().Forget(txn); err != nil {
			return nil, err
		}
		e.state, e.reopenable, e.touched = live, false, true
		votesReopened.Inc()
		return e.a, nil
	default:
		// Frozen: this node already voted yes with a logged write set; a
		// late invoke may not mutate beyond it.
		return nil, fmt.Errorf("%w (txn %v)", ErrPrepared, txn)
	}
	container, err := inc.structureContainerLocked(info)
	if err != nil {
		return nil, err
	}
	var a *action.Action
	if info != nil {
		// Mirror the coordinator-side colouring under this node's
		// container (fig 11 for serializing, fig 12 for glued).
		opts := []action.BeginOption{
			action.WithColours(info.Write, info.Container),
			action.WithWriteColour(info.Write),
		}
		if info.ReadOwn {
			opts = append(opts, action.WithReadColour(info.Write))
		} else {
			opts = append(opts, action.WithReadColour(info.Container))
		}
		if info.Companion {
			opts = append(opts, action.WithWriteCompanion(info.Container))
		}
		a, err = container.Begin(opts...)
	} else {
		a, err = inc.rt.Begin()
	}
	if err != nil {
		return nil, err
	}
	inc.txns[txn] = &entry{a: a, coord: coord, touched: true}
	if info != nil {
		inc.passColours[a.ID()] = info.Container
	}
	if inc.tracer != nil && caller.Valid() {
		inc.tracer.JoinTrace(a.ID(), caller)
	}
	return a, nil
}

// event is what ends a transaction here: an abort, or "aborted" from the
// decision query; a single-site reader's release; a commit carried here
// (release.go), or "committed" from the query. An end message carries one
// list of transactions per event.
type event uint8

const (
	evAbort event = iota
	evRelease
	evCommit
)

// end applies an event that ends txn here and returns the state it found
// txn in — buried when the event had nothing to end. A live action commits
// on a reader's release and aborts on anything else: without a yes vote
// it is in no commit. A prepared one installs its prepared write set on a
// commit, unforced, and aborts on an abort. A commit that fails to install
// leaves the entry prepared, for the commit sent again. An event that
// finds an install under way waits until it is in the log: whatever the
// event's caller then reports as done — an ack, a recovery pass — was
// appended before the caller's next force.
func (inc *incarnation) end(txn ids.ActionID, ev event) (state, error) {
	inc.mu.Lock()
	e := inc.txns[txn]
	for e != nil && e.installing {
		inc.installed.Wait()
		e = inc.txns[txn]
	}
	was := buried
	switch {
	case e == nil:
		// Known nowhere: nothing to end, but no late invoke may begin it.
		inc.buryLocked(txn, nil)
	default:
		was = e.state
	}
	if was == buried || was == prepared && ev == evRelease {
		inc.mu.Unlock()
		return buried, nil
	}
	if was == prepared && ev == evCommit {
		// The prepared record's write set goes in — through the action when
		// it survived — and the record goes, both unforced; with no record
		// it went in before a restart. The entry stays prepared meanwhile.
		a := e.a
		e.installing = true
		inc.mu.Unlock()
		in, found, err := inc.st.Intentions().Lookup(txn)
		if err == nil && found && in.Status == store.IntentionPrepared {
			sink := &phase2Sink{st: inc.st, txn: txn}
			if a != nil {
				err = a.CommitPrepared(sink, in.Writes)
			} else {
				err = sink.ApplyBatch(in.Writes)
			}
		}
		inc.mu.Lock()
		switch {
		case err == nil:
			inc.buryLocked(txn, e)
		case a != nil && a.Status() != action.Active:
			e.a = nil // the commit sent again installs the record's write set
		}
		e.installing = false
		inc.installed.Broadcast()
		inc.mu.Unlock()
		return was, err
	}
	a := inc.buryLocked(txn, e)
	inc.mu.Unlock()
	if ev == evRelease && !a.HasWrites() {
		// A committed reader: its read locks go.
		_ = a.Commit()
		return was, nil
	}
	if a != nil {
		_ = a.Abort()
	}
	if was == prepared {
		return was, inc.st.Intentions().Forget(txn)
	}
	return was, nil
}

func (inc *incarnation) handleInvoke(ctx context.Context, from ids.NodeID, body []byte) ([]byte, error) {
	req, err := decodeInvokeReq(body)
	if err != nil {
		return nil, fmt.Errorf("decode invoke: %w", err)
	}
	// What the coordinator has finished with goes first: the operation
	// below may want the very locks those transactions still hold.
	inc.workOff(ctx, from, req.Release, req.Commit, txnList{})
	res, ok := inc.resources.Load(req.Resource)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoResource, req.Resource)
	}
	// The RPC layer injected the server span's context into ctx; the
	// participant action joins the caller's trace under it.
	caller := inc.callerSpan(ctx)
	a, err := inc.participantAction(req.Txn, from, req.Continuation, caller, req.Structure)
	if err != nil {
		return nil, err
	}
	out, err := res.(Resource).Invoke(a, req.Op, req.Arg)
	if err != nil {
		return nil, err
	}
	// A writer votes in the reply to the coordinator's first contact. A
	// continuation's writer leaves its reopened vote to the commit's
	// prepare: voting on every contact would force once per invoke.
	flags := replyNothingWritten
	if a.HasWrites() {
		flags = 0
		if !req.Continuation {
			if err := inc.voteAtInvoke(req.Txn, a, from, caller); err != nil {
				return nil, err
			}
			flags = replyVoted
		}
	}
	// A vote's force carried whatever earlier commits here were waiting for
	// one: their acks ride the reply.
	var scratch [owedScratch]byte
	acks := inc.acks.take(from, txnList{ids: scratch[:0]})
	return appendInvokeReply(make([]byte, 0, len(out)+8+len(acks.ids)+min(acks.n, 1)), flags, out, acks), nil
}

// voteAtInvoke prepares txn's writer a once its invoke has run: the entry
// freezes, as at a prepare, and stays reopenable by coord's next invoke
// here. tc is the invoke's span.
func (inc *incarnation) voteAtInvoke(txn ids.ActionID, a *action.Action, coord ids.NodeID, tc trace.Context) error {
	inc.mu.Lock()
	e := inc.txns[txn]
	ok := e != nil && e.state == live && e.a == a
	if ok {
		e.state = prepared
	}
	inc.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w (txn %v)", ErrAborted, txn) // ended while the operation ran
	}
	yes, err := inc.vote(txn, e, a, coord, tc, true)
	if err == nil && !yes {
		err = fmt.Errorf("%w (txn %v: voted no)", ErrAborted, txn)
	}
	return err
}

// vote is the prepare rule, for a prepare and for an invoke alike: it
// forces the write set of txn's writer a, whose entry e the caller froze,
// as a prepared record naming coord, and says yes only after the force. An
// abort that overtook the force (terminate) buried the entry: the record
// goes too, and the vote is no. atInvoke leaves a yes reopenable. tc is
// the span of the request that asked for the vote.
func (inc *incarnation) vote(txn ids.ActionID, e *entry, a *action.Action, coord ids.NodeID, tc trace.Context, atInvoke bool) (yes bool, err error) {
	writes, err := a.PendingWrites()
	if err == nil {
		err = inc.force(tc, store.Intention{
			Action:      txn,
			Status:      store.IntentionPrepared,
			Writes:      writes,
			Coordinator: coord,
		})
		// The YES vote is derived strictly after the log force (mcalint's
		// forceorder rule); on an error path the vote is no.
		yes = err == nil
	}
	inc.mu.Lock()
	overtaken := e.state == buried
	e.reopenable = yes && !overtaken && atInvoke
	inc.mu.Unlock()
	if overtaken {
		return false, inc.st.Intentions().Forget(txn)
	}
	if yes {
		votesYes[atInvoke].Inc()
	}
	return yes, nil
}

// force records in, forced, in the node's intention log. On a traced
// node a force under a trace is a wal.force span, a child of tc.
func (inc *incarnation) force(tc trace.Context, in store.Intention) error {
	log := inc.st.Intentions()
	if inc.tracer == nil || !tc.Valid() {
		return log.Record(in)
	}
	start := inc.clk.Now()
	err := log.Record(in)
	s := trace.Span{Kind: trace.KindForce, TraceID: tc.TraceID, SpanID: trace.NewSpanID(), ParentSpanID: tc.SpanID,
		Outcome: trace.OutcomeOK, Begin: start, End: inc.clk.Now()}
	if err != nil {
		s.Outcome = trace.OutcomeError
	}
	inc.tracer.AddSpan(s)
	return err
}

// callerSpan returns the span a request's ctx carries (the server span
// the RPC layer injected), zero on an untraced node.
func (m *Manager) callerSpan(ctx context.Context) trace.Context {
	if m.tracer == nil {
		return trace.Context{}
	}
	tc, _ := trace.FromContext(ctx)
	return tc
}

func (inc *incarnation) handlePrepare(ctx context.Context, from ids.NodeID, body []byte) ([]byte, error) {
	req, err := decodePrepareReq(body)
	if err != nil {
		return nil, fmt.Errorf("decode prepare: %w", err)
	}
	vote := voteNoBody
	inc.mu.Lock()
	was, a := buried, (*action.Action)(nil)
	e := inc.txns[req.Txn]
	if e != nil {
		// A prepare makes a vote an invoke reply carried final.
		was, a, e.touched, e.reopenable = e.state, e.a, true, false
	}
	reader := was == live && (a.Status() != action.Active || !a.HasWrites())
	if was == live && !reader {
		e.state = prepared // frozen: no late invoke joins what is logged
	}
	inc.mu.Unlock()
	switch {
	case was == buried:
		// Unknown (lost to a crash) or finished: vote no — presumed abort.
	case was != live:
		// Repeated prepare: re-derive the earlier vote from the log (a
		// record means we voted yes as a writer; a read-only yes buries
		// the entry, so it cannot reach here). An entry a restart loaded
		// has no action: its objects came back without the write set, and
		// the vote is no — presumed abort, not an install behind their back.
		in, found, err := inc.st.Intentions().Lookup(req.Txn)
		if err == nil && found && in.Status == store.IntentionPrepared && a != nil {
			vote = voteYesBody
		}
	case reader:
		// Read-only participant: nothing to log, nothing to redo or
		// undo. Commit locally right now — releasing its locks — and
		// tell the coordinator to exclude this node from the decision
		// record and phase 2 (presumed-abort read-only optimisation). An
		// action that died here (deadlock victim) fails to commit and
		// votes no.
		if _, err := inc.end(req.Txn, evRelease); err == nil && a.Status() == action.Committed {
			vote = voteYesReadBody
			readonlyVotes.Inc()
		}
	default:
		yes, err := inc.vote(req.Txn, e, a, req.Coordinator, inc.callerSpan(ctx), false)
		if err != nil {
			return nil, err
		}
		if yes {
			vote = voteYesBody
		}
	}
	// The prepare's force, when there was one, carried whatever earlier
	// commits here were waiting for it: their acks can ride the vote.
	return inc.withAcks(vote, from), nil
}

func (inc *incarnation) handleDecision(_ context.Context, from ids.NodeID, body []byte) ([]byte, error) {
	txn, err := decodeTxnReq(body)
	if err != nil {
		return nil, fmt.Errorf("decode decision: %w", err)
	}
	// The table is read before the log: a transaction that has left it has
	// forced its decision, if it took one, so no record then means none.
	deciding := inc.deciding.has(txn)
	in, ok, err := inc.st.Intentions().Lookup(txn)
	switch {
	case err != nil:
		return nil, err
	case ok && in.Status == store.IntentionCommitted:
		// Committed for the writers the record names. Any other node
		// asking is a contact the commit left out — one that voted in an
		// invoke reply that never came back — and its record is aborted.
		if slices.Contains(in.Participants, from) {
			return committedBody, nil
		}
		return abortedBody, nil
	case deciding:
		// Still deciding: a participant asking mid-prepare (restarted, or
		// tired of waiting) must not be told abort and then sent commit.
		return nil, fmt.Errorf("decision %v: not taken yet", txn)
	}
	// Presumed abort: no record and no transaction running means aborted
	// — or decided by an incarnation that crashed before its force, or
	// long since completed and forgotten; but a committed action is only
	// forgotten after every writer acknowledged, and the participant
	// asking still holds a prepared record.
	return abortedBody, nil
}

// --- coordinator role ---

// Txn is a distributed atomic action driven from this node, in the
// node's incarnation that began it: once that incarnation ends, the
// transaction can send nothing and log nothing.
type Txn struct {
	inc *incarnation
	id  ids.ActionID
	// tc is the transaction's root span in the distributed trace, which
	// began at began (zero when the hosting node is untraced, and for a
	// structure's constituents): every commit-protocol round and remote
	// invocation runs under a child of it.
	tc    trace.Context
	began time.Time

	mu sync.Mutex
	// local is the coordinator-local action, which locks and writes the
	// objects hosted here: a plain transaction begins it with its first
	// local invocation or Action call, and a structure's constituent is
	// built with it. It commits and aborts with the transaction.
	local *action.Action
	// contacts lists every contacted node, in first-contact order, with
	// whether at least one invocation at it succeeded and whether the
	// action there may have written. Successful contacts are participants
	// and take part in the commit protocol; failed ones (the call errored,
	// but the operation may still have executed remotely) only ever
	// receive an abort, so no orphaned participant action survives. An
	// entry is also what makes the next invoke at its node a continuation
	// rather than a first contact. A transaction touches a handful of
	// nodes, so this is a slice to scan, not a map, held in contactBuf
	// until it outgrows it.
	contacts   []contact
	contactBuf [4]contact
	done       bool
	invoking   bool // an Invoke runs: another one is refused

	// structure, when non-nil, makes this transaction a constituent
	// of a distributed structure: remote participant actions mirror
	// its colour scheme (see structured.go).
	structure *structureInfo
	// onEnlist notifies the owning structure of every node touched.
	onEnlist func(ids.NodeID)
}

// contact is one node a transaction has invoked.
type contact struct {
	node ids.NodeID
	ok   bool
	// wrote is set unless every invocation at the node came back saying
	// that the participant action had written nothing so far: by a reply
	// without that flag, and by a failed call, which may have executed.
	wrote bool
	// voted is set while the node's yes vote from an invoke reply stands:
	// the commit does not prepare it again. The next invoke there clears
	// it before it is sent.
	voted bool
}

// Begin starts a distributed atomic action coordinated by this node. It
// owns no action here until it touches this node's objects.
func (m *Manager) Begin() (*Txn, error) {
	return m.cur.Load().begin(ids.NewActionID(), nil, nil, nil), nil
}

// begin enters transaction id in the decision table and, on a traced node,
// starts a plain transaction's root span. local is a constituent's
// coordinator-local action, structure and onEnlist its structure's.
func (inc *incarnation) begin(id ids.ActionID, local *action.Action, structure *structureInfo, onEnlist func(ids.NodeID)) *Txn {
	t := &Txn{inc: inc, id: id, local: local, structure: structure, onEnlist: onEnlist}
	t.contacts = t.contactBuf[:0]
	if inc.tracer != nil && structure == nil {
		t.tc, t.began = trace.NewRoot(), inc.clk.Now()
	}
	inc.deciding.add(id)
	return t
}

// ended takes the transaction out of the decision table as its Commit or
// Abort returns and, on a traced node, records its root span.
func (t *Txn) ended(committed bool) {
	t.inc.deciding.remove(t.id)
	if !t.tc.Valid() {
		return
	}
	s := trace.Span{ID: t.id, TraceID: t.tc.TraceID, SpanID: t.tc.SpanID,
		Outcome: trace.OutcomeAborted, Begin: t.began, End: t.inc.clk.Now()}
	if committed {
		s.Outcome = trace.OutcomeCommitted
	}
	t.inc.tracer.AddSpan(s)
}

// ID returns the distributed action's identifier, unique across the
// simulation.
func (t *Txn) ID() ids.ActionID { return t.id }

// Action returns the coordinator-local action, for operating on objects
// hosted at the coordinator itself, and begins it on first use. Once the
// transaction has ended without one, it is nil.
func (t *Txn) Action() *action.Action {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, _ := t.localLocked()
	return a
}

// localLocked returns the coordinator-local action, begun if there is
// none yet and the transaction has not ended; on a traced node it is a
// child of the root span. Caller holds t.mu.
func (t *Txn) localLocked() (*action.Action, error) {
	if t.local != nil || t.done {
		return t.local, nil
	}
	a, err := t.inc.rt.Begin()
	if err != nil {
		return nil, err
	}
	if t.tc.Valid() {
		t.inc.tracer.JoinTrace(a.ID(), t.tc)
	}
	t.local = a
	return a, nil
}

// Participants returns the remote nodes with at least one successful
// invocation so far.
func (t *Txn) Participants() []ids.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out, _ := t.split(nil, nil)
	return out
}

// enlist records a contact with node n; ok upgrades it to a full
// participant and is never downgraded (any successful invocation means
// the node holds part of the action's effects), and neither is wrote.
func (t *Txn) enlist(n ids.NodeID, ok, wrote, voted bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.contacts {
		if c := &t.contacts[i]; c.node == n {
			c.ok, c.wrote, c.voted = c.ok || ok, c.wrote || wrote, c.voted || voted
			return
		}
	}
	t.contacts = append(t.contacts, contact{node: n, ok: ok, wrote: wrote, voted: voted})
}

// split appends the successful participants to succeeded and the
// failed-contact nodes to failed. Caller holds t.mu.
func (t *Txn) split(succeeded, failed []ids.NodeID) ([]ids.NodeID, []ids.NodeID) {
	for _, c := range t.contacts {
		if c.ok {
			succeeded = append(succeeded, c.node)
		} else {
			failed = append(failed, c.node)
		}
	}
	return succeeded, failed
}

// Invoke runs op on the named resource at the target node as part of
// this action. arg is JSON-marshalled and the resource's reply is
// unmarshalled into result when non-nil; the protocol carries both as
// opaque bytes. Local targets execute directly under the
// coordinator-local action, begun by the first of them.
//
// A transaction's invokes run one at a time, as the single thread of
// control of an action: an Invoke made while another on the same Txn
// runs fails at once with ErrOverlappingInvoke and runs nothing, and
// Commit and Abort belong after the last Invoke returned.
func (t *Txn) Invoke(ctx context.Context, target ids.NodeID, resource, op string, arg, result any) error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return ErrDone
	}
	if t.invoking {
		t.mu.Unlock()
		return ErrOverlappingInvoke
	}
	t.invoking = true
	defer t.invoked()
	// Any earlier invoke at the target, even a failed one, makes this one
	// a continuation rather than a first contact, and takes back the vote
	// the target cast in an invoke reply: the commit prepares it again.
	i := slices.IndexFunc(t.contacts, func(c contact) bool { return c.node == target })
	continuation := i >= 0
	if continuation {
		t.contacts[i].voted = false
	}
	var local *action.Action
	if target == t.inc.self {
		var err error
		if local, err = t.localLocked(); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.mu.Unlock()

	argBytes, err := json.Marshal(arg)
	if err != nil {
		return fmt.Errorf("dist: marshal arg: %w", err)
	}

	if local != nil {
		res, ok := t.inc.resources.Load(resource)
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoResource, resource)
		}
		out, err := res.(Resource).Invoke(local, op, argBytes)
		if err != nil {
			return err
		}
		if result != nil && out != nil {
			return json.Unmarshal(out, result)
		}
		return nil
	}

	if t.tc.Valid() {
		// The invocation runs under the transaction's root span; the
		// RPC layer derives the call's own child span from it.
		ctx = trace.Inject(ctx, t.tc)
	}
	// The message also carries what this node owes the target: the
	// transactions it has finished with there.
	var scratch [bodyScratch]byte
	var relScratch, comScratch [owedScratch]byte
	owed := t.inc.owed.take(owedList{node: target, rel: txnList{ids: relScratch[:0]}, com: txnList{ids: comScratch[:0]}})
	body := appendInvokeReq(scratch[:0], &invokeReq{Txn: t.ID(), Continuation: continuation,
		Resource: resource, Op: op, Arg: argBytes, Structure: t.structure, Release: owed.rel, Commit: owed.com})
	reply, err := t.inc.peer.CallRaw(ctx, target, methodInvoke, body)
	if err != nil {
		// The call failed but may still have executed remotely:
		// remember the contact so completion sends it an abort. The
		// releases it carried are owed again; its commits go out again
		// unacknowledged.
		owed.rel.each(func(txn ids.ActionID) { t.inc.owed.owe(target, txn) })
		t.enlist(target, false, true, false)
		return err
	}
	releasesPiggybacked.Add(uint64(owed.rel.n))
	phase2Piggybacked.Add(uint64(owed.com.n))
	out, flags, acks, err := decodeInvokeReply(reply)
	t.inc.acked(target, acks)
	t.enlist(target, true, flags&replyNothingWritten == 0 || err != nil, flags&replyVoted != 0 && err == nil)
	if t.onEnlist != nil {
		t.onEnlist(target)
	}
	if err != nil {
		return err
	}
	if result != nil && len(out) > 0 {
		return json.Unmarshal(out, result)
	}
	return nil
}

// invoked ends an Invoke: the next one may run.
func (t *Txn) invoked() {
	t.mu.Lock()
	t.invoking = false
	t.mu.Unlock()
}

// bodyScratch sizes the stack buffers request bodies are encoded in. The
// RPC layer copies a body into its frame before CallRaw returns, so a
// body never needs to outlive the call that sends it; a body that
// outgrows the buffer moves to the heap by append.
const bodyScratch = 128

// Commit ends the action and returns when the outcome is decided and
// durable. It runs two-phase commit: a remote writer voted in the reply to
// its first invoke, so the prepare round asks only the participants whose
// vote does not stand (readers, and nodes invoked more than once). On any
// prepare failure the action aborts everywhere and ErrAborted is returned; on
// success Commit returns once the commit decision is forced and this
// node's own part installed. The action is then permanent, though not yet
// installed at its writers: each hears of the decision with this node's
// next message to it, or within the flush interval, and holds its write
// locks until then — a writer that crashed first learns it from recovery.
// A plain transaction that wrote nothing here and only read at a single
// remote node is committed on the spot: past its lock point, it has
// nothing to make durable, and its read locks at that node are released
// within the flush interval.
func (t *Txn) Commit(ctx context.Context) (err error) {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return ErrDone
	}
	t.done = true
	defer func() { t.ended(err == nil) }()
	local := t.local
	// The node lists live on the stack; each is copied where it escapes.
	var partBuf, failBuf, unvotedBuf [len(t.contactBuf)]ids.NodeID
	participants, failedContacts := t.split(partBuf[:0], failBuf[:0])
	unvoted := unvotedBuf[:0] // the participants the prepare round asks
	for _, c := range t.contacts {
		if c.ok && !c.voted {
			unvoted = append(unvoted, c.node)
		}
	}
	reader, singleSiteReader := t.singleSiteReaderLocked()
	t.mu.Unlock()

	// Failed contacts never joined the action's outcome: make sure any
	// ghost execution there is aborted (best effort; one that misses it
	// and asks is told aborted, as the decision record does not name
	// it), without waiting, so a dead node cannot stall the commit.
	t.abortAt(ctx, failedContacts, false)

	clk := t.inc.clk
	start := clk.Now()

	if singleSiteReader {
		// The release lets the participant action go.
		t.inc.owed.owe(reader, t.ID())
		onePhaseReads.Inc()
		if err := commitLocal(local); err != nil {
			return fmt.Errorf("dist: local apply after decision: %w", err)
		}
		t.noteCommitted(clk.Since(start))
		return nil
	}

	// Phase 1: prepare every remote participant whose vote from an invoke
	// reply does not stand. Read-only voters commit at prepare and drop out
	// of the rest of the protocol: writers are the participants still
	// holding effects.
	writers := participants
	if len(unvoted) > 0 {
		readOnly, err := t.prepare(ctx, unvoted)
		if len(readOnly) > 0 {
			writers = slices.DeleteFunc(writers, func(n ids.NodeID) bool { return slices.Contains(readOnly, n) })
		}
		if err != nil {
			t.abortAt(ctx, writers, true)
			_ = abortLocal(local)
			txnAborts.Inc()
			return err
		}
	}

	if h := t.inc.TestHooks.AfterPrepare; h != nil {
		h()
	}

	// Decision point: force the commit record with the writer list.
	// From here the action is committed. The record also carries the
	// coordinator's own write set, which the store installs with it: a
	// crash that beats the local commit below loses nothing. The force
	// goes through the store handle of the incarnation that began the
	// transaction: once that incarnation has crashed — and a participant
	// asking the next one is told "aborted" (handleDecision) — it fails.
	if len(writers) > 0 {
		var localWrites store.Batch
		if local != nil {
			localWrites, err = local.PendingWrites()
		}
		if err == nil {
			err = t.inc.force(t.tc, store.Intention{
				Action:       t.ID(),
				Status:       store.IntentionCommitted,
				Writes:       localWrites,
				Coordinator:  t.inc.self,
				Participants: heapCopy(writers), // the log keeps it
			})
		}
		if err != nil {
			t.abortAt(ctx, writers, true)
			_ = abortLocal(local)
			txnAborts.Inc()
			return fmt.Errorf("%w: force decision: %v", ErrAborted, err)
		}
	}

	if h := t.inc.TestHooks.AfterDecision; h != nil {
		h()
	}

	// Apply locally (coordinator's own write set).
	if err := commitLocal(local); err != nil {
		// The decision is already durable; local application failed
		// (e.g. local store crashed). The distributed action is
		// committed: the decision record carries this node's write set,
		// which the store installed with it.
		return fmt.Errorf("dist: local apply after decision: %w", err)
	}

	// Phase 2 is delivery. Each writer is owed the commit, which rides
	// this node's next message to it; the decision record stays until
	// every writer has acknowledged it (release.go). A structure's end
	// carries its constituents' commits that are still owed.
	if len(writers) > 0 {
		t.inc.owed.await(t.ID(), writers, clk.Now())
	}
	t.noteCommitted(clk.Since(start))
	return nil
}

// prepare is the commit's prepare round over the participants in unvoted,
// fanning out concurrently. The first NO vote or error cancels the round so
// in-flight prepares stop retransmitting: the outcome is already decided,
// and the error says why. It returns the participants that voted
// read-only.
func (t *Txn) prepare(ctx context.Context, unvoted []ids.NodeID) (readOnly []ids.NodeID, err error) {
	var voteMu sync.Mutex
	peer, coordID := t.inc.peer, t.inc.self
	prepared := t.inc.fanout(ctx, RoundPrepare, t.ID(), t.tc, heapCopy(unvoted), true,
		func(ctx context.Context, p ids.NodeID) error {
			var scratch [bodyScratch]byte
			reply, err := peer.CallRaw(ctx, p, methodPrepare, appendPrepareReq(scratch[:0], prepareReq{Txn: t.ID(), Coordinator: coordID}))
			if err != nil {
				return err
			}
			vote, err := decodeVote(reply)
			if err != nil {
				return err
			}
			t.inc.acked(p, vote.Acks)
			if !vote.OK {
				return errVotedNo
			}
			if vote.ReadOnly {
				voteMu.Lock()
				readOnly = append(readOnly, p)
				voteMu.Unlock()
			}
			return nil
		})
	if p, err, failed := firstFailure(prepared); failed {
		if errors.Is(err, errVotedNo) {
			return readOnly, fmt.Errorf("%w: participant %v voted no", ErrAborted, p)
		}
		return readOnly, fmt.Errorf("%w: prepare %v: %v", ErrAborted, p, err)
	}
	return readOnly, nil
}

// heapCopy copies a node list the caller keeps on its stack, for a callee
// that keeps it or hands it to another goroutine.
func heapCopy(nodes []ids.NodeID) []ids.NodeID { return append([]ids.NodeID(nil), nodes...) }

// commitLocal and abortLocal end the coordinator-local action, if any.
func commitLocal(a *action.Action) error {
	if a == nil {
		return nil
	}
	return a.Commit()
}

func abortLocal(a *action.Action) error {
	if a == nil {
		return nil
	}
	return a.Abort()
}

// singleSiteReaderLocked reports whether the transaction is a plain one
// that wrote nothing here and invoked exactly one remote node, which wrote
// nothing either, and that node. Under strict two-phase locking it has
// passed its lock point: every lock it will ever hold is held there, and
// the one failure that could lose one — that node restarting between two
// invocations — is refused at the invocation itself (participantAction).
// Readers of several nodes are prepared by the round: it is what finds out
// that some node lost its locks before the last invocation elsewhere
// returned. So are a structure's constituents: a reader's release may
// still be in flight when the structure's end arrives, and a container
// cannot end with a live child. Caller holds t.mu.
func (t *Txn) singleSiteReaderLocked() (ids.NodeID, bool) {
	if t.structure != nil || t.local != nil && t.local.HasWrites() {
		return 0, false
	}
	var sole contact
	n := 0
	for _, c := range t.contacts {
		if c.ok {
			sole = c
			n++
		}
	}
	return sole.node, n == 1 && !sole.wrote
}

// noteCommitted counts one committed transaction and how long its Commit
// took.
func (t *Txn) noteCommitted(took time.Duration) {
	txnCommits.Inc()
	commitNs.ObserveDurationWithExemplar(took, t.tc.TraceID)
}

// Abort terminates the distributed action undoing its effects
// everywhere (best effort remotely: participants that miss the message
// resolve via presumed abort).
func (t *Txn) Abort(ctx context.Context) error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return nil
	}
	t.done = true
	defer t.ended(false)
	local := t.local
	participants, failedContacts := t.split(nil, nil)
	t.mu.Unlock()

	t.abortAt(ctx, failedContacts, false)
	t.abortAt(ctx, participants, true)
	_ = abortLocal(local)
	txnAborts.Inc()
	return nil
}

// abortTimeout bounds an abort round. Its targets may be dead or
// partitioned; without a deadline a hung peer would pin the round's
// goroutine forever (presumed abort covers nodes it cannot reach).
const abortTimeout = 2 * time.Second

// abortAt sends the transaction's abort to nodes in one round of end
// messages, on ctx's values but not its cancellation, bounded by
// abortTimeout: a caller whose deadline cut the prepare round short must
// not leave the yes-voters holding their locks until they ask
// (terminate). With wait the caller waits for the round, as long as ctx
// lasts.
func (t *Txn) abortAt(ctx context.Context, nodes []ids.NodeID, wait bool) {
	if len(nodes) == 0 {
		return
	}
	targets := heapCopy(nodes)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), abortTimeout)
		defer cancel()
		t.inc.fanout(ctx, RoundAbort, t.ID(), t.tc, targets, false, func(ctx context.Context, p ids.NodeID) error {
			var scratch [owedScratch]byte
			return t.inc.sendEnd(ctx, p, &endReq{Abort: txnList{ids: scratch[:0]}.add(t.ID())})
		})
	}()
	if wait {
		select {
		case <-done:
		case <-ctx.Done():
		}
	}
}

// --- recovery ---

// RecoverPending resolves this node's pending intention records: as
// participant it asks coordinators for decisions; as coordinator it owes
// every writer that has not acknowledged a decision record the commit,
// which the flusher delivers. It returns the number of records still
// pending: prepared records whose coordinator did not answer, and
// decision records awaiting an ack.
func (m *Manager) RecoverPending(ctx context.Context) (int, error) {
	inDoubt, owed, err := m.cur.Load().recoverPass(ctx)
	return inDoubt + owed, err
}

// recoverPass is one recovery pass. It returns the prepared records left
// in doubt and the decision records still awaiting an ack.
func (inc *incarnation) recoverPass(ctx context.Context) (inDoubt, owed int, err error) {
	log := inc.st.Intentions()
	pending, err := log.Pending()
	if err != nil {
		return 0, 0, err
	}
	for _, in := range pending {
		switch {
		case in.Coordinator == inc.self && in.Status == store.IntentionCommitted:
			// The coordinator's own leg needs no redo: the decision record
			// carried the local write set, and the store installed it with
			// the record (and replays it with the log). Every writer that
			// has not acknowledged it is owed the commit, which the flusher
			// sends until it is acknowledged; the last ack forgets the
			// record. Owed since before a crash, or asked for again, it is
			// due at once.
			inc.owed.await(in.Action, in.Participants, time.Time{})
			owed++
		case in.Coordinator != inc.self && in.Status == store.IntentionPrepared:
			// Participant role: the record's entry, in doubt since
			// Register loaded it, asks its coordinator now.
			if _, err := inc.resolve(ctx, in.Action, in.Coordinator); err != nil {
				inDoubt++ // no answer: stay in doubt, ask again next pass
			}
		default:
			// Stale record in a shape recovery does not own: drop it.
			//mcalint:ignore errdrop dropping a stale record is best effort; it is retried next recovery pass
			_ = log.Forget(in.Action)
		}
	}
	if inDoubt > 0 {
		recoverHeld.Inc()
	}
	return inDoubt, owed, nil
}

// resolve asks txn's coordinator what it decided (handleDecision) and ends
// txn here by the answer.
func (inc *incarnation) resolve(ctx context.Context, txn ids.ActionID, coord ids.NodeID) (state, error) {
	var scratch [bodyScratch]byte
	reply, err := inc.peer.CallRaw(ctx, coord, methodDecision, appendTxnReq(scratch[:0], txn))
	if err != nil {
		return buried, err
	}
	committed, err := decodeDecision(reply)
	switch {
	case err != nil:
		return buried, err
	case committed:
		return inc.end(txn, evCommit)
	}
	return inc.end(txn, evAbort)
}

// terminateAfter is how long a participant's transaction stays untouched
// before it asks its coordinator what was decided.
const terminateAfter = time.Second

// terminate is the idle rule, a participant's answer to a silent
// coordinator: every terminateAfter it asks the coordinator of each
// transaction no message has touched since the tick before — an action
// invoked and never prepared, a reader never released, a prepared writer —
// what was decided, and ends it by the answer. A coordinator still
// deciding answers nothing, and is asked again at the next tick. Each
// coordinator is asked on its own goroutine, so one that does not answer
// holds up only its own transactions, and for one call per tick: after a
// query it left unanswered, the rest of its transactions wait for the next
// tick. It runs for one incarnation of the node, on tick, made on its
// clock as the node starts, and ends with ctx, the node's lifetime.
func (inc *incarnation) terminate(ctx context.Context, tick clock.Ticker) {
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C():
		}
		var wg sync.WaitGroup
		for coord, txns := range inc.idle() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, txn := range txns {
					terminationQueries.Inc()
					was, err := inc.resolve(ctx, txn, coord)
					var answered *rpc.RemoteError
					switch {
					case err == nil && was != buried:
						orphansReaped[was].Inc()
						flightrec.Record(flightrec.Event{Kind: flightrec.KindReaped, Node: uint64(inc.self), A: uint64(txn), B: uint64(coord)})
					case err != nil && !errors.As(err, &answered):
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// idle returns the unfinished transactions no message has touched since
// the last tick, by coordinator, and clears the rest's touched bits.
func (inc *incarnation) idle() map[ids.NodeID][]ids.ActionID {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	out := make(map[ids.NodeID][]ids.ActionID)
	for txn, e := range inc.txns {
		switch {
		case e.state == buried:
		case e.touched:
			e.touched = false
		default:
			out[e.coord] = append(out[e.coord], txn)
		}
	}
	return out
}

// Run executes fn inside a distributed action, committing on nil and
// aborting on error or panic.
func (m *Manager) Run(ctx context.Context, fn func(*Txn) error) error {
	t, err := m.Begin()
	if err != nil {
		return err
	}
	return t.run(ctx, fn)
}

// run executes fn inside t, committing on nil and aborting on error or
// panic.
func (t *Txn) run(ctx context.Context, fn func(*Txn) error) error {
	defer func() {
		if r := recover(); r != nil {
			_ = t.Abort(ctx)
			panic(r)
		}
	}()
	if err := fn(t); err != nil {
		_ = t.Abort(ctx)
		return err
	}
	return t.Commit(ctx)
}
