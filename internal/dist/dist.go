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
//   - coordinator: Begin starts a distributed action; Invoke routes
//     operations to resources (local or remote); Commit runs two-phase
//     commit — prepare everywhere, force the decision with the writer
//     list — and returns. The commit then reaches each writer with the
//     coordinator's next message to it (release.go), and the decision
//     record stays until every writer has acknowledged it. A transaction
//     that touched exactly one remote node commits in one step instead
//     (onephase.go).
//
// Crash recovery: a restarting participant resolves in-doubt (prepared)
// actions by asking the coordinator for the decision, applying the
// logged write set on commit and discarding it otherwise (presumed
// abort). A restarting coordinator re-drives the commit of every
// decided-but-unacknowledged action.
package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"mca/internal/action"
	"mca/internal/clock"
	"mca/internal/colour"
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
	// ErrRecovering is returned to remote invokers while the node is
	// resolving in-doubt actions after a restart.
	ErrRecovering = errors.New("dist: node recovering")
	// ErrPrepared is returned for invokes on a transaction this
	// participant has already voted yes on: the logged write set is
	// frozen, so no further mutation may join the action.
	ErrPrepared = errors.New("dist: transaction already prepared")
	// ErrNoResource is returned when the named resource is not
	// registered at the target node.
	ErrNoResource = errors.New("dist: no such resource")
	// ErrInDoubt is returned by Commit when the transaction's one
	// participant was handed the decision (one-phase commit) and did not
	// say what it decided before the caller's context ended, or within two
	// RPC call timeouts: the transaction has committed or aborted there,
	// and this node cannot tell which.
	ErrInDoubt = errors.New("dist: outcome in doubt")
)

// RPC method names.
const (
	methodInvoke   = "dist.invoke"
	methodPrepare  = "dist.prepare"
	methodAbort    = "dist.abort"
	methodDecision = "dist.decision"
	methodCommit1  = "dist.commit1"
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

// Manager is the per-node engine for distributed actions.
type Manager struct {
	// TestHooks injects faults between commit phases; nil fields are
	// ignored. Set it only from tests, before driving transactions.
	TestHooks Hooks

	// OnRound, when non-nil, receives the outcome of every coordinator
	// fan-out round (e.g. trace.Recorder.ObserveRound). Set before
	// driving transactions.
	OnRound trace.RoundObserver

	mu   sync.Mutex
	node *node.Node
	// clk is the time source for recovery retries and round metrics,
	// inherited from the hosting node in Register so a simulated node
	// drives the manager's timers too.
	clk clock.Clock
	// tracer is the hosting node's distributed-trace recorder
	// (node.WithTracer), nil when the node is untraced. Picked up in
	// Register so a Restart re-resolves it.
	tracer    *trace.Recorder
	resources map[string]Resource
	active    map[ids.ActionID]*participantState // participant actions
	// containers are this node's volatile container actions for
	// distributed structures, and passColours maps a structured
	// participant action to the colour resource handlers retain
	// objects in (see structured.go).
	containers  map[StructureID]*action.Action
	passColours map[ids.ActionID]colour.Colour
	recovering  bool
	// tombstones records recently finished transactions so that a late
	// (re-ordered or retransmitted) invoke cannot resurrect a
	// participant action after its abort, release or commit.
	tombstones     map[ids.ActionID]struct{}
	tombstoneOrder []ids.ActionID

	// owed is what this node, as coordinator, owes its participants and
	// the acks it awaits from them; acks are what it owes, as
	// participant, its coordinators (release.go).
	owed owedQueue
	acks ackQueue
}

// maxTombstones bounds the aborted-transaction memory; old entries
// expire FIFO. 4096 far exceeds any realistic in-flight window of the
// simulation.
const maxTombstones = 4096

// participantState is one live participant action plus its commit-
// protocol phase. prepared flips when this node votes yes: from then on
// the logged write set is frozen and late invokes are rejected, so the
// live-commit path can never apply effects the crash-replay path
// (ApplyBatch of the logged writes) would not.
type participantState struct {
	a        *action.Action
	prepared bool
}

var _ node.Service = (*Manager)(nil)

// NewManager builds a manager and installs it on the node. A freshly
// installed manager is open immediately (a brand-new node has no
// in-doubt state); after a crash, node.Restart runs the recovery hook.
func NewManager(n *node.Node) *Manager {
	m := &Manager{
		clk:         clock.Real(),
		resources:   make(map[string]Resource),
		active:      make(map[ids.ActionID]*participantState),
		containers:  make(map[StructureID]*action.Action),
		passColours: make(map[ids.ActionID]colour.Colour),
		tombstones:  make(map[ids.ActionID]struct{}),
	}
	m.owed.wake = make(chan struct{}, 1)
	n.Host(m)
	m.mu.Lock()
	m.recovering = false
	m.mu.Unlock()
	return m
}

// Node returns the hosting node.
func (m *Manager) Node() *node.Node {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.node
}

// traceRecorder returns the node's trace recorder, nil when untraced.
func (m *Manager) traceRecorder() *trace.Recorder {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tracer
}

// clock returns the manager's time source.
func (m *Manager) clock() clock.Clock {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clk
}

// RegisterResource installs a named resource at this node.
func (m *Manager) RegisterResource(name string, r Resource) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.resources[name] = r
}

// Register implements node.Service.
func (m *Manager) Register(n *node.Node, p *rpc.Peer) {
	m.mu.Lock()
	m.node = n
	m.clk = n.Clock()
	m.tracer = n.Tracer()
	// Participant actions and structure containers died with the
	// volatile memory.
	m.active = make(map[ids.ActionID]*participantState)
	m.containers = make(map[StructureID]*action.Action)
	m.passColours = make(map[ids.ActionID]colour.Colour)
	m.recovering = true
	m.mu.Unlock()
	// So did what this node still owed its participants — their locks
	// are this node's word, and the word was volatile; the commits it
	// owed, recovery re-drives from the decision records — and the acks
	// it owed its coordinators, for installs that were not forced.
	m.owed.reset(n.Clock())
	m.acks.reset(n.Stable().WAL())
	//mcalint:ignore goleak the flusher ends with the node's lifetime context, which Crash and Stop cancel
	go m.flushOwed(n.Context(), n.Clock(), n.ID())
	//mcalint:ignore goleak the termination loop ends with the node's lifetime context, which Crash and Stop cancel
	go m.terminate(n.Context(), n.Clock())

	p.Handle(methodInvoke, m.handleInvoke)
	p.Handle(methodPrepare, m.handlePrepare)
	p.Handle(methodAbort, m.handleAbort)
	p.Handle(methodDecision, m.handleDecision)
	p.Handle(methodCommit1, m.handleCommit1)
	p.Handle(methodEnd, m.handleEnd)
	p.Handle(methodEndStructure, m.handleEndStructure)
	p.Handle(methodAbortStructure, m.handleAbortStructure)
}

// Recover implements node.Service: it resolves in-doubt participant
// records and re-drives unfinished coordinator decisions, then opens the
// node for new work. While records remain unresolved (e.g. the
// coordinator is down), the node stays closed to new transactions —
// in-doubt objects have lost their locks with the volatile memory, so
// serving new work before resolution could interleave with the pending
// write sets — and a background loop keeps retrying until ctx (the
// node's lifetime) ends, so another crash cannot strand the loop.
//
// Note: a write set applied by late resolution reaches stable storage
// but not object instances already re-activated by other services;
// their next re-activation reads the repaired state.
func (m *Manager) Recover(ctx context.Context, n *node.Node) {
	remaining, err := m.RecoverPending(ctx)
	if err == nil && remaining == 0 {
		m.mu.Lock()
		m.recovering = false
		m.mu.Unlock()
		return
	}
	go func() {
		ticker := m.clock().NewTicker(25 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				// The node crashed again or shut down; the next
				// Restart runs Recover afresh.
				return
			case <-ticker.C():
			}
			remaining, err := m.RecoverPending(ctx)
			if err != nil {
				// Transient trouble (the store crashed again briefly,
				// RPC noise): keep retrying. Returning here would
				// strand the node in recovering forever — a permanent
				// crash cancels ctx and ends the loop above instead.
				continue
			}
			if remaining == 0 {
				m.mu.Lock()
				m.recovering = false
				m.mu.Unlock()
				return
			}
		}
	}()
}

// --- participant role ---

// participantAction resolves the node-local action serving the
// distributed transaction, creating it on the coordinator's first
// contact. A continuation that finds no action is refused and the
// transaction tombstoned: the action it means to continue died in a
// crash with the effects of the earlier invocations, and a fresh one
// would let the transaction commit with only the later ones. caller,
// when valid, is the invoking span (the RPC server span): a freshly
// created action joins the caller's distributed trace as its child, so
// the participant's local work exports under the coordinator's TraceID.
func (m *Manager) participantAction(txn ids.ActionID, continuation bool, caller trace.Context, info *structureInfo) (*action.Action, error) {
	// Resolve (or create) the structure container chain first.
	var container *action.Action
	if info != nil {
		var err error
		container, err = m.structureContainer(info)
		if err != nil {
			return nil, err
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.recovering {
		return nil, ErrRecovering
	}
	if _, dead := m.tombstones[txn]; dead {
		return nil, fmt.Errorf("%w (txn %v)", ErrAborted, txn)
	}
	if ps, ok := m.active[txn]; ok {
		if ps.prepared {
			// Frozen: this node already voted yes with a logged write
			// set; a late invoke may not mutate beyond it.
			return nil, fmt.Errorf("%w (txn %v)", ErrPrepared, txn)
		}
		return ps.a, nil
	}
	if continuation {
		m.tombstoneLocked(txn)
		return nil, fmt.Errorf("%w (txn %v: participant restarted since its earlier invocations)", ErrAborted, txn)
	}
	var (
		a   *action.Action
		err error
	)
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
		a, err = m.node.Runtime().Begin()
	}
	if err != nil {
		return nil, err
	}
	m.active[txn] = &participantState{a: a}
	if info != nil {
		m.passColours[a.ID()] = info.Container
	}
	if m.tracer != nil && caller.Valid() {
		m.tracer.JoinTrace(a.ID(), caller)
	}
	return a, nil
}

// tombstoneLocked remembers a finished transaction so that a late invoke
// cannot start a participant action for it. Caller holds m.mu.
func (m *Manager) tombstoneLocked(txn ids.ActionID) {
	if _, dup := m.tombstones[txn]; dup {
		return
	}
	m.tombstones[txn] = struct{}{}
	m.tombstoneOrder = append(m.tombstoneOrder, txn)
	for len(m.tombstoneOrder) > maxTombstones {
		delete(m.tombstones, m.tombstoneOrder[0])
		m.tombstoneOrder = m.tombstoneOrder[1:]
	}
}

// bury tombstones a finished transaction and returns its participant
// action, if it was live.
func (m *Manager) bury(txn ids.ActionID) (*action.Action, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tombstoneLocked(txn)
	return m.dropLocked(txn)
}

// dropLocked removes the transaction's participant state and returns its
// action, if it was live. Caller holds m.mu.
func (m *Manager) dropLocked(txn ids.ActionID) (*action.Action, bool) {
	ps, ok := m.active[txn]
	if !ok {
		return nil, false
	}
	delete(m.active, txn)
	delete(m.passColours, ps.a.ID())
	return ps.a, true
}

// freezeActive marks the transaction prepared (rejecting further
// invokes) and returns its participant state. alreadyPrepared reports a
// repeated prepare.
func (m *Manager) freezeActive(txn ids.ActionID) (ps *participantState, alreadyPrepared, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps, ok = m.active[txn]
	if !ok {
		return nil, false, false
	}
	alreadyPrepared = ps.prepared
	ps.prepared = true
	return ps, alreadyPrepared, true
}

func (m *Manager) handleInvoke(ctx context.Context, from ids.NodeID, body []byte) ([]byte, error) {
	req, err := decodeInvokeReq(body)
	if err != nil {
		return nil, fmt.Errorf("decode invoke: %w", err)
	}
	// What the coordinator has finished with goes first: the operation
	// below may want the very locks those transactions still hold.
	m.workOff(ctx, from, req.Release, req.Commit)
	m.mu.Lock()
	res, ok := m.resources[req.Resource]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoResource, req.Resource)
	}
	// The RPC layer injected the server span's context into ctx; the
	// participant action joins the caller's trace under it.
	caller, _ := trace.FromContext(ctx)
	a, err := m.participantAction(req.Txn, req.Continuation, caller, req.Structure)
	if err != nil {
		return nil, err
	}
	out, err := res.Invoke(a, req.Op, req.Arg)
	if err != nil {
		return nil, err
	}
	var scratch [owedScratch]byte
	acks := m.acks.take(from, txnList{ids: scratch[:0]})
	return appendInvokeReply(make([]byte, 0, len(out)+8+len(acks.ids)+min(acks.n, 1)), !a.HasWrites(), out, acks), nil
}

func (m *Manager) handlePrepare(_ context.Context, from ids.NodeID, body []byte) ([]byte, error) {
	req, err := decodePrepareReq(body)
	if err != nil {
		return nil, fmt.Errorf("decode prepare: %w", err)
	}
	vote := voteNoBody
	log := m.Node().Stable().Intentions()
	ps, alreadyPrepared, ok := m.freezeActive(req.Txn)
	switch {
	case !ok:
		// Unknown action (e.g. lost to a crash): vote no — presumed
		// abort.
	case alreadyPrepared:
		// Repeated prepare: re-derive the earlier vote from the log (a
		// record means we voted yes as a writer; a read-only yes never
		// keeps the action live, so it cannot reach here).
		in, found, err := log.Lookup(req.Txn)
		if err == nil && found && in.Status == store.IntentionPrepared {
			vote = voteYesBody
		}
	case ps.a.Status() != action.Active:
		// The action died locally (e.g. deadlock abort): vote no.
	case !ps.a.HasWrites():
		// Read-only participant: nothing to log, nothing to redo or
		// undo. Commit locally right now — releasing its locks — and
		// tell the coordinator to exclude this node from the decision
		// record and phase 2 (presumed-abort read-only optimisation).
		if a, live := m.bury(req.Txn); live {
			if err := a.Commit(); err == nil {
				vote = voteYesReadBody
				readonlyVotes.Inc()
			}
		}
	default:
		writes, err := ps.a.PendingWrites()
		if err == nil {
			err = log.Record(store.Intention{
				Action:      req.Txn,
				Status:      store.IntentionPrepared,
				Writes:      writes,
				Coordinator: req.Coordinator,
			})
			// The YES vote is derived strictly after the log force
			// (mcalint's forceorder rule); on the PendingWrites error
			// path the initializer's NO stands.
			if err == nil {
				vote = voteYesBody
			}
		}
	}
	// The prepare's force, when there was one, carried whatever earlier
	// commits here were waiting for it: their acks can ride the vote.
	return m.withAcks(vote, from), nil
}

func (m *Manager) handleAbort(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
	txn, err := decodeTxnReq(body)
	if err != nil {
		return nil, fmt.Errorf("decode abort: %w", err)
	}
	if err := m.abortHere(txn); err != nil {
		return nil, err
	}
	return ackBody, nil
}

// abortHere undoes the transaction's participant action, if it is live,
// and forgets its prepared record.
func (m *Manager) abortHere(txn ids.ActionID) error {
	if a, ok := m.bury(txn); ok {
		_ = a.Abort()
	}
	return m.Node().Stable().Intentions().Forget(txn)
}

func (m *Manager) handleDecision(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
	txn, err := decodeTxnReq(body)
	if err != nil {
		return nil, fmt.Errorf("decode decision: %w", err)
	}
	nd := m.Node()
	in, ok, err := nd.Stable().Intentions().Lookup(txn)
	switch {
	case err != nil:
		return nil, err
	case ok && in.Status == store.IntentionCommitted:
		return committedBody, nil
	case nd.Runtime().Active(txn):
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

// Txn is a distributed atomic action driven from this node.
type Txn struct {
	mgr   *Manager
	local *action.Action
	// tc is the transaction's root span in the distributed trace (zero
	// when the hosting node is untraced): every commit-protocol round
	// and remote invocation runs under a child of it.
	tc trace.Context

	mu sync.Mutex
	// contacts lists every contacted node, in first-contact order, with
	// whether at least one invocation at it succeeded and whether the
	// action there may have written. Successful contacts are participants
	// and take part in the commit protocol; failed ones (the call errored,
	// but the operation may still have executed remotely) only ever
	// receive an abort, so no orphaned participant action survives. An
	// entry is also what makes the next invoke at its node a continuation
	// rather than a first contact. A transaction touches a handful of
	// nodes, so this is a slice to scan, not a map.
	contacts []contact
	done     bool

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
}

// Begin starts a distributed atomic action coordinated by this node.
func (m *Manager) Begin() (*Txn, error) {
	m.mu.Lock()
	if m.recovering {
		m.mu.Unlock()
		return nil, ErrRecovering
	}
	rt := m.node.Runtime()
	m.mu.Unlock()
	local, err := rt.Begin()
	if err != nil {
		return nil, err
	}
	t := &Txn{mgr: m, local: local}
	if rec := m.traceRecorder(); rec != nil {
		t.tc = rec.StartTrace(local.ID())
	}
	return t, nil
}

// ID returns the distributed action's identifier (its coordinator-local
// action identifier, unique across the simulation).
func (t *Txn) ID() ids.ActionID { return t.local.ID() }

// Action returns the coordinator-local action, for operating on objects
// hosted at the coordinator itself.
func (t *Txn) Action() *action.Action { return t.local }

// Participants returns the remote nodes with at least one successful
// invocation so far.
func (t *Txn) Participants() []ids.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out, _ := t.split()
	return out
}

// enlist records a contact with node n; ok upgrades it to a full
// participant and is never downgraded (any successful invocation means
// the node holds part of the action's effects), and neither is wrote.
func (t *Txn) enlist(n ids.NodeID, ok, wrote bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.contacts {
		if c := &t.contacts[i]; c.node == n {
			c.ok, c.wrote = c.ok || ok, c.wrote || wrote
			return
		}
	}
	t.contacts = append(t.contacts, contact{node: n, ok: ok, wrote: wrote})
}

// split returns the successful participants and the failed-contact
// nodes. Caller holds t.mu.
func (t *Txn) split() (succeeded, failed []ids.NodeID) {
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
// coordinator action.
func (t *Txn) Invoke(ctx context.Context, target ids.NodeID, resource, op string, arg, result any) error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return ErrDone
	}
	// Any earlier invoke at the target, even a failed one, makes this one
	// a continuation rather than a first contact.
	continuation := slices.ContainsFunc(t.contacts, func(c contact) bool { return c.node == target })
	t.mu.Unlock()

	argBytes, err := json.Marshal(arg)
	if err != nil {
		return fmt.Errorf("dist: marshal arg: %w", err)
	}

	if target == t.mgr.Node().ID() {
		t.mgr.mu.Lock()
		res, ok := t.mgr.resources[resource]
		t.mgr.mu.Unlock()
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoResource, resource)
		}
		out, err := res.Invoke(t.local, op, argBytes)
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
	owed := t.mgr.owed.take(owedList{node: target, rel: txnList{ids: relScratch[:0]}, com: txnList{ids: comScratch[:0]}})
	body := appendInvokeReq(scratch[:0], &invokeReq{Txn: t.ID(), Continuation: continuation,
		Resource: resource, Op: op, Arg: argBytes, Structure: t.structure, Release: owed.rel, Commit: owed.com})
	reply, err := t.mgr.Node().Peer().CallRaw(ctx, target, methodInvoke, body)
	if err != nil {
		// The call failed but may still have executed remotely:
		// remember the contact so completion sends it an abort. The
		// releases it carried are owed again; its commits go out again
		// unacknowledged.
		owed.rel.each(func(txn ids.ActionID) { t.mgr.owe(target, txn) })
		t.enlist(target, false, true)
		return err
	}
	releasesPiggybacked.Add(uint64(owed.rel.n))
	phase2Piggybacked.Add(uint64(owed.com.n))
	out, nothingWritten, acks, err := decodeInvokeReply(reply)
	t.mgr.acked(target, acks)
	t.enlist(target, true, !nothingWritten || err != nil)
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

// bodyScratch sizes the stack buffers request bodies are encoded in. The
// RPC layer copies a body into its frame before CallRaw returns, so a
// body never needs to outlive the call that sends it; a body that
// outgrows the buffer moves to the heap by append.
const bodyScratch = 128

// Commit ends the action and returns when the outcome is decided and
// durable. A transaction whose effects lie at several nodes runs
// two-phase commit: on any prepare failure the action aborts everywhere
// and ErrAborted is returned; on success Commit returns once the commit
// decision is forced and this node's own part installed. The action is
// then permanent, though not yet installed at its other writers: each
// hears of the decision with this node's next message to it, or within
// the flush interval, and holds its write locks until then — a writer
// that crashed first learns it from recovery. A constituent of a
// distributed structure waits for its writers instead, whose actions
// must commit before the structure ends. One that touched a single
// remote node and wrote nothing here commits in one step (onephase.go): a
// writer hands that node the decision and may come back ErrInDoubt when
// it stays silent past ctx or two RPC call timeouts; a reader is
// committed on the spot, and its read locks at that node are released
// within the flush interval.
func (t *Txn) Commit(ctx context.Context) error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return ErrDone
	}
	t.done = true
	participants, failedContacts := t.split()
	sole, singleSite := t.singleSiteLocked()
	t.mu.Unlock()

	peer := t.mgr.Node().Peer()
	log := t.mgr.Node().Stable().Intentions()

	// Failed contacts never joined the action's outcome: make sure any
	// ghost execution there is aborted (best effort; presumed abort
	// covers the rest). Done asynchronously so a dead node cannot
	// stall the commit.
	t.abortAsync(failedContacts)

	clk := t.mgr.clock()
	start := clk.Now()

	if singleSite {
		err := t.commitOnePhase(ctx, sole)
		if err == nil {
			t.noteCommitted(clk.Since(start))
		}
		return err
	}

	// Phase 1: prepare every remote participant, fanning out
	// concurrently. The first NO vote or error cancels the round so
	// in-flight prepares stop retransmitting; the outcome is already
	// decided. Read-only voters commit at prepare and drop out of the
	// rest of the protocol.
	coordID := t.mgr.Node().ID()
	var (
		voteMu   sync.Mutex
		readOnly []ids.NodeID
	)
	prepared := t.mgr.fanout(ctx, trace.RoundPrepare, t.ID(), t.tc, participants, true,
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
			t.mgr.acked(p, vote.Acks)
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
	// Writers are the participants still holding effects; read-only
	// voters are already done and must not see another round.
	writers := withoutNodes(participants, readOnly)
	if p, err, failed := firstFailure(prepared); failed {
		t.abortEverywhere(ctx, writers)
		txnAborts.Inc()
		if errors.Is(err, errVotedNo) {
			return fmt.Errorf("%w: participant %v voted no", ErrAborted, p)
		}
		return fmt.Errorf("%w: prepare %v: %v", ErrAborted, p, err)
	}

	if h := t.mgr.TestHooks.AfterPrepare; h != nil {
		h()
	}

	// Decision point: force the commit record with the writer list.
	// From here the action is committed. The record also carries the
	// coordinator's own write set, which the store installs with it: a
	// crash that beats the local commit below loses nothing.
	if len(writers) > 0 {
		localWrites, err := t.local.PendingWrites()
		if err == nil {
			err = log.Record(store.Intention{
				Action:       t.ID(),
				Status:       store.IntentionCommitted,
				Writes:       localWrites,
				Coordinator:  coordID,
				Participants: writers,
				// Persist the trace identity with the decision, so a
				// recovery re-drive continues the original trace.
				TraceID:   t.tc.TraceID,
				TraceSpan: t.tc.SpanID,
			})
		}
		if err != nil {
			t.abortEverywhere(ctx, writers)
			txnAborts.Inc()
			return fmt.Errorf("%w: force decision: %v", ErrAborted, err)
		}
	}

	if h := t.mgr.TestHooks.AfterDecision; h != nil {
		h()
	}

	// Apply locally (coordinator's own write set).
	if err := t.local.Commit(); err != nil {
		// The decision is already durable; local application failed
		// (e.g. local store crashed). The distributed action is
		// committed; local repair happens via the journal/recovery.
		return fmt.Errorf("dist: local apply after decision: %w", err)
	}

	// Phase 2 is delivery. Each writer is owed the commit, which rides
	// this node's next message to it; the decision record stays until
	// every writer has acknowledged it (release.go).
	switch {
	case len(writers) == 0:
	case t.structure == nil:
		t.mgr.owed.await(t.ID(), writers, false)
	default:
		// A constituent's participant actions commit into containers the
		// structure's end then ends: they must have committed first.
		t.mgr.commitNow(ctx, trace.RoundCommit, t.ID(), t.tc, writers)
	}
	t.noteCommitted(clk.Since(start))
	return nil
}

// commitNow sends the commit of txn to the writers that have not
// acknowledged it, in one round of end messages, each answered once what
// it acknowledges is forced. It returns how many did not acknowledge it;
// they stay owed the commit.
func (m *Manager) commitNow(ctx context.Context, kind trace.RoundKind, txn ids.ActionID, tc trace.Context, writers []ids.NodeID) (unacked int) {
	com := txnList{}.add(txn)
	for _, r := range m.fanout(ctx, kind, txn, tc, m.owed.await(txn, writers, true), false,
		func(ctx context.Context, p ids.NodeID) error { return m.sendEnd(ctx, p, txnList{}, com) }) {
		if r.Err != nil || m.owed.owes(r.Node, txn) {
			unacked++
		} else {
			phase2Redriven.Inc()
		}
	}
	return unacked
}

// noteCommitted counts one committed transaction and how long its Commit
// took.
func (t *Txn) noteCommitted(took time.Duration) {
	txnCommits.Inc()
	commitNs.ObserveDurationWithExemplar(took, t.tc.TraceID)
}

// withoutNodes returns nodes minus the dropped ones, preserving order.
func withoutNodes(nodes, drop []ids.NodeID) []ids.NodeID {
	if len(drop) == 0 {
		return nodes
	}
	out := make([]ids.NodeID, 0, len(nodes)-len(drop))
	for _, n := range nodes {
		if !slices.Contains(drop, n) {
			out = append(out, n)
		}
	}
	return out
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
	participants, failedContacts := t.split()
	t.mu.Unlock()

	t.abortAsync(failedContacts)
	t.abortEverywhere(ctx, participants)
	txnAborts.Inc()
	return nil
}

func (t *Txn) abortEverywhere(ctx context.Context, participants []ids.NodeID) {
	peer := t.mgr.Node().Peer()
	t.mgr.fanout(ctx, trace.RoundAbort, t.ID(), t.tc, participants, false,
		func(ctx context.Context, p ids.NodeID) error {
			return callTxn(ctx, peer, p, methodAbort, t.ID())
		})
	_ = t.local.Abort()
}

// callTxn sends one commit or abort message and waits for its ack.
func callTxn(ctx context.Context, peer *rpc.Peer, to ids.NodeID, method string, txn ids.ActionID) error {
	var scratch [bodyScratch]byte
	_, err := peer.CallRaw(ctx, to, method, appendTxnReq(scratch[:0], txn))
	return err
}

// abortAsyncTimeout bounds each background abort probe. The targets are
// nodes that are likely dead or partitioned; without a deadline a hung
// peer would pin the probing goroutine forever (presumed abort already
// covers nodes the probe cannot reach).
const abortAsyncTimeout = 2 * time.Second

// abortAsync sends aborts in the background, for nodes that are likely
// dead or partitioned: the sender must not block on them, and the
// probes must not inherit the commit path's cancellation — they run on
// their own bounded contexts.
func (t *Txn) abortAsync(nodes []ids.NodeID) {
	if len(nodes) == 0 {
		return
	}
	peer := t.mgr.Node().Peer()
	id := t.ID()
	for _, p := range nodes {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), abortAsyncTimeout)
			defer cancel()
			//mcalint:ignore errdrop best-effort ghost abort; presumed abort resolves the participant either way
			_ = callTxn(ctx, peer, p, methodAbort, id)
		}()
	}
}

// --- recovery ---

// RecoverPending resolves this node's pending intention records: as
// participant it asks coordinators for decisions; as coordinator it
// re-drives completion. It returns the number of records still pending
// (e.g. because a coordinator is unreachable).
func (m *Manager) RecoverPending(ctx context.Context) (int, error) {
	nd := m.Node()
	log := nd.Stable().Intentions()
	pending, err := log.Pending()
	if err != nil {
		return 0, err
	}
	remaining := 0
	for _, in := range pending {
		switch {
		case in.Coordinator == nd.ID() && in.Status == store.IntentionCommitted:
			// The coordinator's own leg needs no redo: the decision
			// record carried the local write set, and the store installed
			// it with the record (and replays it with the log).
			// Coordinator role: re-drive the commit at every writer that
			// has not acknowledged it, fanning out concurrently so one
			// dead participant costs one timeout for the whole round,
			// not one per participant. The last ack forgets the record.
			// The decision record carries the transaction's original
			// trace identity, so the re-drive round continues that trace.
			tc := trace.Context{TraceID: in.TraceID, SpanID: in.TraceSpan}
			if m.commitNow(ctx, trace.RoundRecover, in.Action, tc, in.Participants) > 0 {
				remaining++
			}
		case in.Coordinator != nd.ID() && in.Status == store.IntentionPrepared:
			// Participant role: in doubt — ask the coordinator.
			committed, err := m.askDecision(ctx, in)
			if err != nil {
				remaining++ // no answer: stay in doubt, ask again next pass
				continue
			}
			if committed {
				if err := nd.Stable().ApplyBatch(in.Writes); err != nil {
					remaining++
					continue
				}
			}
			//mcalint:ignore errdrop forgetting is housekeeping; a kept record re-asks the coordinator next pass
			_ = log.Forget(in.Action)
		case in.Coordinator != nd.ID() && in.Status == store.IntentionCommitted:
			// A one-phase decision this node took as the transaction's
			// one participant. Its write set went in with the record;
			// the record stays, to answer a coordinator still asking
			// what was decided, until the coordinator releases it.
		default:
			// Stale record in a shape recovery does not own: drop it.
			//mcalint:ignore errdrop dropping a stale record is best effort; it is retried next recovery pass
			_ = log.Forget(in.Action)
		}
	}
	if remaining > 0 {
		recoverHeld.Inc()
	}
	return remaining, nil
}

// askDecision asks the coordinator of a transaction prepared here what
// it decided.
func (m *Manager) askDecision(ctx context.Context, in store.Intention) (committed bool, err error) {
	var scratch [bodyScratch]byte
	reply, err := m.Node().Peer().CallRaw(ctx, in.Coordinator, methodDecision, appendTxnReq(scratch[:0], in.Action))
	if err != nil {
		return false, err
	}
	return decodeDecision(reply)
}

// terminateAfter is how long a participant stays prepared without a
// decision before it asks its coordinator for one.
const terminateAfter = time.Second

// terminate is a participant's answer to a silent coordinator: every
// terminateAfter it asks the coordinators of the transactions that were
// already prepared here at the tick before what they decided, and aborts
// those that were aborted. A coordinator that crashed mid-prepare sends
// no abort; one that decided commit delivers it. It runs for one
// incarnation of the node, on its clock, and ends with ctx, the node's
// lifetime.
func (m *Manager) terminate(ctx context.Context, clk clock.Clock) {
	tick := clk.NewTicker(terminateAfter)
	defer tick.Stop()
	var waiting map[ids.ActionID]bool
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C():
		}
		pending, err := m.Node().Stable().Intentions().Pending()
		if err != nil {
			continue
		}
		seen := make(map[ids.ActionID]bool)
		for _, in := range pending {
			if in.Status != store.IntentionPrepared {
				continue
			}
			if waiting[in.Action] {
				terminationQueries.Inc()
				if committed, err := m.askDecision(ctx, in); err == nil && !committed {
					//mcalint:ignore errdrop a kept prepared record is asked about again next tick
					_ = m.abortHere(in.Action)
					continue
				}
			}
			seen[in.Action] = true
		}
		waiting = seen
	}
}

// Run executes fn inside a distributed action, committing on nil and
// aborting on error or panic.
func (m *Manager) Run(ctx context.Context, fn func(*Txn) error) error {
	t, err := m.Begin()
	if err != nil {
		return err
	}
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
