// Package trace records action-runtime events and renders them as the
// timeline diagrams the paper uses throughout (figs 1-15): one row per
// action, indented under its parent, with a bar spanning begin to
// commit/abort. It exists for debugging, teaching and the experiment
// harness — a cheap way to *see* a structure execute.
//
// Recorder.Spans is the one reconstruction of events into spans;
// everything drawn is drawn from spans:
//
//	fmt.Print(trace.Merge(rec.Spans()).Render(64)) // timeline
//	trace.WriteDOT(w, rec.Spans())                  // Graphviz
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"mca/internal/action"
	"mca/internal/ids"
	"mca/internal/phase"
)

// RoundKind classifies one coordinator fan-out round of the commit
// protocol (internal/dist): each round is one concurrent broadcast to
// the round's participants.
type RoundKind string

// Round kinds emitted by the distributed commit protocol.
const (
	// RoundPrepare is two-phase commit phase 1.
	RoundPrepare RoundKind = "prepare"
	// RoundCommit is two-phase commit phase 2 (completion).
	RoundCommit RoundKind = "commit"
	// RoundAbort is the abort broadcast.
	RoundAbort RoundKind = "abort"
	// RoundRecover is a coordinator recovery re-drive of completion.
	RoundRecover RoundKind = "recover"
	// RoundStructure is a distributed structure end/cancel broadcast.
	RoundStructure RoundKind = "structure"
	// RoundCommit1 is a one-phase commit: the single participant of a
	// transaction is handed the decision and answers with it.
	RoundCommit1 RoundKind = "commit1"
	// RoundRelease is a standalone batch of releases: transactions that
	// committed in one step and whose participants found no later invoke
	// to carry the word.
	RoundRelease RoundKind = "release"
)

// RoundEvent is the outcome of one coordinator fan-out round.
type RoundEvent struct {
	Kind RoundKind
	// Txn is the distributed action (or structure) the round belongs
	// to.
	Txn ids.ActionID
	// Trace is the round's own span identity within the distributed
	// trace, and ParentSpan the span that caused the round (the
	// transaction's root span). Zero when the transaction is untraced.
	Trace      Context
	ParentSpan uint64
	// Participants is how many nodes the round addressed, OK how many
	// answered successfully (for prepare: voted yes).
	Participants int
	OK           int
	// Parallel reports whether the round fanned out concurrently.
	Parallel bool
	Start    time.Time
	Duration time.Duration
	// Err is the round's first failure, nil when every call succeeded.
	Err error
}

// RoundObserver consumes commit-protocol round outcomes; install one on
// dist.Manager to thread them into a Recorder.
type RoundObserver func(RoundEvent)

// Recorder collects runtime events. Install with:
//
//	rec := trace.NewRecorder()
//	rt := action.NewRuntime(action.WithObserver(rec.Observe))
//
// Commit-protocol rounds are recorded separately via ObserveRound
// (install rec.ObserveRound on a dist.Manager).
type Recorder struct {
	mu     sync.Mutex
	events []action.Event
	rounds []RoundEvent
	labels map[ids.ActionID]string
	// node stamps exported spans with the owning node (SetNode).
	node ids.NodeID
	// binds maps actions to their distributed-trace identity
	// (StartTrace/JoinTrace, plus lazy inheritance at export time).
	binds map[ids.ActionID]traceBinding
	// extras are synthetic spans recorded directly (rounds already
	// flow through ObserveRound; RPC client/server spans land here).
	extras []Span

	// Tail sampling (SetSampler). While a trace's root is undecided
	// its observations buffer in pending, keyed by TraceID; the
	// decision either flushes the buffer into the main stores above or
	// discards it. actionTrace routes events to buffers (an action's
	// descendants share its trace); unrouted parks begin events that
	// arrive before the action is bound (dist binds an action right
	// after the runtime creates it, so the root's own begin always
	// lands here first).
	sampler      *Sampler
	pending      map[uint64]*txnBuffer
	pendingOrder []uint64
	actionTrace  map[ids.ActionID]uint64
	unrouted     map[ids.ActionID][]action.Event
}

// txnBuffer holds one undecided transaction's observations.
type txnBuffer struct {
	events []action.Event
	rounds []RoundEvent
	extras []Span
	// rootBegin is the begin time of the locally-started trace root
	// (StartTrace), the basis of the sampling decision's duration.
	rootBegin time.Time
	haveBegin bool
}

// maxPendingTraces bounds a recorder's undecided buffers: a trace whose
// root never completes (crashed coordinator) must not pin its spans
// forever. Eviction drops the stale buffer, counted by
// mca_trace_sampler_evicted_total.
const maxPendingTraces = 1024

// traceBinding is an action's distributed-trace identity: its own span
// context plus the (possibly remote) parent span.
type traceBinding struct {
	tc     Context
	parent uint64
}

// NewRecorder builds an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		labels: make(map[ids.ActionID]string),
		binds:  make(map[ids.ActionID]traceBinding),
	}
}

// SetNode stamps every span this recorder exports with the given node
// identifier. Call it once at wiring time (node.WithTracer does).
func (r *Recorder) SetNode(n ids.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.node = n
}

// SetSampler installs a tail sampler: from now on, observations for
// traced transactions buffer per trace and are exported only if the
// sampler keeps the transaction. Share one Sampler across every
// recorder of a cluster — the trace root's recorder decides, the rest
// follow the published decision. Install at wiring time, before events
// flow.
func (r *Recorder) SetSampler(s *Sampler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sampler = s
	if s != nil && r.pending == nil {
		r.pending = make(map[uint64]*txnBuffer)
		r.actionTrace = make(map[ids.ActionID]uint64)
		r.unrouted = make(map[ids.ActionID][]action.Event)
	}
}

// StartTrace makes the action the root of a fresh distributed trace
// and returns its span context. Used by the coordinator when a
// distributed transaction begins.
func (r *Recorder) StartTrace(id ids.ActionID) Context {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.binds[id]; ok {
		return b.tc
	}
	tc := NewRoot()
	r.binds[id] = traceBinding{tc: tc}
	phase.Bind(id, tc.TraceID)
	r.routeBoundLocked(id, tc.TraceID, true)
	return tc
}

// JoinTrace links the action into an existing distributed trace as a
// child of the given remote parent span, returning the action's own
// span context. The first binding for an action wins: retransmitted
// joins (duplicate RPC deliveries) are no-ops, so one logical action
// never acquires two identities.
func (r *Recorder) JoinTrace(id ids.ActionID, parent Context) Context {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.binds[id]; ok {
		return b.tc
	}
	tc := parent.Child()
	r.binds[id] = traceBinding{tc: tc, parent: parent.SpanID}
	phase.Bind(id, tc.TraceID)
	r.routeBoundLocked(id, tc.TraceID, false)
	return tc
}

// routeBoundLocked records a fresh action→trace route and moves any
// parked pre-binding events (the action's begin precedes its
// StartTrace/JoinTrace call) into the trace's buffer. root marks a
// locally-started trace root, whose begin time seeds the sampling
// decision.
func (r *Recorder) routeBoundLocked(id ids.ActionID, trace uint64, root bool) {
	if r.sampler == nil || trace == 0 {
		return
	}
	r.actionTrace[id] = trace
	parked := r.unrouted[id]
	if len(parked) == 0 && !root {
		return
	}
	delete(r.unrouted, id)
	if keep, ok := r.sampler.Decision(trace); ok {
		// Late rebinding of a decided trace (duplicate join after the
		// decision): follow it.
		if keep {
			r.events = append(r.events, parked...)
		}
		return
	}
	buf := r.bufferLocked(trace)
	for _, ev := range parked {
		if root && ev.Kind == action.EventBegin && ev.Action == id {
			buf.rootBegin = ev.Time
			buf.haveBegin = true
		}
		buf.events = append(buf.events, ev)
	}
}

// bufferLocked returns (creating if needed) the trace's pending buffer,
// evicting the oldest undecided buffer when over the cap.
func (r *Recorder) bufferLocked(trace uint64) *txnBuffer {
	if buf, ok := r.pending[trace]; ok {
		return buf
	}
	for len(r.pending) >= maxPendingTraces && len(r.pendingOrder) > 0 {
		old := r.pendingOrder[0]
		r.pendingOrder = r.pendingOrder[1:]
		if _, ok := r.pending[old]; ok {
			delete(r.pending, old)
			phase.Discard(old)
			samplerEvicted.Inc()
		}
	}
	buf := &txnBuffer{}
	r.pending[trace] = buf
	r.pendingOrder = append(r.pendingOrder, trace)
	return buf
}

// drainLocked applies a published decision to the trace's pending
// buffer: flush into the main stores, or discard along with the
// trace's phase ledger.
func (r *Recorder) drainLocked(trace uint64, keep bool) {
	buf, ok := r.pending[trace]
	if !ok {
		if !keep {
			phase.Discard(trace)
		}
		return
	}
	delete(r.pending, trace)
	if keep {
		r.events = append(r.events, buf.events...)
		r.rounds = append(r.rounds, buf.rounds...)
		r.extras = append(r.extras, buf.extras...)
	} else {
		phase.Discard(trace)
	}
}

// traceOfEventLocked routes an event to its trace: directly when the
// action is bound or already routed, by inheritance when its parent is.
func (r *Recorder) traceOfEventLocked(ev action.Event) uint64 {
	if t, ok := r.actionTrace[ev.Action]; ok {
		return t
	}
	if b, ok := r.binds[ev.Action]; ok {
		r.actionTrace[ev.Action] = b.tc.TraceID
		return b.tc.TraceID
	}
	if ev.Parent != 0 && ev.Parent != ev.Action {
		if t, ok := r.actionTrace[ev.Parent]; ok {
			r.actionTrace[ev.Action] = t
			return t
		}
		if b, ok := r.binds[ev.Parent]; ok {
			r.actionTrace[ev.Action] = b.tc.TraceID
			return b.tc.TraceID
		}
	}
	return 0
}

// ContextOf returns the action's distributed-trace identity, if it was
// bound with StartTrace or JoinTrace (or inherited during an export).
func (r *Recorder) ContextOf(id ids.ActionID) (Context, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.binds[id]
	return b.tc, ok
}

// AddSpan records a synthetic (non-action) span — an RPC call or any
// other timed unit the action runtime does not know about. The span is
// exported alongside the reconstructed action spans.
func (r *Recorder) AddSpan(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sampler == nil || s.TraceID == 0 {
		r.extras = append(r.extras, s)
		return
	}
	if keep, ok := r.sampler.Decision(s.TraceID); ok {
		r.drainLocked(s.TraceID, keep)
		if keep {
			r.extras = append(r.extras, s)
		}
		return
	}
	buf := r.bufferLocked(s.TraceID)
	buf.extras = append(buf.extras, s)
}

// Observe implements action.Observer.
func (r *Recorder) Observe(ev action.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sampler == nil {
		r.events = append(r.events, ev)
		return
	}
	tid := r.traceOfEventLocked(ev)
	if tid == 0 {
		if ev.Kind == action.EventBegin {
			// Not yet routable: either an untraced action, or a trace
			// root whose StartTrace/JoinTrace call is imminent. Park
			// until one or the other resolves.
			r.unrouted[ev.Action] = append(r.unrouted[ev.Action], ev)
			return
		}
		// The action ended without ever being traced: it is not
		// subject to tail sampling, pass it (and its parked begin)
		// straight through.
		if parked, ok := r.unrouted[ev.Action]; ok {
			r.events = append(r.events, parked...)
			delete(r.unrouted, ev.Action)
		}
		r.events = append(r.events, ev)
		return
	}
	if keep, ok := r.sampler.Decision(tid); ok {
		r.drainLocked(tid, keep)
		if keep {
			r.events = append(r.events, ev)
		}
		return
	}
	buf := r.bufferLocked(tid)
	if ev.Kind == action.EventBegin {
		if b, ok := r.binds[ev.Action]; ok && b.parent == 0 && !buf.haveBegin {
			buf.rootBegin = ev.Time
			buf.haveBegin = true
		}
		buf.events = append(buf.events, ev)
		return
	}
	buf.events = append(buf.events, ev)
	if ev.Kind == action.EventCommit || ev.Kind == action.EventAbort {
		if b, ok := r.binds[ev.Action]; ok && b.parent == 0 && b.tc.TraceID == tid {
			// A locally-started trace root completed: this recorder
			// owns the sampling decision.
			var d time.Duration
			if buf.haveBegin {
				d = ev.Time.Sub(buf.rootBegin)
			}
			keep := r.sampler.decide(tid, d, ev.Kind == action.EventAbort)
			r.drainLocked(tid, keep)
		}
	}
}

// ObserveRound implements RoundObserver: it records one commit-protocol
// round outcome.
func (r *Recorder) ObserveRound(ev RoundEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tid := ev.Trace.TraceID
	if r.sampler == nil || tid == 0 {
		r.rounds = append(r.rounds, ev)
		return
	}
	if keep, ok := r.sampler.Decision(tid); ok {
		r.drainLocked(tid, keep)
		if keep {
			r.rounds = append(r.rounds, ev)
		}
		return
	}
	buf := r.bufferLocked(tid)
	buf.rounds = append(buf.rounds, ev)
}

// Rounds returns a copy of the recorded round outcomes in arrival
// order.
func (r *Recorder) Rounds() []RoundEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RoundEvent, len(r.rounds))
	copy(out, r.rounds)
	return out
}

// RoundSummary is a per-kind round count. It prints deterministically:
// map iteration order would otherwise leak into test output and
// examples.
type RoundSummary map[RoundKind]int

// String renders the counts sorted by kind name, e.g.
// "commit=2 prepare=2".
func (s RoundSummary) String() string {
	kinds := make([]string, 0, len(s))
	for k := range s {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	var sb strings.Builder
	for i, k := range kinds {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%d", k, s[RoundKind(k)])
	}
	return sb.String()
}

// RoundSummary returns per-kind round counts, for quick assertions.
func (r *Recorder) RoundSummary() RoundSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(RoundSummary)
	for _, ev := range r.rounds {
		out[ev.Kind]++
	}
	return out
}

// Label names an action in its exported span (default: its id).
func (r *Recorder) Label(id ids.ActionID, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.labels[id] = name
}

// Events returns a copy of the recorded events in arrival order.
func (r *Recorder) Events() []action.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]action.Event, len(r.events))
	copy(out, r.events)
	return out
}

// Summary is a per-kind event count. Like RoundSummary it prints
// deterministically.
type Summary map[action.EventKind]int

// String renders the counts in lifecycle order (begin, commit, abort),
// e.g. "begin=3 commit=2 abort=1".
func (s Summary) String() string {
	kinds := make([]action.EventKind, 0, len(s))
	for k := range s {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	var sb strings.Builder
	for i, k := range kinds {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%v=%d", k, s[k])
	}
	return sb.String()
}

// Summary returns per-kind event counts, for quick assertions.
func (r *Recorder) Summary() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Summary)
	for _, ev := range r.events {
		out[ev.Kind]++
	}
	return out
}
