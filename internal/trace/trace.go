// Package trace records timed work as spans and renders them as the
// timeline diagrams the paper uses throughout (figs 1-15): one row per
// action, indented under its parent, with a bar spanning begin to
// commit/abort. It exists for debugging, teaching and the experiment
// harness — a cheap way to *see* a structure execute.
//
// A Recorder stores nothing but spans; everything drawn is drawn from
// them:
//
//	fmt.Print(trace.Merge(rec.Spans()).Render(64)) // timeline
//	trace.WriteDOT(w, rec.Spans())                  // Graphviz
package trace

import (
	"slices"
	"sync"

	"mca/internal/action"
	"mca/internal/ids"
)

// Recorder collects spans. Install with:
//
//	rec := trace.NewRecorder()
//	rt := action.NewRuntime(action.WithObserver(rec.Observe))
//
// An action's span opens at its begin event and is stored when the
// action commits or aborts, and a lock wait event of a traced action is
// a lock.wait span under it; other timed work (RPC calls,
// commit-protocol rounds, WAL forces and flushes) arrives finished,
// through AddSpan.
type Recorder struct {
	mu     sync.Mutex
	labels map[ids.ActionID]string
	// node stamps exported spans with the owning node (SetNode).
	node ids.NodeID
	// spans are the finished spans, in the order they were stored.
	spans []Span
	// open are the spans of actions that began and have not ended.
	open map[ids.ActionID]*Span
	// binds are the distributed-trace identities of actions whose span
	// has not ended: set by StartTrace/JoinTrace, or inherited from an
	// open ancestor (bindingLocked). An entry goes when its span ends.
	binds map[ids.ActionID]traceBinding

	// Tail sampling (SetSampler). A finished span of an undecided trace
	// waits in pending, keyed by TraceID, until the decision: then the
	// buffer joins spans, or is dropped. pendingOrder is insertion order, for eviction and
	// reproducible drains.
	sampler      *Sampler
	pending      map[uint64][]Span
	pendingOrder []uint64
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
		labels:  make(map[ids.ActionID]string),
		open:    make(map[ids.ActionID]*Span),
		binds:   make(map[ids.ActionID]traceBinding),
		pending: make(map[uint64][]Span),
	}
}

// SetNode stamps every span this recorder exports with the given node
// identifier. Call it once at wiring time (node.WithTracer does).
func (r *Recorder) SetNode(n ids.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.node = n
}

// SetSampler installs a tail sampler: from now on, spans of traced
// transactions buffer per trace and are exported only if the sampler
// keeps the transaction. Share one Sampler across every recorder of a
// cluster — the trace root's recorder decides, the rest follow the
// published decision. Install at wiring time, before spans flow.
func (r *Recorder) SetSampler(s *Sampler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sampler = s
}

// StartTrace makes the action the root of a fresh distributed trace
// and returns its span context. (A dist transaction owns no action at its
// coordinator: it records its root span itself, with AddSpan.)
func (r *Recorder) StartTrace(id ids.ActionID) Context {
	return r.bind(id, func() traceBinding { return traceBinding{tc: NewRoot()} })
}

// JoinTrace links the action into an existing distributed trace as a
// child of the given remote parent span, returning the action's own
// span context. The first binding for an action wins: retransmitted
// joins (duplicate RPC deliveries) are no-ops, so one logical action
// never acquires two identities.
func (r *Recorder) JoinTrace(id ids.ActionID, parent Context) Context {
	return r.bind(id, func() traceBinding { return traceBinding{tc: parent.Child(), parent: parent.SpanID} })
}

// bind gives an unbound action the identity fresh makes.
func (r *Recorder) bind(id ids.ActionID, fresh func() traceBinding) Context {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.binds[id]; ok {
		return b.tc
	}
	b := fresh()
	r.binds[id] = b
	return b.tc
}

// bindingLocked returns the action's trace identity: its own, or else a
// child of its nearest open ancestor's, kept in binds so that every
// later call (and export) agrees.
func (r *Recorder) bindingLocked(id ids.ActionID) (traceBinding, bool) {
	if b, ok := r.binds[id]; ok {
		return b, true
	}
	s := r.open[id]
	if s == nil || s.Parent == 0 {
		return traceBinding{}, false
	}
	pb, ok := r.bindingLocked(s.Parent)
	if !ok {
		return traceBinding{}, false
	}
	b := traceBinding{tc: pb.tc.Child(), parent: pb.tc.SpanID}
	r.binds[id] = b
	return b, true
}

// identifyLocked stamps an action's span with its trace identity.
func (r *Recorder) identifyLocked(s *Span) {
	if b, ok := r.bindingLocked(s.ID); ok {
		s.TraceID, s.SpanID, s.ParentSpanID = b.tc.TraceID, b.tc.SpanID, b.parent
	}
}

// Observe implements action.Observer: a begin opens the action's span,
// a commit or abort ends it. An action whose begin was never seen
// (observer attached mid-run) gets a zero-length span at its end; a
// begin naming the action as its own parent makes it a root. A lock
// wait of an action in a trace is a lock.wait span, a child of the
// action's; one outside any trace is not recorded.
func (r *Recorder) Observe(ev action.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ev.Kind == action.EventLockWait {
		if b, ok := r.bindingLocked(ev.Action); ok {
			r.storeLocked(Span{Kind: KindLockWait, TraceID: b.tc.TraceID, SpanID: NewSpanID(), ParentSpanID: b.tc.SpanID,
				Outcome: OutcomeOK, Begin: ev.Time.Add(-ev.Waited), End: ev.Time})
		}
		return
	}
	s := r.open[ev.Action]
	if ev.Kind == action.EventBegin {
		if s == nil {
			s = &Span{ID: ev.Action, Colours: ev.Colours.Slice(), Outcome: OutcomeActive, Begin: ev.Time}
			if ev.Parent != ev.Action {
				s.Parent = ev.Parent
			}
			r.open[ev.Action] = s
		}
		return
	}
	if s == nil {
		s = &Span{ID: ev.Action, Colours: ev.Colours.Slice(), Begin: ev.Time}
	}
	s.End, s.Outcome = ev.Time, OutcomeCommitted
	if ev.Kind == action.EventAbort {
		s.Outcome = OutcomeAborted
	}
	r.identifyLocked(s)
	delete(r.open, ev.Action)
	delete(r.binds, ev.Action)
	r.storeLocked(*s)
}

// AddSpan records a finished span of work the action runtime does not
// know about: an RPC call, a commit-protocol round, a WAL flush.
func (r *Recorder) AddSpan(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.storeLocked(s)
}

// storeLocked files a finished span: into spans when the recorder does
// not sample, the span is untraced or its trace is kept; into its
// trace's pending buffer while the trace is undecided; nowhere when the
// trace was dropped. A locally started trace root that ends decides.
func (r *Recorder) storeLocked(s Span) {
	tid := s.TraceID
	if r.sampler == nil || tid == 0 {
		r.spans = append(r.spans, s)
		return
	}
	if keep, ok := r.sampler.Decision(tid); ok {
		r.drainLocked(tid, keep)
		if keep {
			r.spans = append(r.spans, s)
		}
		return
	}
	buf, ok := r.pending[tid]
	if !ok {
		r.makeRoomLocked()
		r.pendingOrder = append(r.pendingOrder, tid)
	}
	r.pending[tid] = append(buf, s)
	if s.IsRoot() {
		r.drainLocked(tid, r.sampler.decide(tid, s.End.Sub(s.Begin), s.Outcome == OutcomeAborted))
	}
}

// makeRoomLocked evicts the oldest undecided buffers until a new one
// fits, and sheds pendingOrder's drained entries once they outnumber
// the cap.
func (r *Recorder) makeRoomLocked() {
	for len(r.pending) >= maxPendingTraces {
		old := r.pendingOrder[0]
		r.pendingOrder = r.pendingOrder[1:]
		if _, ok := r.pending[old]; ok {
			delete(r.pending, old)
			samplerEvicted.Inc()
		}
	}
	if len(r.pendingOrder) >= 2*maxPendingTraces {
		r.pendingOrder = slices.DeleteFunc(r.pendingOrder, func(tid uint64) bool {
			_, ok := r.pending[tid]
			return !ok
		})
	}
}

// drainLocked applies a published decision to the trace's pending
// buffer: keep it or discard it.
func (r *Recorder) drainLocked(trace uint64, keep bool) {
	if keep {
		r.spans = append(r.spans, r.pending[trace]...)
	}
	delete(r.pending, trace)
}

// Label names an action in its exported span (default: its id).
func (r *Recorder) Label(id ids.ActionID, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.labels[id] = name
}
