package trace

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/clock"
	"mca/internal/colour"
	"mca/internal/ids"
)

// refRecorder is the reference model of the Recorder: it logs every
// action event and rebuilds the spans at export, resolving the trace
// identities that actions inherit from their bound ancestors there and
// then. A lock wait is a span of the trace its action is bound to when
// it is reported, if any. It does not sample; sampling is modelled as a
// filter on its export (refExport).
type refRecorder struct {
	node   ids.NodeID
	events []action.Event
	labels map[ids.ActionID]string
	binds  map[ids.ActionID]traceBinding
	extras []Span
}

func newRefRecorder(node ids.NodeID) *refRecorder {
	return &refRecorder{node: node, labels: make(map[ids.ActionID]string), binds: make(map[ids.ActionID]traceBinding)}
}

func (r *refRecorder) Observe(ev action.Event) {
	if ev.Kind != action.EventLockWait {
		r.events = append(r.events, ev)
	} else if b, ok := r.binds[ev.Action]; ok {
		r.extras = append(r.extras, Span{Kind: KindLockWait, TraceID: b.tc.TraceID, SpanID: NewSpanID(), ParentSpanID: b.tc.SpanID,
			Outcome: OutcomeOK, Begin: ev.Time.Add(-ev.Waited), End: ev.Time})
	}
}
func (r *refRecorder) AddSpan(s Span)                     { r.extras = append(r.extras, s) }
func (r *refRecorder) Label(id ids.ActionID, name string) { r.labels[id] = name }

func (r *refRecorder) StartTrace(id ids.ActionID) Context {
	if b, ok := r.binds[id]; ok {
		return b.tc
	}
	tc := NewRoot()
	r.binds[id] = traceBinding{tc: tc}
	return tc
}

func (r *refRecorder) JoinTrace(id ids.ActionID, parent Context) Context {
	if b, ok := r.binds[id]; ok {
		return b.tc
	}
	tc := parent.Child()
	r.binds[id] = traceBinding{tc: tc, parent: parent.SpanID}
	return tc
}

// Spans rebuilds one span per action from the event log, sorted by
// begin time (ties by id), then appends the added spans.
func (r *refRecorder) Spans() []Span {
	index := make(map[ids.ActionID]int)
	var spans []Span
	for _, ev := range r.events {
		switch ev.Kind {
		case action.EventBegin:
			if _, dup := index[ev.Action]; dup {
				continue
			}
			s := Span{ID: ev.Action, Colours: ev.Colours.Slice(), Outcome: OutcomeActive, Begin: ev.Time}
			if ev.Parent != ev.Action {
				s.Parent = ev.Parent
			}
			index[ev.Action] = len(spans)
			spans = append(spans, s)
		case action.EventCommit, action.EventAbort:
			i, ok := index[ev.Action]
			if !ok {
				i = len(spans)
				index[ev.Action] = i
				spans = append(spans, Span{ID: ev.Action, Colours: ev.Colours.Slice(), Begin: ev.Time})
			}
			spans[i].End = ev.Time
			spans[i].Outcome = OutcomeCommitted
			if ev.Kind == action.EventAbort {
				spans[i].Outcome = OutcomeAborted
			}
		}
	}
	for i := range spans {
		spans[i].Label = r.labels[spans[i].ID]
	}
	sort := func(a, b Span) int {
		if c := a.Begin.Compare(b.Begin); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	}
	slices.SortFunc(spans, sort)
	// Parents sort before their children, so one pass resolves chains;
	// inherited bindings persist, so a second export agrees.
	for i := range spans {
		s := &spans[i]
		if b, ok := r.binds[s.ID]; ok {
			s.TraceID, s.SpanID, s.ParentSpanID = b.tc.TraceID, b.tc.SpanID, b.parent
			continue
		}
		if pb, ok := r.binds[s.Parent]; ok && s.Parent != 0 {
			b := traceBinding{tc: pb.tc.Child(), parent: pb.tc.SpanID}
			r.binds[s.ID] = b
			s.TraceID, s.SpanID, s.ParentSpanID = b.tc.TraceID, b.tc.SpanID, b.parent
		}
	}
	spans = append(spans, r.extras...)
	for i := range spans {
		if spans[i].Node == 0 {
			spans[i].Node = r.node
		}
	}
	return spans
}

// streamDriver feeds one seeded random stream of runtime events, trace
// bindings, added spans and labels to a Recorder and to the reference
// model, under a fake clock, and compares every export.
type streamDriver struct {
	t       *testing.T
	rng     *rand.Rand
	clk     *clock.Fake
	rec     *Recorder
	ref     *refRecorder
	refSamp *Sampler // decides the reference's traces as the recorder's sampler does its own

	all      []ids.ActionID // every action begun, in begin order
	open     []ids.ActionID // open actions, in begin order
	parent   map[ids.ActionID]ids.ActionID
	begun    map[ids.ActionID]time.Time
	ended    map[ids.ActionID]bool // has an ended descendant: no longer bindable
	bound    []ids.ActionID        // explicitly bound actions, open or ended
	ctx      map[ids.ActionID][2]Context
	roots    map[ids.ActionID]bool // bound with StartTrace
	remote   []Context             // remote parents handed to JoinTrace
	extraSeq int
}

func (d *streamDriver) emit(kind action.EventKind, id, parent ids.ActionID, cs colour.Set) {
	ev := action.Event{Kind: kind, Time: d.clk.Now(), Action: id, Parent: parent, Colours: cs}
	d.rec.Observe(ev)
	d.ref.Observe(ev)
}

func (d *streamDriver) pick(from []ids.ActionID, ok func(ids.ActionID) bool) (ids.ActionID, bool) {
	var cands []ids.ActionID
	for _, id := range from {
		if ok(id) {
			cands = append(cands, id)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	return cands[d.rng.IntN(len(cands))], true
}

// boundAbove reports whether the action or an ancestor was bound.
func (d *streamDriver) boundAbove(id ids.ActionID) bool {
	for ; id != 0; id = d.parent[id] {
		if _, ok := d.ctx[id]; ok {
			return true
		}
	}
	return false
}

func (d *streamDriver) hasOpenChild(id ids.ActionID) bool {
	return slices.ContainsFunc(d.open, func(c ids.ActionID) bool { return d.parent[c] == id })
}

// step performs one random operation.
func (d *streamDriver) step() {
	if d.rng.IntN(3) == 0 {
		d.clk.Advance(time.Duration(d.rng.IntN(5)) * time.Millisecond)
	}
	switch op := d.rng.IntN(100); {
	case op < 30: // begin: top-level, nested, or (rarely) self-parented
		id := ids.NewActionID()
		var parent ids.ActionID
		if len(d.open) > 0 && d.rng.IntN(3) > 0 {
			parent = d.open[d.rng.IntN(len(d.open))]
		}
		d.parent[id], d.begun[id] = parent, d.clk.Now()
		evParent := parent
		if parent == 0 && d.rng.IntN(20) == 0 {
			evParent = id
		}
		d.emit(action.EventBegin, id, evParent, colour.NewSet(colour.Fresh()))
		d.open = append(d.open, id)
		d.all = append(d.all, id)
	case op < 55: // end an action none of whose children is open
		id, ok := d.pick(d.open, func(id ids.ActionID) bool { return !d.hasOpenChild(id) })
		if !ok {
			return
		}
		aborted := d.rng.IntN(3) == 0
		kind := action.EventCommit
		if aborted {
			kind = action.EventAbort
		}
		d.emit(kind, id, d.parent[id], colour.Set{})
		d.open = slices.DeleteFunc(d.open, func(o ids.ActionID) bool { return o == id })
		for a := d.parent[id]; a != 0; a = d.parent[a] {
			d.ended[a] = true
		}
		if d.roots[id] {
			d.refSamp.decide(d.ctx[id][1].TraceID, d.clk.Now().Sub(d.begun[id]), aborted)
		}
	case op < 58: // an end whose begin was never seen
		d.emit(action.EventCommit, ids.NewActionID(), 0, colour.NewSet(colour.Fresh()))
	case op < 70: // bind an open, unbound action before any descendant ended
		id, ok := d.pick(d.open, func(id ids.ActionID) bool {
			_, bound := d.ctx[id]
			return !bound && !d.ended[id]
		})
		if !ok {
			return
		}
		var pair [2]Context
		if d.rng.IntN(2) == 0 {
			// An export may have given the action an inherited identity,
			// which StartTrace then returns: it is a root only if not.
			_, inherited := d.ref.binds[id]
			pair = [2]Context{d.rec.StartTrace(id), d.ref.StartTrace(id)}
			d.roots[id] = !inherited
		} else {
			remote := NewRoot()
			d.remote = append(d.remote, remote)
			pair = [2]Context{d.rec.JoinTrace(id, remote), d.ref.JoinTrace(id, remote)}
		}
		d.ctx[id] = pair
		d.bound = append(d.bound, id)
	case op < 80: // add a span: untraced, or under a bound action
		d.extraSeq++
		s := Span{Kind: "rpc.client", Label: fmt.Sprintf("extra-%d", d.extraSeq), Outcome: OutcomeOK,
			Begin: d.clk.Now().Add(-time.Millisecond), End: d.clk.Now()}
		if len(d.bound) == 0 || d.rng.IntN(3) == 0 {
			d.rec.AddSpan(s)
			d.ref.AddSpan(s)
			return
		}
		pair := d.ctx[d.bound[d.rng.IntN(len(d.bound))]]
		for i, add := range []func(Span){d.rec.AddSpan, d.ref.AddSpan} {
			c := pair[i].Child()
			s.TraceID, s.SpanID, s.ParentSpanID = c.TraceID, c.SpanID, pair[i].SpanID
			add(s)
		}
	case op < 85: // an open action's lock wait: bound, or with no bound ancestor
		id, ok := d.pick(d.open, func(id ids.ActionID) bool {
			_, bound := d.ctx[id]
			return bound || !d.boundAbove(id)
		})
		if !ok {
			return
		}
		d.extraSeq++
		ev := action.Event{Kind: action.EventLockWait, Time: d.clk.Now(), Action: id, Waited: time.Duration(d.extraSeq) * time.Microsecond}
		d.rec.Observe(ev)
		d.ref.Observe(ev)
	case op < 90: // a remote coordinator publishes its decision
		if len(d.remote) == 0 {
			return
		}
		tid := d.remote[d.rng.IntN(len(d.remote))].TraceID
		dur, aborted := time.Duration(d.rng.IntN(10))*time.Millisecond, d.rng.IntN(4) == 0
		if d.rec.sampler != nil {
			d.rec.sampler.decide(tid, dur, aborted)
		}
		d.refSamp.decide(tid, dur, aborted)
	case op < 95: // label an action, open or not
		if len(d.all) == 0 {
			return
		}
		id := d.all[d.rng.IntN(len(d.all))]
		name := fmt.Sprintf("L%d", d.rng.IntN(1000))
		d.rec.Label(id, name)
		d.ref.Label(id, name)
	default:
		d.compare()
	}
}

// refExport is the reference's export as a sampling recorder shows it:
// a traced span only once its trace is kept.
func (d *streamDriver) refExport() []Span {
	spans := d.ref.Spans()
	if d.rec.sampler == nil {
		return spans
	}
	return slices.DeleteFunc(spans, func(s Span) bool {
		keep, _ := d.refSamp.Decision(s.TraceID)
		return s.TraceID != 0 && !keep
	})
}

// canonical orders the added spans by label and duration (a sampler
// stores a kept trace's spans when it is decided, not as they were
// added; lock waits differ in duration alone) and renames
// trace and span identifiers in order of first appearance, so two
// exports compare although each recorder drew its own identifiers.
func canonical(spans []Span) []Span {
	n := slices.IndexFunc(spans, func(s Span) bool { return s.ID == 0 })
	if n < 0 {
		n = len(spans)
	}
	slices.SortStableFunc(spans[n:], func(a, b Span) int {
		return cmp.Or(cmp.Compare(a.Label, b.Label), cmp.Compare(a.End.Sub(a.Begin), b.End.Sub(b.Begin)))
	})
	traces, spanIDs := map[uint64]uint64{0: 0}, map[uint64]uint64{0: 0}
	rename := func(m map[uint64]uint64, v uint64) uint64 {
		if r, ok := m[v]; ok {
			return r
		}
		m[v] = uint64(len(m))
		return m[v]
	}
	for i := range spans {
		s := &spans[i]
		s.TraceID = rename(traces, s.TraceID)
		s.SpanID = rename(spanIDs, s.SpanID)
		s.ParentSpanID = rename(spanIDs, s.ParentSpanID)
	}
	return spans
}

func (d *streamDriver) compare() {
	d.t.Helper()
	got, want := canonical(d.rec.Spans()), canonical(d.refExport())
	if !reflect.DeepEqual(got, want) {
		for i := 0; i < max(len(got), len(want)); i++ {
			var g, w Span
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if !reflect.DeepEqual(g, w) {
				d.t.Fatalf("export differs from the reference at span %d of %d/%d:\n got %+v\nwant %+v", i, len(got), len(want), g, w)
			}
		}
	}
}

// TestRecorderMatchesReference drives seeded random streams — nested
// begin/commit/abort, StartTrace/JoinTrace before and after children
// begin, added spans, labels, remote decisions, open actions at export —
// through the Recorder and the reference model, with and without a
// sampler, and requires equal exports throughout.
//
// An action is bound only while none of its descendants has ended, and
// an action ends only after its children: the Recorder fixes a span's
// trace identity when it ends, the reference at every export.
func TestRecorderMatchesReference(t *testing.T) {
	for _, sampled := range []bool{false, true} {
		for seed := uint64(1); seed <= 40; seed++ {
			t.Run(fmt.Sprintf("sampled=%v/seed=%d", sampled, seed), func(t *testing.T) {
				cfg := SamplerConfig{Threshold: 8 * time.Millisecond, KeepAborted: seed%2 == 0, BaselineN: 4, Seed: seed}
				node := ids.NodeID(seed)
				d := &streamDriver{
					t: t, rng: rand.New(rand.NewPCG(seed, 7)), clk: clock.NewFake(),
					rec: NewRecorder(), ref: newRefRecorder(node), refSamp: NewSampler(cfg),
					parent: make(map[ids.ActionID]ids.ActionID), begun: make(map[ids.ActionID]time.Time),
					ended: make(map[ids.ActionID]bool), ctx: make(map[ids.ActionID][2]Context),
					roots: make(map[ids.ActionID]bool),
				}
				d.rec.SetNode(node)
				if sampled {
					d.rec.SetSampler(NewSampler(cfg))
				}
				for range 400 {
					d.step()
				}
				d.compare()
				d.compare() // a second export agrees with the first
			})
		}
	}
}
