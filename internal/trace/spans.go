// Structured span export: the machine-readable counterpart to
// Tree.Render. One Span per action, with parent identifier, colours, outcome and
// timestamps, serialized as JSON Lines — one object per line, so
// streams concatenate and external tooling (jq, the experiment
// harness) can consume them without a framing parser.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"mca/internal/action"
	"mca/internal/colour"
	"mca/internal/ids"
	"mca/internal/phase"
)

// Span is one exported unit of timed work: an action's lifetime, a
// commit-protocol round, or an RPC call. Action spans link locally via
// ID/Parent; cross-node causality links via the distributed-trace
// fields (TraceID/SpanID/ParentSpanID), which the merge logic prefers
// when present.
type Span struct {
	// ID and Parent identify the action in the node-local tree; Parent
	// is zero for top-level actions, both are zero for synthetic spans
	// (rounds, RPCs).
	ID     ids.ActionID `json:"id,omitempty"`
	Parent ids.ActionID `json:"parent,omitempty"`
	// Kind classifies the span: "" for actions, "round.<kind>" for
	// commit-protocol fan-out rounds, "rpc.client"/"rpc.server" for RPC
	// calls.
	Kind string `json:"kind,omitempty"`
	// Node is the exporting node, when the recorder is node-bound
	// (Recorder.SetNode).
	Node ids.NodeID `json:"node,omitempty"`
	// TraceID, SpanID and ParentSpanID are the span's distributed-trace
	// identity (see Context); zero when the work was never traced
	// across nodes. ParentSpanID may name a span exported by a
	// different node.
	TraceID      uint64 `json:"traceId,omitempty"`
	SpanID       uint64 `json:"spanId,omitempty"`
	ParentSpanID uint64 `json:"parentSpan,omitempty"`
	// Label is the Recorder label, when one was set.
	Label string `json:"label,omitempty"`
	// Colours is the action's colour set, ascending.
	Colours []colour.Colour `json:"colours,omitempty"`
	// Outcome is "committed", "aborted" or "active" (no end event
	// recorded); RPC spans use "ok"/"error".
	Outcome string    `json:"outcome"`
	Begin   time.Time `json:"begin"`
	// End is zero while the action is still active.
	End time.Time `json:"end,omitzero"`
	// Phases is the transaction's accumulated wait breakdown in
	// nanoseconds (internal/phase), attached to trace-root spans at
	// export: lock-wait, WAL force-wait, rpc client/server time, serve
	// queueing and round wall time. Raw sums overlap; tracecat's
	// -attrib derives the exclusive view.
	Phases map[string]int64 `json:"phases,omitempty"`
}

// Span outcomes.
const (
	OutcomeCommitted = "committed"
	OutcomeAborted   = "aborted"
	OutcomeActive    = "active"
	// OutcomeOK and OutcomeError are the outcomes of RPC spans.
	OutcomeOK    = "ok"
	OutcomeError = "error"
)

// Context returns the span's distributed-trace identity (zero when
// untraced).
func (s Span) Context() Context {
	return Context{TraceID: s.TraceID, SpanID: s.SpanID}
}

// Spans reconstructs one Span per recorded action, ordered by begin
// time (ties by id). It is the package's one events→spans
// reconstruction: timelines (Merge + Tree.Render), DOT graphs and JSON
// Lines exports all start here. Actions with no recorded begin
// (observer attached mid-run) get a zero-length span at their end
// event; a begin naming the action as its own parent makes it a root.
//
// Distributed-trace identities are resolved on the way out: actions
// bound with StartTrace/JoinTrace carry their identity, and their
// local descendants inherit the TraceID with fresh span identifiers
// (persisted, so repeated exports agree). Synthetic spans (AddSpan)
// and traced commit-protocol rounds (ObserveRound events with a valid
// Trace) are appended after the action spans, in the same time order.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sampler != nil {
		// Apply decisions this recorder has not yet seen an event for
		// (a participant whose last span arrived before the
		// coordinator decided). Iteration follows insertion order so
		// repeated exports append identically.
		for _, tid := range r.pendingOrder {
			if _, ok := r.pending[tid]; !ok {
				continue
			}
			if keep, ok := r.sampler.Decision(tid); ok {
				r.drainLocked(tid, keep)
			}
		}
	}
	events := r.events
	labels := r.labels

	index := make(map[ids.ActionID]int, len(events))
	var spans []Span
	for _, ev := range events {
		switch ev.Kind {
		case action.EventBegin:
			if _, dup := index[ev.Action]; dup {
				continue
			}
			s := Span{
				ID:      ev.Action,
				Colours: ev.Colours.Slice(),
				Outcome: OutcomeActive,
				Begin:   ev.Time,
			}
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
				spans = append(spans, Span{
					ID:      ev.Action,
					Colours: ev.Colours.Slice(),
					Begin:   ev.Time,
				})
			}
			spans[i].End = ev.Time
			if ev.Kind == action.EventAbort {
				spans[i].Outcome = OutcomeAborted
			} else {
				spans[i].Outcome = OutcomeCommitted
			}
		}
	}
	for i := range spans {
		spans[i].Label = labels[spans[i].ID]
	}
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].Begin.Equal(spans[j].Begin) {
			return spans[i].Begin.Before(spans[j].Begin)
		}
		return spans[i].ID < spans[j].ID
	})

	// Resolve trace identities parent-first (the sort guarantees a
	// parent sorts before its children: it began earlier, or ties and
	// has the smaller monotonic id). Inherited bindings are persisted
	// in r.binds so a second export assigns the same span identifiers.
	for i := range spans {
		s := &spans[i]
		if b, ok := r.binds[s.ID]; ok {
			s.TraceID, s.SpanID, s.ParentSpanID = b.tc.TraceID, b.tc.SpanID, b.parent
			if b.parent == 0 && b.tc.TraceID != 0 {
				// Trace root: carry the transaction's phase breakdown.
				s.Phases = phase.Snapshot(b.tc.TraceID)
			}
			continue
		}
		if s.Parent == 0 {
			continue
		}
		pb, ok := r.binds[s.Parent]
		if !ok {
			continue
		}
		b := traceBinding{tc: pb.tc.Child(), parent: pb.tc.SpanID}
		r.binds[s.ID] = b
		s.TraceID, s.SpanID, s.ParentSpanID = b.tc.TraceID, b.tc.SpanID, b.parent
	}

	// Traced commit-protocol rounds become synthetic spans.
	for _, ev := range r.rounds {
		if !ev.Trace.Valid() {
			continue
		}
		outcome := OutcomeCommitted
		if ev.Err != nil {
			outcome = OutcomeAborted
		}
		spans = append(spans, Span{
			Kind:         "round." + string(ev.Kind),
			Label:        fmt.Sprintf("%s %d/%d", ev.Kind, ev.OK, ev.Participants),
			TraceID:      ev.Trace.TraceID,
			SpanID:       ev.Trace.SpanID,
			ParentSpanID: ev.ParentSpan,
			Outcome:      outcome,
			Begin:        ev.Start,
			End:          ev.Start.Add(ev.Duration),
		})
	}
	spans = append(spans, r.extras...)
	if r.node != 0 {
		for i := range spans {
			if spans[i].Node == 0 {
				spans[i].Node = r.node
			}
		}
	}
	return spans
}

// WriteSpans writes spans as JSON Lines: one span object per line.
func WriteSpans(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("trace: encode span %v: %w", s.ID, err)
		}
	}
	return bw.Flush()
}

// WriteSpans exports the recorder's reconstructed spans as JSON Lines.
func (r *Recorder) WriteSpans(w io.Writer) error {
	return WriteSpans(w, r.Spans())
}

// ReadSpans decodes a JSON Lines span stream, as written by WriteSpans.
// Blank lines are skipped.
func ReadSpans(r io.Reader) ([]Span, error) {
	var spans []Span
	dec := json.NewDecoder(r)
	for {
		var s Span
		if err := dec.Decode(&s); err == io.EOF {
			return spans, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: decode span %d: %w", len(spans), err)
		}
		spans = append(spans, s)
	}
}
