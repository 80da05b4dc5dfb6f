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

	"mca/internal/colour"
	"mca/internal/ids"
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
	// commit-protocol fan-out rounds, the Kind constants for the waits
	// Attribute reads.
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
	// Queued is, on an rpc.server span, how long the request waited
	// between arrival and its handler's start (Begin).
	Queued time.Duration `json:"queued,omitempty"`
}

// Kinds of the spans that record a wait, as Attribute reads them.
const (
	// KindRPCClient is an RPC call as its caller saw it: send to reply,
	// retransmissions, the wire and the remote handler included.
	KindRPCClient = "rpc.client"
	// KindRPCServer is an RPC handler's run; Queued is its wait before.
	KindRPCServer = "rpc.server"
	// KindLockWait is the time an action's lock request stayed blocked.
	KindLockWait = "lock.wait"
	// KindForce is the time a forced intention record took to become
	// durable: the group-commit window and the force itself.
	KindForce = "wal.force"
)

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

// Spans exports the recorded spans: action spans, open ones included
// as "active", ordered by begin time (ties by id), then every other span
// in the order it was stored. Labels are attached here, and times lose
// their monotonic reading, so that a span read back from a file is the
// span exported. Timelines (Merge + Tree.Render), DOT graphs
// and JSON Lines exports all start here.
//
// With a sampler, spans of a trace show once it is kept; an open action
// of an undecided trace waits like a finished one.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sampler != nil {
		// Apply decisions published since this recorder last stored a
		// span of the trace (a participant whose last span arrived
		// before the coordinator decided), in insertion order so that
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
	out := make([]Span, 0, len(r.spans)+len(r.open))
	for _, s := range r.spans {
		if s.ID != 0 {
			out = append(out, s)
		}
	}
	for _, o := range r.open {
		s := *o
		r.identifyLocked(&s)
		if r.sampler != nil && s.TraceID != 0 {
			if keep, _ := r.sampler.Decision(s.TraceID); !keep {
				continue
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Begin.Equal(out[j].Begin) {
			return out[i].Begin.Before(out[j].Begin)
		}
		return out[i].ID < out[j].ID
	})
	for _, s := range r.spans {
		if s.ID == 0 {
			out = append(out, s)
		}
	}
	for i := range out {
		s := &out[i]
		if l, ok := r.labels[s.ID]; ok {
			s.Label = l
		}
		s.Begin, s.End = s.Begin.Round(0), s.End.Round(0)
		if s.Node == 0 {
			s.Node = r.node
		}
	}
	return out
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

// WriteSpans exports the recorder's spans as JSON Lines.
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
