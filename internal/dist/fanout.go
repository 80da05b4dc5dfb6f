// Coordinator fan-out rounds: every remote round of the commit
// protocol (prepare, and the end messages of an abort, a structure's end
// and the flusher) is one broadcast to a set of participants. The round's
// RPCs are issued concurrently, by the caller and a bounded set of
// workers, so a round costs one round-trip — or, with crashed
// participants, one call timeout — instead of the sum over participants.
// Phase 1 additionally short-circuits: the first NO vote or error cancels
// the shared round context, stopping in-flight prepares from
// retransmitting.
package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mca/internal/flightrec"
	"mca/internal/ids"
	"mca/internal/trace"
)

// RoundKind classifies one coordinator fan-out round of the commit
// protocol: each round is one concurrent broadcast to the round's
// participants.
type RoundKind string

// Round kinds: metric labels, and span kinds after "round.".
const (
	// RoundPrepare is two-phase commit phase 1.
	RoundPrepare RoundKind = "prepare"
	// RoundAbort is the abort broadcast, of end messages.
	RoundAbort RoundKind = "abort"
	// RoundStructure is a distributed structure's end or cancel, one end
	// message per node with the commits still owed there on board.
	RoundStructure RoundKind = "structure"
	// RoundRelease is the flusher's end message: releases and commits
	// owed to a node that found no later invoke to carry them.
	RoundRelease RoundKind = "release"
)

// maxFanout bounds a round's concurrent RPCs. One leg per participant up
// to this limit keeps a wide commit from flooding the transport.
const maxFanout = 16

// errVotedNo distinguishes a deliberate NO vote from a transport
// failure inside a prepare round.
var errVotedNo = errors.New("dist: participant voted no")

// roundCall issues the round's RPC to one participant.
type roundCall func(ctx context.Context, target ids.NodeID) error

// roundResult is one participant's outcome in a fan-out round.
type roundResult struct {
	Node ids.NodeID
	Err  error
}

// fanout runs call against every target and reports per-participant
// results, positionally aligned with targets. Calls run concurrently,
// at most maxFanout at once: one on the caller's goroutine and the rest
// on workers; a round with one target runs on the caller's goroutine
// alone. When shortCircuit is set the first failure cancels the shared
// round context: in-flight calls stop retransmitting and return early,
// and not-yet-started calls are skipped (their result is the cancelled
// context's error). The round counts in the metrics under its kind and,
// on a traced node, is one span of kind "round.<kind>".
//
// tc, when valid, is the transaction's root span: the round runs under
// its own child span, injected into the calls' context so every RPC of
// the round links to it. The child is derived only with a tracer
// installed — the tracer is what exports the round span, and an
// exported-nowhere span on the wire would orphan the participant side
// of the trace. A round outside any trace is a root span.
func (m *Manager) fanout(ctx context.Context, kind RoundKind, txn ids.ActionID, tc trace.Context, targets []ids.NodeID, shortCircuit bool, call roundCall) []roundResult {
	if len(targets) == 0 {
		return nil
	}
	start := m.clk.Now()
	var roundTC trace.Context
	if tc.Valid() && m.tracer != nil {
		roundTC = tc.Child()
		ctx = trace.Inject(ctx, roundTC)
	}
	results := make([]roundResult, len(targets))

	if len(targets) == 1 {
		results[0] = roundResult{Node: targets[0], Err: call(ctx, targets[0])}
	} else {
		roundCtx := ctx
		var cancel context.CancelFunc
		if shortCircuit {
			roundCtx, cancel = context.WithCancel(ctx)
			defer cancel()
		}
		// Legs take the next target until none is left; the caller runs one.
		var next atomic.Int32
		leg := func() {
			for i := int(next.Add(1)) - 1; i < len(targets); i = int(next.Add(1)) - 1 {
				p := targets[i]
				if shortCircuit && roundCtx.Err() != nil {
					results[i] = roundResult{Node: p, Err: roundCtx.Err()}
					continue
				}
				err := call(roundCtx, p)
				results[i] = roundResult{Node: p, Err: err}
				if err != nil && cancel != nil {
					cancel()
				}
			}
		}
		var wg sync.WaitGroup
		for range min(maxFanout, len(targets)) - 1 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				leg()
			}()
		}
		leg()
		wg.Wait()
	}

	ok, votedNo := 0, 0
	for _, r := range results {
		switch {
		case r.Err == nil:
			ok++
		case errors.Is(r.Err, errVotedNo):
			votedNo++
		}
	}
	// The round's wall clock, parallel legs overlapping (so ≤ the sum of
	// the per-peer calls): its histogram and its span.
	d := m.clk.Since(start)
	roundParts.Add(uint64(len(targets)))
	if votedNo > 0 {
		roundVoteNo.Add(uint64(votedNo))
	}
	if h := roundNs[kind]; h != nil {
		h.ObserveDuration(d)
		if ok == len(targets) {
			roundsOK[kind].Inc()
		} else {
			roundsErr[kind].Inc()
		}
	}

	flightrec.Record(flightrec.Event{
		Kind:  flightrec.KindRound,
		Node:  uint64(m.node.ID()),
		Trace: roundTC.TraceID,
		Span:  roundTC.SpanID,
		A:     uint64(txn),
		B:     uint64(ok)<<32 | uint64(len(targets)),
	})
	if m.tracer != nil {
		s := trace.Span{
			Kind:    "round." + string(kind),
			Label:   fmt.Sprintf("%s %d/%d", kind, ok, len(targets)),
			TraceID: roundTC.TraceID,
			SpanID:  roundTC.SpanID,
			Outcome: trace.OutcomeCommitted,
			Begin:   start,
			End:     start.Add(d),
		}
		if roundTC.Valid() {
			s.ParentSpanID = tc.SpanID
		}
		if ok < len(targets) {
			s.Outcome = trace.OutcomeAborted
		}
		m.tracer.AddSpan(s)
	}
	return results
}

// firstFailure picks the round's root-cause failure: the first result
// whose error is not cancellation fallout from the short-circuit, or —
// when every failure is a cancellation — the first failure outright.
func firstFailure(results []roundResult) (ids.NodeID, error, bool) {
	var (
		node  ids.NodeID
		err   error
		found bool
	)
	for _, r := range results {
		if r.Err == nil {
			continue
		}
		if !found {
			node, err, found = r.Node, r.Err, true
		}
		if !errors.Is(r.Err, context.Canceled) {
			return r.Node, r.Err, true
		}
	}
	return node, err, found
}
