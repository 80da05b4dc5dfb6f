// Lazy delivery of what a coordinator owes its participants.
//
// A transaction can leave work at a participant after its coordinator's
// Commit has returned: a single-site reader its read locks to release, a
// writing one each writer's commit, decided and forced here. Telling a
// participant is delivery, not worth a message of its own — a busy
// coordinator talks to the same node again within microseconds. So each
// is an entry, a release or a commit, in the list owed to that node; the
// coordinator's next invoke there carries the list, and the participant
// works it off before the carried operation. A flusher covers the quiet
// case: what has waited releaseFlushAfter, or fills a message, goes out in
// an end message, as does a distributed structure's end, with every commit
// owed there.
//
// A participant pays no force for a carried commit: it appends the
// install and the forget unforced, to become durable with its next
// forced record, usually its next vote. Only then does it owe the
// coordinator an ack, which rides its next invoke reply or vote there.
// An end message is answered once what it carried is forced, and the
// reply brings the acks. The coordinator keeps each writer's commit until
// that writer's ack, and the decision record until the last one; a commit
// sent releaseFlushAfter ago without an ack goes out again.
//
// Releases are best effort: this node crashing drops them, as it drops
// every participant action it had not yet prepared; a participant
// crashing makes them moot; a node that cannot be reached gets one end
// message and is then owed no release. A participant left waiting asks
// (terminate). The commits a crash drops here, recovery owes again from
// the decision records.
package dist

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"mca/internal/clock"
	"mca/internal/flightrec"
	"mca/internal/ids"
	"mca/internal/store"
	"mca/internal/trace"
)

const (
	// releaseFlushAfter is how long an owed entry waits for an invoke to
	// ride before the flusher sends it, and a sent commit for its ack
	// before it is sent again.
	releaseFlushAfter = time.Millisecond
	// owedScratch sizes the stack buffers an invoke collects owed entries
	// in, and a reply its acks.
	owedScratch = 32
)

// owedEntry is one thing owed to a node. A commit stays owed once sent,
// until the node acknowledges it. at is when the entry was owed or last
// sent.
type owedEntry struct {
	txn          ids.ActionID
	commit, sent bool
	at           time.Time
}

type owedTo struct {
	entries []owedEntry
	sending bool // an end message is in flight
}

// unsent counts the entries no message has carried yet.
func (o *owedTo) unsent() int {
	n := 0
	for _, e := range o.entries {
		if !e.sent {
			n++
		}
	}
	return n
}

// owedQueue holds what the local coordinator owes each participant node,
// and how many writers' acks each decision record kept here awaits, for
// one incarnation of the node. Both maps are nil once it is closed.
type owedQueue struct {
	mu       sync.Mutex
	clk      clock.Clock
	owed     map[ids.NodeID]*owedTo
	awaiting map[ids.ActionID]int
	// wake tells the flusher that a list has come into being, has filled
	// a message, or has no end message in flight any more.
	wake chan struct{}
}

// close ends the queue with its incarnation: its debts leave the gauges,
// which count the live incarnations', and nothing joins it any more. The
// next incarnation's recovery owes the commits again.
func (q *owedQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, o := range q.owed {
		for _, e := range o.entries {
			if !e.commit {
				releasesPending.Dec()
			}
		}
	}
	acksAwaited.Add(-int64(len(q.awaiting)))
	q.owed, q.awaiting = nil, nil
}

func (q *owedQueue) poke() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// addLocked owes node the entry. Called with mu held.
func (q *owedQueue) addLocked(node ids.NodeID, e owedEntry) {
	if q.owed == nil {
		return
	}
	o := q.owed[node]
	if o == nil {
		o = &owedTo{}
		q.owed[node] = o
	}
	o.entries = append(o.entries, e)
	if !e.commit {
		releasesPending.Inc()
	}
	if len(o.entries) == 1 || o.unsent() == maxOwedBatch {
		q.poke()
	}
}

// owe queues the release of txn at node: the coordinator has finished
// with it there.
func (q *owedQueue) owe(node ids.NodeID, txn ids.ActionID) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.addLocked(node, owedEntry{txn: txn, at: q.clk.Now()})
}

// await keeps the decision record of txn until each writer has
// acknowledged the commit, owing it to every one meanwhile, from at on. A
// commit owed already is owed from at on if that is sooner.
func (q *owedQueue) await(txn ids.ActionID, writers []ids.NodeID, at time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.awaiting == nil {
		return
	}
	if _, ok := q.awaiting[txn]; ok {
		for _, w := range writers {
			if i := q.findLocked(w, txn); i >= 0 && at.Before(q.owed[w].entries[i].at) {
				q.owed[w].entries[i].at = at
			}
		}
		q.poke()
		return
	}
	q.awaiting[txn] = len(writers)
	acksAwaited.Inc()
	for _, w := range writers {
		q.addLocked(w, owedEntry{txn: txn, commit: true, at: at})
	}
}

// findLocked returns where the commit of txn is in node's list, -1 when
// it is not. Called with mu held.
func (q *owedQueue) findLocked(node ids.NodeID, txn ids.ActionID) int {
	if o := q.owed[node]; o != nil {
		return slices.IndexFunc(o.entries, func(e owedEntry) bool { return e.commit && e.txn == txn })
	}
	return -1
}

// acked counts node's ack of the commit of txn, once however often it
// comes, and reports whether it was the last one awaited.
func (q *owedQueue) acked(node ids.NodeID, txn ids.ActionID) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := q.findLocked(node, txn)
	if i < 0 {
		return false
	}
	o := q.owed[node]
	o.entries = slices.Delete(o.entries, i, i+1)
	if q.awaiting[txn]--; q.awaiting[txn] > 0 {
		return false
	}
	delete(q.awaiting, txn)
	acksAwaited.Dec()
	return true
}

// owedList is what one message carries to a node.
type owedList struct {
	node     ids.NodeID
	rel, com txnList
}

// pick returns l with the entries that due selects added, oldest first
// and up to a message's worth of each kind: a release leaves the list, a
// commit stays until acknowledged, as sent at now. Called with the
// queue's mu held.
func (o *owedTo) pick(l owedList, now time.Time, due func(owedEntry) bool) owedList {
	kept := o.entries[:0]
	for _, e := range o.entries {
		switch {
		case !due(e):
		case !e.commit && l.rel.n < maxOwedBatch:
			l.rel = l.rel.add(e.txn)
			continue
		case e.commit && l.com.n < maxOwedBatch:
			l.com = l.com.add(e.txn)
			e.sent, e.at = true, now
		}
		kept = append(kept, e)
	}
	o.entries = kept
	releasesPending.Add(-int64(l.rel.n))
	return l
}

// take moves onto l what its node is owed and has not been sent.
func (q *owedQueue) take(l owedList) owedList {
	q.mu.Lock()
	defer q.mu.Unlock()
	if o := q.owed[l.node]; o != nil && len(o.entries) > 0 {
		l = o.pick(l, q.clk.Now(), func(e owedEntry) bool { return !e.sent })
	}
	return l
}

// takeDue takes, for every node with no end message in flight, what is
// due at now — entries owed or sent releaseFlushAfter ago, and every
// unsent one when they fill a message — and returns it with the earliest
// time another entry falls due, zero when none will.
func (q *owedQueue) takeDue(now time.Time, self ids.NodeID) (due []owedList, next time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for node, o := range q.owed {
		if o.sending {
			continue
		}
		full := o.unsent() >= maxOwedBatch
		l := o.pick(owedList{node: node}, now, func(e owedEntry) bool {
			if at := e.at.Add(releaseFlushAfter); at.After(now) && (e.sent || !full) {
				if next.IsZero() || at.Before(next) {
					next = at
				}
				return false
			}
			if e.sent {
				flightrec.Record(flightrec.Event{Kind: flightrec.KindCommitResent, Node: uint64(self), A: uint64(e.txn), B: uint64(node)})
			}
			return true
		})
		if l.rel.n+l.com.n > 0 {
			o.sending = true
			due = append(due, l)
		}
	}
	return due, next
}

// commitsTo returns every commit owed to node, sent or not, as sent now.
func (q *owedQueue) commitsTo(node ids.NodeID) (txns []ids.ActionID) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if o := q.owed[node]; o != nil {
		for i, e := range o.entries {
			if e.commit {
				txns = append(txns, e.txn)
				o.entries[i].sent, o.entries[i].at = true, q.clk.Now()
			}
		}
	}
	return txns
}

// sent marks the end message to node no longer in flight.
func (q *owedQueue) sent(node ids.NodeID) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if o := q.owed[node]; o != nil {
		o.sending = false
	}
	q.poke()
}

// acked counts the acks node sent, and forgets a decision record on its
// last one. The forget is not forced: a crash before the next force brings
// the record back, and recovery owes its commit to writers that are all
// done.
func (inc *incarnation) acked(node ids.NodeID, acks txnList) {
	acks.each(func(txn ids.ActionID) {
		if inc.owed.acked(node, txn) {
			//mcalint:ignore errdrop forgetting is housekeeping; a kept record is owed again by recovery
			_ = inc.st.Intentions().Forget(txn)
		}
	})
}

// flushOwed is the incarnation's flusher: it sends what no invoke came
// along to carry, on the node's clock. It ends with ctx, the
// incarnation's lifetime, and closes the queue as it does.
func (inc *incarnation) flushOwed(ctx context.Context) {
	q, clk := inc.owed, inc.clk
	defer q.close()
	// The timer is made by the first list that has to wait, and re-armed
	// only when the earliest deadline changes: it is armed relative to a
	// reading of the clock, and a simulated clock advanced between the
	// reading and the arming would fire it that much late.
	var (
		timer clock.Timer
		armed time.Time // the deadline the timer is armed for, zero once it fired
	)
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		lists, next := q.takeDue(clk.Now(), inc.self)
		// A node that does not answer holds up only its own list.
		for _, l := range lists {
			go inc.sendOwed(ctx, l)
		}
		if !next.IsZero() && !next.Equal(armed) {
			if d := next.Sub(clk.Now()); timer == nil {
				timer = clk.NewTimer(d)
			} else {
				timer.Reset(d)
			}
			armed = next
		}
		var due <-chan time.Time
		if !armed.IsZero() {
			due = timer.C()
		}
		select {
		case <-ctx.Done():
			return
		case <-q.wake:
		case <-due:
			armed = time.Time{}
		}
	}
}

// sendOwed sends a node its due list in an end message, once: a release
// the node does not take has probably lost what it was for, and a commit
// goes out again until acknowledged.
func (inc *incarnation) sendOwed(ctx context.Context, d owedList) {
	defer inc.owed.sent(d.node)
	inc.fanout(ctx, RoundRelease, 0, trace.Context{}, []ids.NodeID{d.node}, false,
		func(ctx context.Context, node ids.NodeID) error {
			if err := inc.sendEnd(ctx, node, &endReq{Release: d.rel, Commit: d.com}); err != nil {
				return err
			}
			releasesFlushed.Add(uint64(d.rel.n))
			phase2Flushed.Add(uint64(d.com.n))
			return nil
		})
}

// sendEnd sends node an end message and counts the acks of its reply.
func (inc *incarnation) sendEnd(ctx context.Context, node ids.NodeID, q *endReq) error {
	var scratch [bodyScratch]byte
	reply, err := inc.peer.CallRaw(ctx, node, methodEnd, appendEndReq(scratch[:0], q))
	if err != nil {
		return err
	}
	acks, err := decodeAck(reply)
	inc.acked(node, acks)
	return err
}

// --- participant role ---

// ackQueue holds the acks this node owes its coordinators, each due once
// the mark after its install is durable through st: never, after a crash.
type ackQueue struct {
	mu   sync.Mutex
	st   *store.Stable
	owed []pendingAck
}

type pendingAck struct {
	to  ids.NodeID
	txn ids.ActionID
	at  uint64
}

func (q *ackQueue) add(a pendingAck) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.owed = append(q.owed, a)
}

// take moves onto l the acks owed to coordinator to whose records are
// durable, up to a message's worth.
func (q *ackQueue) take(to ids.NodeID, l txnList) txnList {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.owed = slices.DeleteFunc(q.owed, func(a pendingAck) bool {
		if a.to != to || l.n == maxOwedBatch || !q.st.Durable(a.at) {
			return false
		}
		l = l.add(a.txn)
		return true
	})
	return l
}

// withAcks returns a reply body that may end in an ack list (a vote, an
// ack) with the durable acks owed to node appended — to a copy, as the
// bodies passed in are shared.
func (inc *incarnation) withAcks(reply []byte, to ids.NodeID) []byte {
	var scratch [owedScratch]byte
	if acks := inc.acks.take(to, txnList{ids: scratch[:0]}); acks.n > 0 {
		return appendOptList(slices.Clip(reply), acks)
	}
	return reply
}

// handleEnd works off what a coordinator sent on its own — the quiet
// flush, an abort, a structure's end — and, no force being due to carry
// the commits' acks, forces them before it answers. Then it ends the
// structure's container here, if the message ends one.
func (inc *incarnation) handleEnd(ctx context.Context, from ids.NodeID, body []byte) ([]byte, error) {
	q, err := decodeEndReq(body)
	if err != nil {
		return nil, err
	}
	inc.workOff(ctx, from, q.Release, q.Commit, q.Abort)
	if q.Commit.n > 0 {
		if err := inc.st.Sync(); err != nil {
			return nil, err
		}
	}
	if err := inc.endContainer(q.Structure, q.CommitStructure); err != nil {
		return nil, err
	}
	return inc.withAcks(ackBody, from), nil
}

// workOff does what coordinator from's message carries for transactions
// it has finished with here, before anything else the message asks: it
// releases, aborts, and commits, owing from an ack of each commit once
// that is durable. All are idempotent, and a transaction this node does
// not know is ignored.
func (inc *incarnation) workOff(ctx context.Context, from ids.NodeID, rel, com, abort txnList) {
	rel.each(func(txn ids.ActionID) { _, _ = inc.end(txn, evRelease) })
	abort.each(func(txn ids.ActionID) { _, _ = inc.end(txn, evAbort) })
	if com.n == 0 {
		return
	}
	start := inc.clk.Now()
	com.each(func(txn ids.ActionID) {
		if _, err := inc.end(txn, evCommit); err == nil {
			inc.acks.add(pendingAck{to: from, txn: txn, at: inc.st.Mark()})
		}
	})
	// Phase-2 work riding another transaction's request is a span of its
	// own under that request's server span, not part of its operation.
	if caller, ok := trace.FromContext(ctx); ok && caller.Valid() && inc.tracer != nil {
		tc := caller.Child()
		inc.tracer.AddSpan(trace.Span{Kind: "dist.phase2", Label: fmt.Sprintf("dist.phase2 commits=%d", com.n),
			TraceID: tc.TraceID, SpanID: tc.SpanID, ParentSpanID: caller.SpanID,
			Outcome: trace.OutcomeOK, Begin: start, End: inc.clk.Now()})
	}
}

// phase2Sink installs a participant's write set and forgets its prepared
// record, both unforced, before the action lets go of its locks. So the
// forget precedes in the log any later install of the same objects, and
// every force that makes such an install durable carries the forget: a
// crash can bring the prepared record back only with nothing later to
// overwrite.
type phase2Sink struct {
	st  *store.Stable
	txn ids.ActionID
}

func (s *phase2Sink) ApplyBatch(b store.Batch) error {
	if err := s.st.ApplyBatchLazy(b); err != nil {
		return err
	}
	return s.st.Intentions().Forget(s.txn)
}
