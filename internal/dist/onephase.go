// One-step commit for single-site transactions.
//
// Under strict two-phase locking a transaction whose effects all lie at
// one remote node has passed its lock point when its last invocation
// there returned: every lock it will ever hold is held, at that one
// node, by one participant action. Nothing is left for a prepare round
// to validate — it exists to learn that every site still holds its part,
// and with one site the only failure that can lose a part (that node
// restarting between two invocations) is refused at the invocation
// itself (participantAction). So:
//
//   - a reader is committed where it stands. Commit returns at once and
//     the participant is told lazily that its action may go (release.go);
//   - a writer hands the decision to the participant in one commit1
//     message. The participant forces one record — the commit decision
//     and the write set it decides on, which the store installs under
//     that same force — and answers committed; with no such record it
//     answers aborted, now and after any crash (presumed abort). This
//     node logs nothing. It acknowledges lazily, through the same release
//     list, and the participant then forgets the record. A participant
//     whose release never comes asks the coordinator (terminate).
//
// Transactions with effects at several nodes, this one included, keep
// two-phase commit, where each writer after the first may have voted in
// its invoke reply (dist.go) and the rest are prepared by a round. Readers
// are always prepared by the round, all-read-only transactions too: it is
// what finds out that some node lost its locks before the last invocation
// elsewhere returned. Constituents of distributed structures keep it too:
// a reader's release the flusher has taken may still be in flight when the
// structure's end arrives, and a container cannot end with a live child.
package dist

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mca/internal/action"
	"mca/internal/flightrec"
	"mca/internal/ids"
	"mca/internal/rpc"
	"mca/internal/store"
	"mca/internal/trace"
)

// singleSiteLocked reports whether the transaction is a plain one whose
// effects all lie at one remote node, and that node's entry. Caller
// holds t.mu.
func (t *Txn) singleSiteLocked() (contact, bool) {
	if t.structure != nil || t.local.HasWrites() {
		return contact{}, false
	}
	var sole contact
	n := 0
	for _, c := range t.contacts {
		if c.ok {
			sole = c
			n++
		}
	}
	return sole, n == 1
}

// commitOnePhase commits a single-site transaction at its one
// participant.
func (t *Txn) commitOnePhase(ctx context.Context, p contact) error {
	// A reader is past its lock point with nothing to make durable:
	// committed as it stands. A writer is once its participant says so.
	committed := onePhaseReads
	if p.wrote {
		if err := t.decideAt(ctx, p.node); err != nil {
			_ = t.local.Abort()
			return err
		}
		committed = onePhaseWrites
	}
	// For a reader the release lets the participant action go; for a
	// writer it is the acknowledgement that lets the participant forget
	// its decision record.
	t.inc.owed.owe(p.node, t.ID())
	committed.Inc()
	if err := t.local.Commit(); err != nil {
		return fmt.Errorf("dist: local apply after decision: %w", err)
	}
	return nil
}

// decideAt hands the decision to the participant at node, in one commit1
// round, and returns nil when it decided commit.
func (t *Txn) decideAt(ctx context.Context, node ids.NodeID) error {
	var committed bool
	asked := t.inc.fanout(ctx, RoundCommit1, t.ID(), t.tc, []ids.NodeID{node}, false,
		func(ctx context.Context, node ids.NodeID) (err error) {
			committed, err = t.askCommit1(ctx, node)
			return err
		})
	if err := asked[0].Err; err != nil {
		// Whatever the participant did or will do with the commit1, this
		// node has finished with the transaction: the release undoes an
		// action the message never reached and forgets a decision it did.
		t.inc.owed.owe(node, t.ID())
		inDoubt.Inc()
		flightrec.Record(flightrec.Event{Kind: flightrec.KindInDoubt, Node: uint64(t.inc.self),
			Trace: t.tc.TraceID, Span: t.tc.SpanID, A: uint64(t.ID()), B: uint64(node)})
		return fmt.Errorf("%w: participant %v: %v", ErrInDoubt, node, err)
	}
	if !committed {
		txnAborts.Inc()
		return fmt.Errorf("%w: participant %v decided abort", ErrAborted, node)
	}
	return nil
}

const (
	// commit1Pause spaces out repeated commit1 calls that fail fast (the
	// participant answering that it cannot tell yet, say while its store
	// is down). Calls that time out pace themselves.
	commit1Pause = 5 * time.Millisecond
	// commit1Calls is how many RPC call timeouts a coordinator waits for
	// its one participant's decision before it gives the outcome up as in
	// doubt.
	commit1Calls = 2
)

// askCommit1 hands the participant the decision and returns what it
// decided. Only the participant knows, so an unanswered call is repeated
// — the handler answers a repeat from its log — until ctx ends, this node
// stops or commit1Calls call timeouts have passed.
func (t *Txn) askCommit1(ctx context.Context, p ids.NodeID) (bool, error) {
	peer := t.inc.peer
	clk := t.inc.clk
	giveUp := clk.Now().Add(commit1Calls * peer.CallTimeout())
	var scratch [bodyScratch]byte
	body := appendTxnReq(scratch[:0], t.ID())
	for {
		reply, err := peer.CallRaw(ctx, p, methodCommit1, body)
		if err == nil {
			var committed bool
			if committed, err = decodeDecision(reply); err == nil {
				return committed, nil
			}
		}
		if ctx.Err() != nil || errors.Is(err, rpc.ErrStopped) || !clk.Now().Before(giveUp) {
			return false, err
		}
		if !errors.Is(err, rpc.ErrTimeout) {
			select {
			case <-ctx.Done():
				return false, err
			case <-clk.After(commit1Pause):
			}
		}
	}
}

// decisionRecord is the stable sink of a one-phase commit: the write set
// it is handed becomes, with the commit decision, one forced intention
// record, which the store installs as it forces it. tc is the span of the
// commit1 request.
type decisionRecord struct {
	inc         *incarnation
	tc          trace.Context
	txn         ids.ActionID
	coordinator ids.NodeID
}

func (d *decisionRecord) ApplyBatch(writes store.Batch) error {
	return d.inc.force(d.tc, store.Intention{
		Action:      d.txn,
		Status:      store.IntentionCommitted,
		Writes:      writes,
		Coordinator: d.coordinator,
	})
}

// handleCommit1 decides a single-site transaction at its one participant.
// The answer is always what the log says: committed follows the forced
// decision record, first time and every repeat; aborted means there is
// no record and, the transaction being buried, never will be. An error
// means this node cannot tell yet, and the coordinator asks again.
func (inc *incarnation) handleCommit1(ctx context.Context, from ids.NodeID, body []byte) ([]byte, error) {
	txn, err := decodeTxnReq(body)
	if err != nil {
		return nil, fmt.Errorf("decode commit1: %w", err)
	}
	log := inc.st.Intentions()
	inc.mu.Lock()
	e, err := inc.entryLocked(txn)
	var a *action.Action
	deciding := false
	if e != nil {
		e.touched = true
		deciding = e.state == prepared || e.state == decided && e.a != nil
		if e.state == live && e.a.Status() == action.Active {
			a, e.state = e.a, decided // frozen: no late invoke can write past the record
		}
	}
	inc.mu.Unlock()
	switch {
	case err != nil:
		return nil, err
	case deciding:
		return nil, fmt.Errorf("commit1 %v: decision in progress", txn)
	case a == nil:
		// No live action — lost to a crash, never begun, reaped, or dead
		// here (deadlock victim): the log says whether it was decided, and
		// if not it never will be (presumed abort, made final).
		in, found, err := log.Lookup(txn)
		switch {
		case err != nil:
			return nil, err
		case found && in.Status == store.IntentionCommitted:
			return committedBody, nil
		}
		if _, err := inc.end(txn, evAbort); err != nil {
			return nil, err
		}
		return abortedBody, nil
	}
	// The record, the install and the local commit in one step.
	err = a.CommitWith(&decisionRecord{inc: inc, tc: inc.callerSpan(ctx), txn: txn, coordinator: from})
	inc.mu.Lock()
	released := e.state == buried // the coordinator let go meanwhile
	if err != nil && !released {
		inc.buryLocked(txn, e)
	}
	e.a = nil
	inc.mu.Unlock()
	switch {
	case err != nil:
		// The action is undone here — by CommitWith when the force failed,
		// below when it never got that far — but a force that failed in a
		// crash may yet be found on disk: only the log will tell.
		_ = a.Abort()
		return nil, fmt.Errorf("commit1 %v: %w", txn, err)
	case released:
		return committedBody, log.Forget(txn)
	}
	return committedBody, nil
}
