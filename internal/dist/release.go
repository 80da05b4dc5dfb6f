// Lazy release of single-site transactions.
//
// A transaction that committed in one step (onephase.go) leaves something
// behind at its participant: a reader's action still holding read locks,
// a writer's decision record. Telling the participant it may drop them is
// not worth a message of its own — a busy coordinator talks to the same
// node again within microseconds. So the transaction joins a list of
// releases owed to that node, the coordinator's next invoke there carries
// the list along, and the participant works it off before running the
// carried operation. A flusher covers the quiet case: a list whose oldest
// entry has waited releaseFlushAfter, or that fills a message, goes out
// in an end message of its own.
//
// The lists are volatile and best effort. This node crashing drops them,
// as it drops every participant action it had not yet prepared; a
// participant crashing makes them moot, its locks and its unforced
// forgets having died with it. A node that cannot be reached gets one
// end message and is then owed nothing.
package dist

import (
	"context"
	"sync"
	"time"

	"mca/internal/clock"
	"mca/internal/ids"
	"mca/internal/store"
	"mca/internal/trace"
)

const (
	// releaseFlushAfter is how long a release may wait for an invoke to
	// ride before the flusher sends it on its own.
	releaseFlushAfter = time.Millisecond
	// releaseScratch sizes the stack buffer an invoke collects owed
	// releases in: room for the few a busy coordinator owes at a time.
	releaseScratch = 32
)

// releaseQueue holds, per participant node, the transactions the local
// coordinator has finished with there and has not yet said so.
type releaseQueue struct {
	mu   sync.Mutex
	owed map[ids.NodeID]*owedReleases
	// wake tells the flusher that a list has come into being or has
	// filled a message.
	wake chan struct{}
}

// owedReleases is what one node is owed.
type owedReleases struct {
	txns []ids.ActionID
	// since is when the list was last empty: no entry is older.
	since time.Time
}

func (q *releaseQueue) init() {
	q.owed = make(map[ids.NodeID]*owedReleases)
	q.wake = make(chan struct{}, 1)
}

// reset drops every list.
func (q *releaseQueue) reset() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, o := range q.owed {
		releasesPending.Add(-int64(len(o.txns)))
	}
	clear(q.owed)
}

// add owes node the release of txn.
func (q *releaseQueue) add(node ids.NodeID, txn ids.ActionID, now time.Time) {
	q.mu.Lock()
	o := q.owed[node]
	if o == nil {
		o = &owedReleases{}
		q.owed[node] = o
	}
	if len(o.txns) == 0 {
		o.since = now
	}
	o.txns = append(o.txns, txn)
	n := len(o.txns)
	q.mu.Unlock()
	releasesPending.Inc()
	if n == 1 || n == maxReleaseBatch {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
}

// take moves up to a message's worth of what node is owed onto l, oldest
// first.
func (q *releaseQueue) take(node ids.NodeID, l releaseList) releaseList {
	q.mu.Lock()
	defer q.mu.Unlock()
	o := q.owed[node]
	if o == nil || len(o.txns) == 0 {
		return l
	}
	n := min(len(o.txns), maxReleaseBatch-l.n)
	for _, txn := range o.txns[:n] {
		l = l.add(txn)
	}
	// A list emptied here keeps its backing array for the next
	// transaction.
	o.txns = o.txns[:copy(o.txns, o.txns[n:])]
	releasesPending.Add(-int64(n))
	return l
}

// takeDue removes and returns the lists that are due at now — the oldest
// entry has waited releaseFlushAfter, or there is a message's worth —
// and the earliest time another will be, zero when nothing else is owed.
func (q *releaseQueue) takeDue(now time.Time) (due map[ids.NodeID][]ids.ActionID, next time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for node, o := range q.owed {
		if len(o.txns) == 0 {
			continue
		}
		at := o.since.Add(releaseFlushAfter)
		if len(o.txns) < maxReleaseBatch && at.After(now) {
			if next.IsZero() || at.Before(next) {
				next = at
			}
			continue
		}
		if due == nil {
			due = make(map[ids.NodeID][]ids.ActionID)
		}
		due[node] = o.txns
		o.txns = nil
		releasesPending.Add(-int64(len(due[node])))
	}
	return due, next
}

// owe queues the release of txn at node: the coordinator has finished
// with it there.
func (m *Manager) owe(node ids.NodeID, txn ids.ActionID) {
	m.releases.add(node, txn, m.clock().Now())
}

// oweAgain queues once more what a message that failed was carrying.
func (m *Manager) oweAgain(node ids.NodeID, l releaseList) {
	l.each(func(txn ids.ActionID) { m.owe(node, txn) })
}

// flushReleases is the manager's flusher: it sends what no invoke came
// along to carry. It runs for one incarnation of the node, on its clock,
// and ends with ctx, the node's lifetime.
func (m *Manager) flushReleases(ctx context.Context, clk clock.Clock) {
	q := &m.releases
	// The timer is made by the first list that has to wait, and armed
	// only while one does.
	var (
		timer clock.Timer
		due   <-chan time.Time
	)
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		lists, next := q.takeDue(clk.Now())
		if len(lists) > 0 {
			m.sendReleases(ctx, lists)
			continue
		}
		due = nil
		if !next.IsZero() {
			if d := next.Sub(clk.Now()); timer == nil {
				timer = clk.NewTimer(d)
			} else {
				timer.Reset(d)
			}
			due = timer.C()
		}
		select {
		case <-ctx.Done():
			return
		case <-q.wake:
		case <-due:
		}
	}
}

// sendReleases sends each node its due list in end messages of its own:
// one attempt each, since a node that does not answer has probably lost
// what the releases were for.
func (m *Manager) sendReleases(ctx context.Context, due map[ids.NodeID][]ids.ActionID) {
	nodes := make([]ids.NodeID, 0, len(due))
	for node := range due {
		nodes = append(nodes, node)
	}
	peer := m.Node().Peer()
	m.fanout(ctx, trace.RoundRelease, 0, trace.Context{}, nodes, false,
		func(ctx context.Context, node ids.NodeID) error {
			for txns := due[node]; len(txns) > 0; {
				n := min(len(txns), maxReleaseBatch)
				var l releaseList
				for _, txn := range txns[:n] {
					l = l.add(txn)
				}
				if _, err := peer.CallRaw(ctx, node, methodEnd, appendEndReq(nil, l)); err != nil {
					return err
				}
				releasesFlushed.Add(uint64(n))
				txns = txns[n:]
			}
			return nil
		})
}

// --- participant role ---

func (m *Manager) handleEnd(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
	l, err := decodeEndReq(body)
	if err != nil {
		return nil, err
	}
	m.release(l)
	return ackBody, nil
}

// release works off a list of transactions their coordinator has
// finished with, whether an invoke carried it or an end message.
// Releasing is idempotent, and a transaction this node does not know is
// ignored.
func (m *Manager) release(l releaseList) {
	if l.n == 0 {
		return
	}
	nd := m.Node()
	l.each(func(txn ids.ActionID) { m.releaseOne(nd.ID(), nd.Stable().Intentions(), txn) })
}

// releaseOne lets go of what one finished single-site transaction left
// here. A live action that wrote nothing is a committed reader holding
// its read locks: it commits, as it would on a read-only vote. A live
// action that wrote was never reached by its coordinator's commit1 and
// now never will be: it aborts. With no live action there may be the
// decision record of a one-phase commit, which this acknowledges: it is
// forgotten, unforced as forgets are. In every case the transaction is
// tombstoned, so that no late duplicate of an invoke can bring it back.
func (m *Manager) releaseOne(self ids.NodeID, log *store.IntentionLog, txn ids.ActionID) {
	m.mu.Lock()
	m.tombstoneLocked(txn)
	if ps, ok := m.active[txn]; ok && ps.prepared {
		// Deciding at this moment; handleCommit1 sees the tombstone.
		m.mu.Unlock()
		return
	}
	a, live := m.dropLocked(txn)
	m.mu.Unlock()
	switch {
	case !live:
		if in, found, err := log.Lookup(txn); err == nil && found &&
			in.Status == store.IntentionCommitted && in.Coordinator != self {
			//mcalint:ignore errdrop forgetting is housekeeping; a kept decision record is only log space
			_ = log.Forget(txn)
		}
	case a.HasWrites():
		_ = a.Abort()
	default:
		//mcalint:ignore errdrop a reader that cannot commit (it died locally) has let go of its locks already
		_ = a.Commit()
	}
}
