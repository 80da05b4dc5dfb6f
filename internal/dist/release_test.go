package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/clock"
	"mca/internal/colour"
	"mca/internal/ids"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/object"
	"mca/internal/rpc"
	"mca/internal/trace"
)

// releaseFixture is two coordinators and two participants, each
// participant hosting one integer register, all on one clock — a
// clock.Fake in the tests that place a release on the virtual timeline.
type releaseFixture struct {
	net    *netsim.Network
	coords [2]*Manager
	parts  [2]*node.Node
	recs   [2]*trace.Recorder // the coordinators' recorders
}

func newReleaseFixture(t *testing.T, clk clock.Clock) *releaseFixture {
	t.Helper()
	f := &releaseFixture{net: netsim.New(netsim.Config{Clock: clk})}
	t.Cleanup(f.net.Close)
	// Retransmissions sit far beyond any advance the tests make.
	opts := rpc.Options{RetryInterval: time.Second, CallTimeout: 30 * time.Second}
	newNode := func(extra ...node.Option) *node.Node {
		nd, err := node.New(f.net, append([]node.Option{node.WithRPCOptions(opts), node.WithClock(clk)}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		return nd
	}
	for i := range f.coords {
		f.recs[i] = trace.NewRecorder()
		f.coords[i] = NewManager(newNode(node.WithTracer(f.recs[i])))
	}
	for i := range f.parts {
		nd := newNode()
		f.parts[i] = nd
		reg := object.New(0, object.WithStore(nd.Stable()))
		NewManager(nd).RegisterResource("reg", ResourceFunc(func(a *action.Action, op string, arg []byte) ([]byte, error) {
			switch op {
			case "get":
				var out int
				if err := reg.Read(a, func(v int) error { out = v; return nil }); err != nil {
					return nil, err
				}
				return json.Marshal(out)
			case "add":
				return []byte("{}"), reg.Write(a, func(v *int) error { *v++; return nil })
			case "drop":
				return []byte("{}"), reg.DeleteIn(a, colour.None)
			case "add-if-present":
				err := reg.Write(a, func(v *int) error { *v++; return nil })
				if errors.Is(err, object.ErrNotExists) {
					return []byte("false"), nil
				}
				return []byte("true"), err
			}
			return nil, fmt.Errorf("unknown op %q", op)
		}))
	}
	return f
}

// op runs one single-participant transaction from coordinator c.
func (f *releaseFixture) op(c, part int, op string) error {
	ctx := context.Background()
	return f.coords[c].Run(ctx, func(txn *Txn) error {
		return txn.Invoke(ctx, f.parts[part].ID(), "reg", op, struct{}{}, nil)
	})
}

// owed counts the entries coordinator c holds: releases not yet sent,
// commits not yet acknowledged.
func (f *releaseFixture) owed(c int) int {
	q := f.coords[c].cur.Load().owed
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, o := range q.owed {
		n += len(o.entries)
	}
	return n
}

// rounds counts a recorder's round spans by kind.
func rounds(rec *trace.Recorder) map[RoundKind]int {
	out := make(map[RoundKind]int)
	for _, s := range rec.Spans() {
		if kind, ok := strings.CutPrefix(s.Kind, "round."); ok {
			out[RoundKind(kind)]++
		}
	}
	return out
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestReleaseFlushesAtDeadline: a reader's locks at its one participant
// outlive Commit until the release reaches it. With no later invoke to
// carry the release, another coordinator's writer waits for the flusher —
// and proceeds exactly when the release has waited releaseFlushAfter on
// the node's clock, not a nanosecond earlier.
func TestReleaseFlushesAtDeadline(t *testing.T) {
	clk := clock.NewFake()
	f := newReleaseFixture(t, clk)
	if err := f.op(0, 0, "get"); err != nil {
		t.Fatal(err)
	}
	if got := f.parts[0].Runtime().ActiveActions(); got != 1 {
		t.Fatalf("participant has %d active actions after the read committed, want the reader's 1", got)
	}
	written := make(chan error, 1)
	go func() { written <- f.op(1, 0, "add") }()
	blocked := func(why string) {
		t.Helper()
		select {
		case err := <-written:
			t.Fatalf("the writer got through %s (err %v)", why, err)
		case <-time.After(30 * time.Millisecond):
		}
	}
	blocked("while the reader's release was still owed")
	clk.Advance(releaseFlushAfter - time.Nanosecond)
	blocked("a nanosecond before the flush deadline")
	clk.Advance(time.Nanosecond)
	select {
	case err := <-written:
		if err != nil {
			t.Fatalf("write: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the writer is still blocked after the flush deadline")
	}
	// The round is recorded once the end message's reply is back, which
	// may be after the release it carried let the writer through.
	eventually(t, "the release round", func() bool { return rounds(f.recs[0])[RoundRelease] > 0 })
	if got := rounds(f.recs[0])[RoundRelease]; got != 1 {
		t.Fatalf("the reader's coordinator recorded %d release rounds, want 1", got)
	}
}

// TestReleaseRidesOwnCoordinatorsInvoke: the coordinator that read a key
// writes it in its next transaction, on a clock that never moves. The
// write's own invoke carries the reader's release, so it never waits; the
// writer votes in its reply, so its Commit runs no round either.
func TestReleaseRidesOwnCoordinatorsInvoke(t *testing.T) {
	f := newReleaseFixture(t, clock.NewFake())
	before := releasesPiggybacked.Value()
	done := make(chan error, 1)
	go func() {
		if err := f.op(0, 0, "get"); err != nil {
			done <- err
			return
		}
		done <- f.op(0, 0, "add")
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a write behind the same coordinator's read is blocked on a clock that does not move")
	}
	if got := releasesPiggybacked.Value() - before; got != 1 {
		t.Fatalf("%d releases rode an invoke, want the reader's 1", got)
	}
	if got := rounds(f.recs[0]); len(got) != 0 {
		t.Fatalf("rounds = %v, want none: the writer's commit waits for later traffic", got)
	}
}

// TestReleasesDrain: what a coordinator owes its participants goes to
// zero, and so do the participant actions, both when later traffic
// carries the releases and when only the flusher does.
func TestReleasesDrain(t *testing.T) {
	clk := clock.NewFake()
	f := newReleaseFixture(t, clk)
	piggybacked, flushed, commits := releasesPiggybacked.Value(), releasesFlushed.Value(), phase2Flushed.Value()

	// Ten reads in a row: each carries its predecessor's release, so the
	// participant never holds more than the latest reader.
	for i := 0; i < 10; i++ {
		if err := f.op(0, 0, "get"); err != nil {
			t.Fatal(err)
		}
		if got := f.parts[0].Runtime().ActiveActions(); got != 1 {
			t.Fatalf("after read %d the participant has %d active actions, want 1", i, got)
		}
	}
	if got := f.owed(0); got != 1 {
		t.Fatalf("coordinator owes %d releases after ten reads, want the last one", got)
	}
	// A read and a write elsewhere: traffic to one node carries nothing
	// for another.
	if err := f.op(0, 1, "get"); err != nil {
		t.Fatal(err)
	}
	if err := f.op(0, 1, "add"); err != nil {
		t.Fatal(err)
	}
	if got := f.owed(0); got != 2 {
		t.Fatalf("coordinator owes %d entries, want 2 (the last reader's release at one node, the writer's commit at the other)", got)
	}
	if got := releasesPiggybacked.Value() - piggybacked; got != 10 {
		t.Fatalf("%d releases rode an invoke, want 10", got)
	}

	// No more traffic: the flusher delivers the rest.
	clk.Advance(releaseFlushAfter)
	eventually(t, "the flusher to empty the lists", func() bool {
		return f.owed(0) == 0 && f.parts[0].Runtime().ActiveActions() == 0 && f.parts[1].Runtime().ActiveActions() == 0
	})
	eventually(t, "the flushed release and commit to be counted", func() bool {
		return releasesFlushed.Value()-flushed == 1 && phase2Flushed.Value()-commits == 1
	})
	for i, nd := range f.parts {
		pending, err := nd.Stable().Intentions().Pending()
		if err != nil {
			t.Fatal(err)
		}
		if len(pending) != 0 {
			t.Fatalf("participant %d still holds %d intention records", i, len(pending))
		}
	}
}

// TestQuietClusterForgetsDecisionsInOneFlush: after a run of
// two-participant writes, with no traffic to carry their commits, every
// decision record the coordinator keeps and every prepared record at the
// participants is gone one flush interval later — not a nanosecond
// earlier — at the price of one force per participant: the end message
// brings the commits, and its reply, after that force, the acks. The
// phase-2 counters and the awaited-acks gauge follow each step.
func TestQuietClusterForgetsDecisionsInOneFlush(t *testing.T) {
	clk := clock.NewFake()
	f := newReleaseFixture(t, clk)
	ctx := context.Background()
	piggybacked, awaited := phase2Piggybacked.Value(), acksAwaited.Value()
	for i := 0; i < 5; i++ {
		err := f.coords[0].Run(ctx, func(txn *Txn) error {
			for _, p := range f.parts {
				if err := txn.Invoke(ctx, p.ID(), "reg", "add", struct{}{}, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	records := func(nd *node.Node) int {
		pending, err := nd.Stable().Intentions().Pending()
		if err != nil {
			t.Fatal(err)
		}
		return len(pending)
	}
	coord := f.coords[0].Node()
	// Each write's votes acknowledged its predecessor's commits: the last
	// write's records are the ones left.
	if c, p0, p1 := records(coord), records(f.parts[0]), records(f.parts[1]); c != 1 || p0 != 1 || p1 != 1 {
		t.Fatalf("records kept: coordinator %d, participants %d and %d; want 1 each", c, p0, p1)
	}
	if got := phase2Piggybacked.Value() - piggybacked; got != 8 {
		t.Fatalf("%d commits rode invokes, want 8: the first four writes' at both participants", got)
	}
	if got := acksAwaited.Value() - awaited; got != 1 {
		t.Fatalf("acks awaited for %d decisions, want the last write's 1", got)
	}
	forces := func() (n [2]uint64) {
		for i, nd := range f.parts {
			n[i], _ = nd.Stable().WAL().Stats()
		}
		return n
	}
	before, flushed := forces(), phase2Flushed.Value()

	clk.Advance(releaseFlushAfter - time.Nanosecond)
	time.Sleep(30 * time.Millisecond)
	if c := records(coord); c != 1 {
		t.Fatalf("the decision record went before the flush interval was up (%d left)", c)
	}
	clk.Advance(time.Nanosecond)
	eventually(t, "every record to be forgotten", func() bool {
		return records(coord)+records(f.parts[0])+records(f.parts[1]) == 0
	})
	if after := forces(); after[0]-before[0] != 1 || after[1]-before[1] != 1 {
		t.Fatalf("participants forced %d and %d times to acknowledge, want once each", after[0]-before[0], after[1]-before[1])
	}
	if got := phase2Flushed.Value() - flushed; got != 2 {
		t.Fatalf("%d commits went out in end messages, want 2", got)
	}
	if got := acksAwaited.Value() - awaited; got != 0 {
		t.Fatalf("acks still awaited for %d decisions", got)
	}
}

// TestSentCommitsDoNotFillAMessage: what makes a list go out at once is a
// message's worth of entries no message has carried. Commits sent and
// waiting for their acks do not count: with a message's worth of them
// outstanding, a new release still waits for an invoke or the flush
// interval, while as many unsent releases wake the flusher and go at once.
func TestSentCommitsDoNotFillAMessage(t *testing.T) {
	clk := clock.NewFake()
	q := &owedQueue{clk: clk, owed: make(map[ids.NodeID]*owedTo), awaiting: make(map[ids.ActionID]int), wake: make(chan struct{}, 1)}
	defer q.close()
	const node = ids.NodeID(7)
	for i := range maxOwedBatch {
		q.await(ids.ActionID(1000+i), []ids.NodeID{node}, clk.Now())
	}
	<-q.wake // the list came into being, and filled a message
	if l := q.take(owedList{node: node}); l.com.n != maxOwedBatch {
		t.Fatalf("an invoke took %d commits, want %d", l.com.n, maxOwedBatch)
	}
	q.owe(node, 1)
	if len(q.wake) != 0 {
		t.Fatal("a release beside a message's worth of sent commits woke the flusher")
	}
	if due, next := q.takeDue(clk.Now(), 1); len(due) != 0 || !next.Equal(clk.Now().Add(releaseFlushAfter)) {
		t.Fatalf("takeDue = %d lists, next %v; want none before the flush interval", len(due), next)
	}
	for i := 2; i <= maxOwedBatch; i++ {
		q.owe(node, ids.ActionID(i))
	}
	if len(q.wake) != 1 {
		t.Fatal("a message's worth of unsent releases did not wake the flusher")
	}
	due, _ := q.takeDue(clk.Now(), 1)
	if len(due) != 1 || due[0].rel.n != maxOwedBatch || due[0].com.n != 0 {
		t.Fatalf("takeDue = %+v, want the %d releases and no commit", due, maxOwedBatch)
	}
}

// TestReleaseToDownNodeIsDroppedAfterOneAttempt: a participant that is
// down when the flusher calls gets one end message; after that the
// coordinator owes it nothing, and a restart of the coordinator forgets
// whatever it still owed anybody.
func TestReleaseToDownNodeIsDroppedAfterOneAttempt(t *testing.T) {
	clk := clock.NewFake()
	f := newReleaseFixture(t, clk)
	if err := f.op(0, 0, "get"); err != nil {
		t.Fatal(err)
	}
	f.parts[0].Crash()
	clk.Advance(releaseFlushAfter)
	eventually(t, "the end message to be in flight", func() bool { return f.owed(0) == 0 })
	eventually(t, "the failed release round", func() bool {
		// The one call times out, once it has armed its timer.
		clk.Advance(30 * time.Second)
		return rounds(f.recs[0])[RoundRelease] == 1
	})
	if got := f.owed(0); got != 0 {
		t.Fatalf("coordinator owes the dead node %d releases again, want the list dropped", got)
	}

	if err := f.op(0, 1, "get"); err != nil {
		t.Fatal(err)
	}
	nd := f.coords[0].Node()
	nd.Crash()
	nd.Restart()
	if got := f.owed(0); got != 0 {
		t.Fatalf("restarted coordinator owes %d releases, want none", got)
	}
}

// TestSingleSiteReadAfterParticipantRestartIsRefused: a transaction that
// read at a node, saw the node restart, and reads there again would be
// holding no lock on what it read first. The second read is refused.
func TestSingleSiteReadAfterParticipantRestartIsRefused(t *testing.T) {
	f := newReleaseFixture(t, clock.Real())
	ctx := context.Background()
	txn, err := f.coords[0].Begin()
	if err != nil {
		t.Fatal(err)
	}
	read := func() error { return txn.Invoke(ctx, f.parts[0].ID(), "reg", "get", struct{}{}, nil) }
	if err := read(); err != nil {
		t.Fatal(err)
	}
	f.parts[0].Crash()
	f.parts[0].Restart()
	if err := read(); err == nil || !strings.Contains(err.Error(), ErrAborted.Error()) {
		t.Fatalf("second read after the participant restarted = %v, want it refused as aborted", err)
	}
	_ = txn.Abort(ctx)
}

// TestMultiSiteReadOnlyStillValidates: a read-only transaction over two
// nodes keeps its prepare round, because that round is what notices a
// node that lost the transaction's locks before the lock point. Here P0
// restarts between the two reads and a writer changes both registers in
// the gap: the reader saw the old value at P0 and the new one at P1, and
// must not commit.
func TestMultiSiteReadOnlyStillValidates(t *testing.T) {
	f := newReleaseFixture(t, clock.Real())
	ctx := context.Background()
	reader, err := f.coords[0].Begin()
	if err != nil {
		t.Fatal(err)
	}
	var x, y int
	if err := reader.Invoke(ctx, f.parts[0].ID(), "reg", "get", struct{}{}, &x); err != nil {
		t.Fatal(err)
	}
	f.parts[0].Crash()
	f.parts[0].Restart()
	err = f.coords[1].Run(ctx, func(w *Txn) error {
		if err := w.Invoke(ctx, f.parts[0].ID(), "reg", "add", struct{}{}, nil); err != nil {
			return err
		}
		return w.Invoke(ctx, f.parts[1].ID(), "reg", "add", struct{}{}, nil)
	})
	if err != nil {
		t.Fatalf("writer: %v", err)
	}
	if err := reader.Invoke(ctx, f.parts[1].ID(), "reg", "get", struct{}{}, &y); err != nil {
		t.Fatal(err)
	}
	if x != 0 || y != 1 {
		t.Fatalf("reader saw x=%d y=%d, want the torn view x=0 y=1 the test is about", x, y)
	}
	if err := reader.Commit(ctx); !errors.Is(err, ErrAborted) {
		t.Fatalf("Commit of the torn read = %v, want ErrAborted from the prepare round", err)
	}
	if got := rounds(f.recs[0])[RoundPrepare]; got != 1 {
		t.Fatalf("reader's coordinator ran %d prepare rounds, want 1", got)
	}
}

// TestFailedWriteLeavesParticipantAReader: a write the object layer
// refuses — the register was deleted — changes nothing, so the participant
// it was attempted at is still a reader: alone in its transaction it
// commits without a message or a force, and beside a writer it votes
// read-only and logs no prepare.
func TestFailedWriteLeavesParticipantAReader(t *testing.T) {
	f := newReleaseFixture(t, clock.Real())
	ctx := context.Background()
	if err := f.op(0, 0, "drop"); err != nil {
		t.Fatal(err)
	}
	// The drop's commit reaches the participant in an end message, which
	// forces before it acks: wait for the ack, so that force is not counted
	// against the attempts below.
	eventually(t, "the drop's commit to be acknowledged", func() bool { return f.owed(0) == 0 })
	attempt := func(txn *Txn) error {
		var added bool
		if err := txn.Invoke(ctx, f.parts[0].ID(), "reg", "add-if-present", struct{}{}, &added); err != nil {
			return err
		}
		if added {
			return errors.New("the write to the deleted register went through")
		}
		return nil
	}
	forces := func() uint64 { n, _ := f.parts[0].Stable().WAL().Stats(); return n }

	reads, forced := onePhaseReads.Value(), forces()
	if err := f.coords[0].Run(ctx, attempt); err != nil {
		t.Fatal(err)
	}
	if r := onePhaseReads.Value() - reads; r != 1 {
		t.Fatalf("%d one-phase reader commits counted, want the failed writer to commit as 1 reader", r)
	}

	votes := readonlyVotes.Value()
	err := f.coords[0].Run(ctx, func(txn *Txn) error {
		if err := attempt(txn); err != nil {
			return err
		}
		return txn.Invoke(ctx, f.parts[1].ID(), "reg", "add", struct{}{}, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readonlyVotes.Value() - votes; got != 1 {
		t.Fatalf("%d read-only votes, want 1 from the participant whose write failed", got)
	}
	if got := forces() - forced; got != 0 {
		t.Fatalf("the participant whose writes failed forced its log %d times, want 0", got)
	}
}

// TestOnePhaseAccounting: what the single-site paths report. A reader is
// committed in one step: it counts as a one-phase commit, and its Commit
// charges its transaction no network or round time. A writer takes the
// two-phase path with nothing left to ask — its vote rode its invoke reply
// — so its Commit runs no round, counts no one-phase commit, and returns
// at the decision force even when the participant has gone silent since.
func TestOnePhaseAccounting(t *testing.T) {
	f := newReleaseFixture(t, clock.Real())
	ctx := context.Background()
	reads, invokeVotes := onePhaseReads.Value(), votesYes[true].Value()

	txn, err := f.coords[0].Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Invoke(ctx, f.parts[0].ID(), "reg", "get", struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	// The network and round time the trace holds: what its rpc.client
	// and round spans at the coordinator took.
	netTime := func() (d time.Duration, rounds int) {
		for _, s := range f.recs[0].Spans() {
			switch {
			case s.TraceID != txn.tc.TraceID:
			case s.Kind == trace.KindRPCClient:
				d += s.End.Sub(s.Begin)
			case strings.HasPrefix(s.Kind, "round."):
				d += s.End.Sub(s.Begin)
				rounds++
			}
		}
		return d, rounds
	}
	invoked, _ := netTime()
	if invoked == 0 {
		t.Fatal("the traced invoke has no rpc.client span")
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if committed, rounds := netTime(); committed != invoked || rounds != 0 {
		t.Fatalf("read commit charged net time: %v after the invoke, %v and %d rounds after Commit", invoked, committed, rounds)
	}
	if err := f.op(0, 0, "add"); err != nil {
		t.Fatal(err)
	}
	if r, v := onePhaseReads.Value()-reads, votesYes[true].Value()-invokeVotes; r != 1 || v != 1 {
		t.Fatalf("%d one-phase commits and %d invoke votes counted, want the reader's 1 and the writer's 1", r, v)
	}
	if got := rounds(f.recs[0]); got[RoundPrepare] != 0 {
		t.Fatalf("rounds = %v, want no prepare round", got)
	}

	// A writer whose participant went silent after voting commits all the
	// same, and the participant installs the write once it hears again.
	txn, err = f.coords[0].Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Invoke(ctx, f.parts[0].ID(), "reg", "add", struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	coord := f.coords[0].Node().ID()
	f.net.PartitionOneWay(f.parts[0].ID(), coord)
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := txn.Commit(short); err != nil {
		t.Fatalf("Commit with a silent voter = %v, want committed", err)
	}
	f.net.Heal(f.parts[0].ID(), coord)
	var got int
	if err := f.coords[1].Run(ctx, func(txn *Txn) error {
		return txn.Invoke(ctx, f.parts[0].ID(), "reg", "get", struct{}{}, &got)
	}); err != nil || got != 2 {
		t.Fatalf("register = %d, %v after both writes committed; want 2", got, err)
	}
}

// TestStructureEndCarriesEveryOwedCommit: a structure's end at a node
// carries every commit owed there, however many: past a message's worth,
// the surplus goes first in an end message of its own. Here a constituent
// and maxOwedBatch+6 other decisions are owed to one participant, a
// message's worth of them sent by the flusher and lost; its end takes two
// messages, the other participant's one, and every commit is acknowledged
// when End returns.
func TestStructureEndCarriesEveryOwedCommit(t *testing.T) {
	clk := clock.NewFake()
	f := newReleaseFixture(t, clk)
	ctx := context.Background()
	coord := f.coords[0]
	s, err := coord.BeginRemoteSerializing()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunConstituent(ctx, func(txn *Txn) error {
		for _, p := range f.parts {
			if err := txn.Invoke(ctx, p.ID(), "reg", "add", struct{}{}, nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	from, to := coord.node.ID(), f.parts[0].ID()
	f.net.PartitionOneWay(from, to)
	lost := f.net.Stats().Lost
	for i := range maxOwedBatch + 6 {
		coord.cur.Load().owed.await(ids.ActionID(1<<40+i), []ids.NodeID{to}, clk.Now())
	}
	eventually(t, "the flusher's full message", func() bool { return f.net.Stats().Lost > lost })
	f.net.Heal(from, to)
	sent := f.net.Stats().Sent
	if err := s.End(ctx); err != nil {
		t.Fatalf("End: %v", err)
	}
	if got := f.net.Stats().Sent - sent; got != 6 {
		t.Fatalf("End sent %d datagrams, want 6 (two end messages to the first participant, one to the second, each answered)", got)
	}
	if got := f.owed(0); got != 0 {
		t.Fatalf("%d commits still owed after End, want none", got)
	}
	for _, p := range f.parts {
		var got int
		if err := f.coords[1].Run(ctx, func(txn *Txn) error {
			return txn.Invoke(ctx, p.ID(), "reg", "get", struct{}{}, &got)
		}); err != nil || got != 1 {
			t.Fatalf("register at %v = %d, %v after End; want the constituent's 1", p.ID(), got, err)
		}
	}
}
