package dist_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/dist"
	"mca/internal/ids"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/rpc"
	"mca/internal/store"
)

// holdingResource serves the node's bank. Armed, it holds its invoke until
// released, then writes an audit record through the store handle of the
// node's incarnation it began in, and only then lets the bank add to the
// account — activated, like every bank access, through the registry of
// the node's current incarnation.
type holdingResource struct {
	nd            *node.Node
	bank          *bank
	audit         ids.ObjectID
	armed         atomic.Bool
	held, release chan struct{}
	audited, paid chan error
}

func (h *holdingResource) Invoke(a *action.Action, op string, arg []byte) ([]byte, error) {
	if !h.armed.CompareAndSwap(true, false) {
		return h.bank.Invoke(a, op, arg)
	}
	st := h.nd.Stable()
	close(h.held)
	<-h.release
	h.audited <- st.ApplyBatch(store.Batch{Writes: map[ids.ObjectID]store.State{h.audit: store.State("late")}})
	out, err := h.bank.Invoke(a, op, arg)
	h.paid <- err
	return out, err
}

// TestHeldHandlerChangesNothingAfterRestart: an invoke handler that a
// crash left running — held inside its resource, with the vote asked in
// its reply — is released only once the node has restarted. It belongs to
// the incarnation that crashed, so all it does is refused: its write
// through that incarnation's store handle, its write to the account the
// next incarnation activated (its action's runtime is closed), the
// prepared record of its vote, and its reply. The next incarnation's log
// and account do not change.
func TestHeldHandlerChangesNothingAfterRestart(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	p2 := c.nodes[2]
	h := &holdingResource{nd: p2, bank: c.banks[2], audit: ids.NewObjectID(),
		held: make(chan struct{}), release: make(chan struct{}), audited: make(chan error, 1), paid: make(chan error, 1)}
	c.parts[1].RegisterResource("held", h)
	h.armed.Store(true)

	// A transfer whose second invoke asks P2 for its vote; the coordinator
	// gives up on that invoke once it is held, so that nothing retransmits
	// it to the next incarnation.
	ctx := context.Background()
	txn, err := c.coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: -1}, nil); err != nil {
		t.Fatal(err)
	}
	callCtx, cancel := context.WithCancel(ctx)
	invoked := make(chan error, 1)
	go func() { invoked <- txn.Invoke(callCtx, p2.ID(), "held", "add", addArg{Delta: 1}, nil) }()
	<-h.held
	cancel()
	if err := <-invoked; err == nil {
		t.Fatal("the held invoke returned no error to a caller that gave up on it")
	}

	p2.Crash()
	if err := p2.Restart(); err != nil {
		t.Fatal(err)
	}
	pending, err := p2.Stable().Intentions().Pending()
	if err != nil {
		t.Fatal(err)
	}
	sent := c.net.Stats().Sent

	close(h.release)
	if err := <-h.audited; !errors.Is(err, store.ErrCrashed) {
		t.Errorf("the held handler's write through its incarnation's store = %v, want %v", err, store.ErrCrashed)
	}
	if err := <-h.paid; err == nil {
		t.Error("the held handler's action wrote the account the next incarnation activated")
	}
	time.Sleep(50 * time.Millisecond) // the handler votes and replies, if it can
	if got := c.net.Stats().Sent - sent; got != 0 {
		t.Errorf("the crashed incarnation's handler sent %d datagrams after the restart, want none", got)
	}
	st := p2.Stable()
	if _, err := st.Read(h.audit); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("the audit record reached the next incarnation: Read = %v", err)
	}
	if in, found, _ := st.Intentions().Lookup(txn.ID()); found {
		t.Errorf("the held handler's vote reached the next incarnation's log: a %v record", in.Status)
	}
	if now, err := st.Intentions().Pending(); err != nil || len(now) != len(pending) {
		t.Errorf("the next incarnation's log holds %d records (%v), want the %d it restarted with", len(now), err, len(pending))
	}
	if got, err := readAt(ctx, c.coord, p2.ID()); err != nil || got != 100 {
		t.Errorf("the next incarnation's account reads %d (%v), want the untouched 100", got, err)
	}
}

// TestStaleTxnCannotDecide: a transaction begun in a coordinator
// incarnation that crashed cannot commit in the next one, whether the
// crash and restart fall between its last invoke and its Commit or
// between its prepare round and its decision: Commit fails, no decision
// record appears in the coordinator's log, and the participants end up
// aborted.
func TestStaleTxnCannotDecide(t *testing.T) {
	for _, when := range []string{"before Commit", "after prepare"} {
		t.Run(when, func(t *testing.T) {
			c := newCluster(t, netsim.Config{})
			ctx := context.Background()
			coord := c.nodes[0]
			restart := func() {
				coord.Crash()
				if err := coord.Restart(); err != nil {
					t.Error(err)
				}
			}
			txn, err := c.coord.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range []int{-10, 10} {
				if err := txn.Invoke(ctx, c.nodes[i+1].ID(), "bank", "add", addArg{Delta: d}, nil); err != nil {
					t.Fatal(err)
				}
			}
			if when == "before Commit" {
				restart()
			} else {
				c.coord.TestHooks = dist.Hooks{AfterPrepare: restart}
			}
			if err := txn.Commit(ctx); err == nil {
				t.Fatal("a transaction of a crashed incarnation committed")
			}
			if in, found, _ := coord.Stable().Intentions().Lookup(txn.ID()); found {
				t.Fatalf("the stale transaction's %v record reached the next incarnation's log", in.Status)
			}
			if err := waitUntil(func() bool {
				b1, ok1 := c.stableBalanceAt(t, 1)
				b2, ok2 := c.stableBalanceAt(t, 2)
				return (!ok1 || b1 == 100) && (!ok2 || b2 == 100) && readable(ctx, c, 1) && readable(ctx, c, 2)
			}); err != nil {
				t.Fatalf("the participants did not abort the stale transaction: %v", err)
			}
		})
	}
}

// readable reports whether participant i's account can be read at 100:
// no prepared record fences it.
func readable(ctx context.Context, c *cluster, i int) bool {
	got, err := readAt(ctx, c.coord, c.nodes[i].ID())
	return err == nil && got == 100
}

// recoveryGate is a service hosted ahead of a node's manager: armed, its
// recovery hook holds the node's restart after the RPC peer has started
// and before the manager's recovery has run.
type recoveryGate struct {
	armed atomic.Bool
	open  chan struct{}
}

func (g *recoveryGate) Register(*node.Node, *rpc.Peer) {}

func (g *recoveryGate) Recover(context.Context, *node.Node) {
	if g.armed.Load() {
		<-g.open
	}
}

// TestRetransmittedFirstInvokeFindsTheRestartsVote: a participant votes in
// its first invoke's reply, the reply is lost, and the participant
// crashes. Its restart serves before recovery has run, and the caller's
// retransmission of that invoke arrives then. It must find the vote the
// log kept — not start a fresh action beside the record — so that the
// abort that follows forgets the record and the account opens again.
func TestRetransmittedFirstInvokeFindsTheRestartsVote(t *testing.T) {
	nw := netsim.New(netsim.Config{})
	t.Cleanup(nw.Close)
	opts := node.WithRPCOptions(rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 2 * time.Second})
	coordNode, err := node.New(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coordNode.Stop)
	coord := dist.NewManager(coordNode)
	p, err := node.New(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	gate := &recoveryGate{open: make(chan struct{})}
	p.Host(gate)
	mgr := dist.NewManager(p)
	b := newBank(100)
	p.Host(b)
	mgr.RegisterResource("bank", b)
	ctx := context.Background()
	pending := func() int {
		in, err := p.Stable().Intentions().Pending()
		if err != nil {
			t.Fatal(err)
		}
		return len(in)
	}

	txn, err := coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	nw.PartitionOneWay(p.ID(), coordNode.ID())
	invoked := make(chan error, 1)
	go func() { invoked <- txn.Invoke(ctx, p.ID(), "bank", "add", addArg{Delta: 5}, nil) }()
	if err := waitUntil(func() bool { return pending() == 1 }); err != nil {
		t.Fatal("the participant never voted in its invoke's reply")
	}
	gate.armed.Store(true)
	p.Crash()
	restarted := make(chan error, 1)
	go func() { restarted <- p.Restart() }()
	nw.Heal(p.ID(), coordNode.ID())
	// The retransmitted invoke reaches the restarted node before its
	// recovery: it cannot run, as the vote it would cast again is logged.
	if err := <-invoked; err == nil {
		t.Fatal("the retransmitted invoke ran again beside the vote the log kept")
	}
	if err := txn.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	close(gate.open)
	if err := <-restarted; err != nil {
		t.Fatal(err)
	}
	write := func() bool {
		return coord.Run(ctx, func(txn *dist.Txn) error {
			return txn.Invoke(ctx, p.ID(), "bank", "add", addArg{Delta: 1}, nil)
		}) == nil
	}
	if err := waitUntil(func() bool { return pending() == 0 && write() }); err != nil {
		t.Fatalf("the aborted vote's record stayed (%d records) and kept the account refused", pending())
	}
}
