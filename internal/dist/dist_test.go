package dist_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/dist"
	"mca/internal/ids"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/object"
	"mca/internal/rpc"
	"mca/internal/store"
)

// bank is a test service hosting one integer account per node, persisted
// in the node's stable store and activated from it on first use after
// each (re)start.
type bank struct {
	acctID  ids.ObjectID
	initial int
	reg     atomic.Pointer[object.Registry[int]] // this incarnation's activated account
}

func newBank(initial int) *bank {
	return &bank{acctID: ids.NewObjectID(), initial: initial}
}

func (b *bank) Register(n *node.Node, _ *rpc.Peer) {
	b.reg.Store(object.NewRegistry(n.Stable(), func(ids.ObjectID) int { return b.initial }))
}

func (b *bank) Recover(context.Context, *node.Node) {}

// account activates the account on first use: from the store, or at the
// initial balance when the store has no state for it.
func (b *bank) account() (*object.Managed[int], error) {
	return b.reg.Load().Get(b.acctID)
}

// balance returns the account's balance, -1 when it cannot be activated.
func (b *bank) balance() int {
	m, err := b.account()
	if err != nil {
		return -1
	}
	return m.Peek()
}

type addArg struct {
	Delta int `json:"delta"`
}

type balanceResp struct {
	Balance int `json:"balance"`
}

func (b *bank) Invoke(a *action.Action, op string, arg []byte) ([]byte, error) {
	switch op {
	case "add":
		var in addArg
		if err := unmarshal(arg, &in); err != nil {
			return nil, err
		}
		acct, err := b.account()
		if err != nil {
			return nil, err
		}
		err = acct.Write(a, func(v *int) error {
			*v += in.Delta
			return nil
		})
		if err != nil {
			return nil, err
		}
		return []byte("{}"), nil
	case "get":
		var out balanceResp
		acct, err := b.account()
		if err != nil {
			return nil, err
		}
		err = acct.Read(a, func(v int) error {
			out.Balance = v
			return nil
		})
		if err != nil {
			return nil, err
		}
		return marshal(out)
	default:
		return nil, errors.New("bank: unknown op " + op)
	}
}

func unmarshal(data []byte, v any) error { return json.Unmarshal(data, v) }
func marshal(v any) ([]byte, error)      { return json.Marshal(v) }

// cluster is the common 3-node fixture: one coordinator, two
// participants, each with a bank account.
type cluster struct {
	net   *netsim.Network
	coord *dist.Manager
	parts [2]*dist.Manager
	banks [3]*bank // banks[0] at coordinator
	nodes [3]*node.Node
	dirs  [3]string // stable-store directories, when file-backed
}

func newCluster(t *testing.T, cfg netsim.Config) *cluster {
	t.Helper()
	nw := netsim.New(cfg)
	t.Cleanup(nw.Close)

	rpcOpts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 300 * time.Millisecond}
	c := &cluster{net: nw}
	for i := 0; i < 3; i++ {
		nd, err := node.New(nw, node.WithRPCOptions(rpcOpts))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		c.nodes[i] = nd
		mgr := dist.NewManager(nd)
		c.banks[i] = newBank(100)
		nd.Host(c.banks[i])
		mgr.RegisterResource("bank", c.banks[i])
		if i == 0 {
			c.coord = mgr
		} else {
			c.parts[i-1] = mgr
		}
	}
	return c
}

func (c *cluster) balanceAt(t *testing.T, i int) int {
	t.Helper()
	return c.banks[i].balance()
}

func (c *cluster) stableBalanceAt(t *testing.T, i int) (int, bool) {
	t.Helper()
	m, err := object.Load[int](c.banks[i].acctID, c.nodes[i].Stable())
	if errors.Is(err, store.ErrNotFound) {
		return 0, false
	}
	if err != nil {
		t.Fatal(err)
	}
	return m.Peek(), true
}

func transfer(ctx context.Context, c *cluster, fromNode, toNode int, amount int) error {
	return c.coord.Run(ctx, func(txn *dist.Txn) error {
		if err := txn.Invoke(ctx, c.nodes[fromNode].ID(), "bank", "add", addArg{Delta: -amount}, nil); err != nil {
			return err
		}
		return txn.Invoke(ctx, c.nodes[toNode].ID(), "bank", "add", addArg{Delta: amount}, nil)
	})
}

func TestDistributedCommitHappyPath(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	if err := transfer(ctx, c, 1, 2, 30); err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if got := c.balanceAt(t, 1); got != 70 {
		t.Fatalf("P1 balance = %d, want 70", got)
	}
	if got := c.balanceAt(t, 2); got != 130 {
		t.Fatalf("P2 balance = %d, want 130", got)
	}
	// Permanence: stable states updated at both participants once phase
	// 2 reaches them — with no further traffic, within the flush interval
	// — and the decision record forgotten once both have acknowledged.
	err := waitUntil(func() bool {
		p1, ok1 := c.stableBalanceAt(t, 1)
		p2, ok2 := c.stableBalanceAt(t, 2)
		return ok1 && ok2 && p1 == 70 && p2 == 130
	})
	if err != nil {
		p1, _ := c.stableBalanceAt(t, 1)
		p2, _ := c.stableBalanceAt(t, 2)
		t.Fatalf("stable balances P1=%d P2=%d, want 70 and 130: %v", p1, p2, err)
	}
	if err := waitUntil(func() bool {
		pending, err := c.nodes[0].Stable().Intentions().Pending()
		return err == nil && len(pending) == 0
	}); err != nil {
		t.Fatalf("the coordinator kept the decision record: %v", err)
	}
}

func TestDistributedCommitIncludesCoordinatorObjects(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	err := c.coord.Run(ctx, func(txn *dist.Txn) error {
		// Local leg at the coordinator plus a remote leg.
		if err := txn.Invoke(ctx, c.nodes[0].ID(), "bank", "add", addArg{Delta: -5}, nil); err != nil {
			return err
		}
		return txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: 5}, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.balanceAt(t, 0); got != 95 {
		t.Fatalf("coordinator balance = %d", got)
	}
	if got := c.balanceAt(t, 1); got != 105 {
		t.Fatalf("P1 balance = %d", got)
	}
}

func TestDistributedAbortUndoesEverywhere(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	boom := errors.New("boom")
	err := c.coord.Run(ctx, func(txn *dist.Txn) error {
		if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: -30}, nil); err != nil {
			return err
		}
		if err := txn.Invoke(ctx, c.nodes[2].ID(), "bank", "add", addArg{Delta: 30}, nil); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v", err)
	}
	if got := c.balanceAt(t, 1); got != 100 {
		t.Fatalf("P1 balance = %d, want 100", got)
	}
	if got := c.balanceAt(t, 2); got != 100 {
		t.Fatalf("P2 balance = %d, want 100", got)
	}
}

func TestRemoteReadBack(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	var got balanceResp
	err := c.coord.Run(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, c.nodes[1].ID(), "bank", "get", struct{}{}, &got)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Balance != 100 {
		t.Fatalf("balance = %d", got.Balance)
	}
}

func TestParticipantCrashBeforePrepareAborts(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	// P2 votes in its invoke reply; P1 crashes as it forces its vote, so
	// its invoke fails and the transfer aborts.
	err := c.coord.Run(ctx, func(txn *dist.Txn) error {
		if err := txn.Invoke(ctx, c.nodes[2].ID(), "bank", "add", addArg{Delta: 30}, nil); err != nil {
			return err
		}
		c.nodes[1].Stable().CrashDuringNextForce()
		return txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: -30}, nil)
	})
	if err == nil || !strings.Contains(err.Error(), dist.ErrAborted.Error()) {
		t.Fatalf("transfer = %v, want it aborted", err)
	}
	c.nodes[1].Crash()
	if got := c.balanceAt(t, 2); got != 100 {
		t.Fatalf("P2 balance = %d, want 100 (aborted)", got)
	}
	c.nodes[1].Restart()
	if got := c.balanceAt(t, 1); got != 100 {
		t.Fatalf("P1 balance = %d, want 100", got)
	}
}

func TestParticipantCrashAfterPrepareRecoversCommit(t *testing.T) {
	// The in-doubt participant case: P2 prepared, then missed the
	// decision; recovery asks the coordinator and applies the logged
	// write set.
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	c.coord.TestHooks.AfterPrepare = func() {
		// Cut P2 off between the vote and the completion phase.
		c.net.Partition(c.nodes[0].ID(), c.nodes[2].ID())
	}
	err := transfer(ctx, c, 1, 2, 25)
	if err != nil {
		t.Fatalf("Commit should succeed once the decision is durable: %v", err)
	}
	// P1 applied; P2 has not.
	if got := c.balanceAt(t, 1); got != 75 {
		t.Fatalf("P1 = %d", got)
	}
	if got, _ := c.stableBalanceAt(t, 2); got == 125 {
		t.Fatal("P2 must not have applied yet")
	}

	// P2 crashes (losing its in-memory action), network heals, P2
	// recovers: it must learn the commit decision and apply.
	c.nodes[2].Crash()
	c.net.Heal(c.nodes[0].ID(), c.nodes[2].ID())
	c.nodes[2].Restart()

	if got, ok := c.stableBalanceAt(t, 2); !ok || got != 125 {
		t.Fatalf("P2 stable after recovery = %d, %v; want 125", got, ok)
	}
	if got := c.balanceAt(t, 2); got != 125 {
		t.Fatalf("P2 reactivated balance = %d, want 125", got)
	}
}

func TestParticipantPreparedCoordinatorNeverDecidedPresumedAbort(t *testing.T) {
	// P2 prepared but the coordinator crashed before forcing the
	// decision: on recovery P2 must presume abort.
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	crashed := make(chan struct{})
	c.coord.TestHooks.AfterPrepare = func() {
		c.nodes[0].Crash() // coordinator dies before the decision record
		close(crashed)
	}
	txn, err := c.coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Two participants: a single one would be handed the decision in one
	// step, with no prepared state to leave in doubt.
	if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: -40}, nil); err != nil {
		t.Fatal(err)
	}
	if err := txn.Invoke(ctx, c.nodes[2].ID(), "bank", "add", addArg{Delta: 40}, nil); err != nil {
		t.Fatal(err)
	}
	_ = txn.Commit(ctx) // outcome irrelevant: coordinator is dead
	<-crashed

	// P2 crashes and recovers; coordinator restarts with no decision
	// record for the action.
	c.nodes[2].Crash()
	c.nodes[0].Restart()
	c.nodes[2].Restart()

	if got := c.balanceAt(t, 2); got != 100 {
		t.Fatalf("P2 balance = %d, want 100 (presumed abort)", got)
	}
	pendingLog, err := c.nodes[2].Stable().Intentions().Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pendingLog) != 0 {
		t.Fatalf("P2 still has %d pending intentions", len(pendingLog))
	}
}

func TestCoordinatorCrashAfterDecisionRedrivesCompletion(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	c.coord.TestHooks.AfterDecision = func() {
		// Both participants unreachable for the completion phase.
		c.net.Partition(c.nodes[0].ID(), c.nodes[1].ID())
		c.net.Partition(c.nodes[0].ID(), c.nodes[2].ID())
	}
	if err := transfer(ctx, c, 1, 2, 10); err != nil {
		t.Fatalf("Commit = %v (decision was durable)", err)
	}

	// Coordinator crashes; on restart it owes both writers the commit.
	c.nodes[0].Crash()
	c.net.Heal(c.nodes[0].ID(), c.nodes[1].ID())
	c.net.Heal(c.nodes[0].ID(), c.nodes[2].ID())
	c.nodes[0].Restart()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if got1 := c.balanceAt(t, 1); got1 == 90 {
			if got2 := c.balanceAt(t, 2); got2 == 110 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("completion not re-driven: P1=%d P2=%d",
				c.balanceAt(t, 1), c.balanceAt(t, 2))
		}
		// Recovery may have raced the heal; nudge it.
		if _, err := c.coord.RecoverPending(ctx); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The last writer's ack, which follows its install, forgets the
	// decision record.
	if err := waitUntil(func() bool { return len(pendingAt(t, c, 0)) == 0 }); err != nil {
		t.Fatalf("coordinator still has %d pending records", len(pendingAt(t, c, 0)))
	}
}

func TestCommitUnderMessageLoss(t *testing.T) {
	// Retransmission keeps every commit correct as message loss rises:
	// each transfer commits and is applied at both participants.
	for _, loss := range []float64{0, 0.1, 0.3} {
		t.Run(fmt.Sprintf("loss=%.0f%%", loss*100), func(t *testing.T) {
			c := newCluster(t, netsim.Config{LossRate: loss, Seed: 9})
			ctx := context.Background()

			for i := 0; i < 5; i++ {
				if err := transfer(ctx, c, 1, 2, 4); err != nil {
					t.Fatalf("transfer %d under loss: %v", i, err)
				}
			}
			if got := c.balanceAt(t, 1); got != 80 {
				t.Fatalf("P1 = %d, want 80", got)
			}
			if got := c.balanceAt(t, 2); got != 120 {
				t.Fatalf("P2 = %d, want 120", got)
			}
		})
	}
}

func TestTxnAfterCommitRejected(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()
	txn, err := c.coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "get", struct{}{}, nil); !errors.Is(err, dist.ErrDone) {
		t.Fatalf("Invoke after commit = %v, want ErrDone", err)
	}
	if err := txn.Commit(ctx); !errors.Is(err, dist.ErrDone) {
		t.Fatalf("double Commit = %v, want ErrDone", err)
	}
	if err := txn.Abort(ctx); err != nil {
		t.Fatalf("Abort after commit = %v, want nil no-op", err)
	}
}

func TestUnknownResource(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()
	err := c.coord.Run(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, c.nodes[1].ID(), "nosuch", "op", struct{}{}, nil)
	})
	var remote *rpc.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("Invoke = %v, want RemoteError", err)
	}
}

func TestConcurrentDistributedTransfersConserveTotal(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	const n = 10
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		from := 1 + i%2
		to := 1 + (i+1)%2
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Failures (deadlock aborts) are fine; atomicity must
			// hold regardless.
			_ = transfer(ctx, c, from, to, 3)
		}()
	}
	wg.Wait()
	// Aborts of failed contacts (timed-out invokes that executed
	// anyway) are delivered asynchronously; poll until the ghosts are
	// cleaned up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		total := c.balanceAt(t, 1) + c.balanceAt(t, 2)
		if total == 200 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("total = %d, want 200", total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
