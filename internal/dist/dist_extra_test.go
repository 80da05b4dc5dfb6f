package dist_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/dist"
	"mca/internal/ids"
	"mca/internal/netsim"
	"mca/internal/store"
)

func TestResourceFuncAdapter(t *testing.T) {
	called := false
	var f dist.Resource = dist.ResourceFunc(func(a *action.Action, op string, arg []byte) ([]byte, error) {
		called = true
		if op != "ping" {
			t.Errorf("op = %q", op)
		}
		return []byte("{}"), nil
	})
	if _, err := f.Invoke(nil, "ping", nil); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("adapter did not call through")
	}
}

func TestTxnAccessors(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	txn, err := c.coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if txn.Action() == nil {
		t.Fatal("coordinator-local action must exist")
	}
	if got := txn.Participants(); len(got) != 0 {
		t.Fatalf("participants before any invoke = %v", got)
	}
	if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if got := txn.Participants(); len(got) != 1 || got[0] != c.nodes[1].ID() {
		t.Fatalf("participants = %v", got)
	}
	// The same node enlists once.
	if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if got := txn.Participants(); len(got) != 1 {
		t.Fatalf("participants after repeat = %v", got)
	}
	if err := txn.Abort(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestFailedContactNeverCommits(t *testing.T) {
	// An invoke that fails (crashed node) must not make the node a
	// commit participant; the transaction still commits on the
	// healthy leg, and the dead node's ghost state is aborted.
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	c.nodes[2].Crash()
	txn, err := c.coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: 5}, nil); err != nil {
		t.Fatal(err)
	}
	if err := txn.Invoke(ctx, c.nodes[2].ID(), "bank", "add", addArg{Delta: 5}, nil); err == nil {
		t.Fatal("invoke to crashed node must fail")
	}
	// The application decides to commit anyway with the one leg.
	if err := txn.Commit(ctx); err != nil {
		t.Fatalf("commit with failed contact = %v", err)
	}
	if got := c.balanceAt(t, 1); got != 105 {
		t.Fatalf("P1 = %d", got)
	}
	c.nodes[2].Restart()
	if got := c.balanceAt(t, 2); got != 100 {
		t.Fatalf("P2 = %d, want untouched 100", got)
	}
}

func TestTombstoneRejectsLateInvoke(t *testing.T) {
	// After an abort was processed at a participant, a late invoke
	// for the same transaction must be refused rather than resurrect
	// a participant action.
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	txn, err := c.coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	// Simulate the late/replayed invoke arriving after the abort:
	// drive the participant handler directly over RPC with the same
	// transaction id.
	req := struct {
		Txn      uint64 `json:"txn"`
		Resource string `json:"resource"`
		Op       string `json:"op"`
		Arg      any    `json:"arg"`
	}{Txn: uint64(txn.ID()), Resource: "bank", Op: "add", Arg: addArg{Delta: 100}}
	err = c.coord.Node().Peer().Call(ctx, c.nodes[1].ID(), "dist.invoke", req, nil)
	if err == nil {
		t.Fatal("late invoke for an aborted transaction must be refused")
	}
	if got := c.balanceAt(t, 1); got != 100 {
		t.Fatalf("P1 = %d, want 100 (no ghost execution)", got)
	}
}

// TestRestartedNodeRefusesOnlyInDoubtObjects: a participant that restarts
// in doubt while its coordinator is out of reach serves new work at once;
// only the object its prepared record writes is refused, until the record
// resolves, and then it shows the decided state.
func TestRestartedNodeRefusesOnlyInDoubtObjects(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	// Put P1 in doubt: prepared, decision unreachable.
	c.coord.TestHooks.AfterPrepare = func() {
		c.net.Partition(c.nodes[0].ID(), c.nodes[1].ID())
	}
	if err := transfer(ctx, c, 1, 2, 10); err != nil {
		t.Fatal(err)
	}
	c.coord.TestHooks.AfterPrepare = nil

	// P1 crashes and restarts while still partitioned from the
	// coordinator. It begins, and serves, at once.
	c.nodes[1].Crash()
	c.nodes[1].Restart()
	if _, err := readAt(ctx, c.parts[0], c.nodes[2].ID()); err != nil {
		t.Fatalf("a transaction begun at the restarted node = %v, want it served", err)
	}
	// Its own account, which the record in doubt writes, is refused.
	if _, err := readAt(ctx, c.parts[0], c.nodes[1].ID()); !errors.Is(err, store.ErrUnresolved) {
		t.Fatalf("read of the in-doubt account = %v, want %v", err, store.ErrUnresolved)
	}

	// Heal: background recovery resolves the record as committed, and the
	// account activates with the write set installed.
	c.net.Heal(c.nodes[0].ID(), c.nodes[1].ID())
	if err := waitUntil(func() bool {
		got, err := readAt(ctx, c.parts[0], c.nodes[1].ID())
		return err == nil && got == 90
	}); err != nil {
		t.Fatalf("the account never showed the committed transfer: %v", err)
	}
}

// readAt reads the bank account at node in a transaction coordinated by
// mgr.
func readAt(ctx context.Context, mgr *dist.Manager, node ids.NodeID) (int, error) {
	var out balanceResp
	err := mgr.Run(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, node, "bank", "get", struct{}{}, &out)
	})
	return out.Balance, err
}

func waitUntil(cond func() bool) error {
	for i := 0; i < 200; i++ {
		if cond() {
			return nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return errors.New("condition never became true")
}

func TestAsymmetricPartitionDuringCompletion(t *testing.T) {
	// Replies from the participant are lost (participant -> coord
	// dropped) while requests still arrive: a continuation reopens the
	// participant's vote, and it votes again in the prepare round, but
	// the coordinator sees neither reply. With presumed abort the
	// coordinator must abort — so the silence keeps atomicity.
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	txn, err := c.coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: -5}, nil); err != nil {
		t.Fatal(err)
	}
	if err := txn.Invoke(ctx, c.nodes[2].ID(), "bank", "add", addArg{Delta: 5}, nil); err != nil {
		t.Fatal(err)
	}
	// Cut the reply path only. The continuation takes back P1's vote, and
	// its reply never arrives.
	c.net.PartitionOneWay(c.nodes[1].ID(), c.coord.Node().ID())
	short, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	err = txn.Invoke(short, c.nodes[1].ID(), "bank", "add", addArg{Delta: -1}, nil)
	cancel()
	if err == nil {
		t.Fatal("the continuation's reply got through the partition")
	}
	err = txn.Commit(ctx)
	if !errors.Is(err, dist.ErrAborted) {
		t.Fatalf("Commit = %v, want ErrAborted (vote unseen)", err)
	}

	// Heal; the participant's prepared record resolves to abort via
	// the decision query (presumed abort), restoring the balance.
	c.net.Heal(c.nodes[1].ID(), c.coord.Node().ID())
	c.nodes[1].Crash()
	c.nodes[1].Restart()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := c.balanceAt(t, 1); got == 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("P1 = %d, want 100", c.balanceAt(t, 1))
		}
		time.Sleep(10 * time.Millisecond)
	}
	pending, err := c.nodes[1].Stable().Intentions().Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("pending intentions = %d, want 0", len(pending))
	}
}
