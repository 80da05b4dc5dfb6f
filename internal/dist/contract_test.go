package dist_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/dist"
	"mca/internal/netsim"
	"mca/internal/object"
)

// TestOverlappingInvokeIsRefused pins Invoke's concurrency contract: two
// goroutines invoke on one transaction, the first held inside its
// resource at node 1. The second fails at once with ErrOverlappingInvoke,
// with no stall near the attempt timeout, and runs nothing; the first
// succeeds and the transaction commits.
func TestOverlappingInvokeIsRefused(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()
	entered, release := make(chan struct{}), make(chan struct{})
	c.parts[0].RegisterResource("gate", dist.ResourceFunc(func(*action.Action, string, []byte) ([]byte, error) {
		select {
		case entered <- struct{}{}:
		default: // a retransmission of the held call
		}
		<-release
		return nil, nil
	}))
	txn, err := c.coord.Begin()
	if err != nil {
		t.Fatal(err)
	}

	first := make(chan error, 1)
	go func() { first <- txn.Invoke(ctx, c.nodes[1].ID(), "gate", "hold", nil, nil) }()
	<-entered
	second := make(chan error, 1)
	start := time.Now()
	go func() { second <- txn.Invoke(ctx, c.nodes[2].ID(), "bank", "add", addArg{Delta: 1}, nil) }()
	err = <-second
	took := time.Since(start)
	close(release)
	if !errors.Is(err, dist.ErrOverlappingInvoke) {
		t.Fatalf("overlapping Invoke = %v, want %v", err, dist.ErrOverlappingInvoke)
	}
	if took > 100*time.Millisecond { // the attempt timeout is 300 ms
		t.Fatalf("overlapping Invoke took %v to fail, want at once", took)
	}
	if err := <-first; err != nil {
		t.Fatalf("the first Invoke = %v, want success", err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := c.balanceAt(t, 2); got != 100 {
		t.Fatalf("node 2's balance = %d, want 100: the refused Invoke ran", got)
	}
}

// TestRestartWaitsOneCallTimeoutForASilentCoordinator pins what Recover's
// first pass costs node.Restart: a participant restarts with a prepared
// record whose coordinator it cannot reach, and Restart returns within one
// RPC call timeout plus slack, the record still in doubt. Once the link
// heals, the record resolves to its commit.
func TestRestartWaitsOneCallTimeoutForASilentCoordinator(t *testing.T) {
	const callTimeout = 300 * time.Millisecond // newCluster's
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()
	c.coord.TestHooks.AfterPrepare = func() {
		c.net.Partition(c.nodes[0].ID(), c.nodes[2].ID()) // P2 never hears the commit
	}
	if err := transfer(ctx, c, 1, 2, 25); err != nil {
		t.Fatal(err)
	}
	pending := func() int {
		in, err := c.nodes[2].Stable().Intentions().Pending()
		if err != nil {
			t.Fatal(err)
		}
		return len(in)
	}

	c.nodes[2].Crash()
	start := time.Now()
	if err := c.nodes[2].Restart(); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	t.Logf("Restart took %v", took)
	if took > callTimeout+time.Second {
		t.Fatalf("Restart took %v, want at most one call timeout (%v) plus slack", took, callTimeout)
	}
	if n := pending(); n != 1 {
		t.Fatalf("%d records pending after Restart, want the one in doubt", n)
	}

	c.net.Heal(c.nodes[0].ID(), c.nodes[2].ID())
	if err := waitUntil(func() bool {
		m, err := object.Load[int](c.banks[2].acctID, c.nodes[2].Stable())
		return err == nil && m.Peek() == 125 && pending() == 0
	}); err != nil {
		t.Fatalf("the record did not resolve to its commit once the link healed (%d pending)", pending())
	}
}
