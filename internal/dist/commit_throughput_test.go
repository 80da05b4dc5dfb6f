package dist_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mca/internal/clock"
	"mca/internal/dist"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/rpc"
	"mca/internal/workload"
)

// throughputCluster builds a coordinator plus two participants, each
// participant hosting one bank per worker so concurrent transactions
// touch disjoint objects (throughput is then bounded by commit forces,
// not lock contention).
func throughputCluster(t *testing.T, workers int, forceDelay time.Duration) (*dist.Manager, [2]*node.Node, [][2]*bank) {
	t.Helper()
	nw := netsim.New(netsim.Config{})
	t.Cleanup(nw.Close)
	rpcOpts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 2 * time.Second}

	cn, err := node.New(nw, node.WithRPCOptions(rpcOpts))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cn.Stop)
	coord := dist.NewManager(cn)
	cn.Stable().WAL().SetForceDelay(forceDelay)

	var parts [2]*node.Node
	banks := make([][2]*bank, workers)
	for i := 0; i < 2; i++ {
		pn, err := node.New(nw, node.WithRPCOptions(rpcOpts))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pn.Stop)
		pn.Stable().WAL().SetForceDelay(forceDelay)
		mgr := dist.NewManager(pn)
		for w := 0; w < workers; w++ {
			b := newBank(100)
			pn.Host(b)
			mgr.RegisterResource(fmt.Sprintf("bank%d", w), b)
			banks[w][i] = b
		}
		parts[i] = pn
	}
	return coord, parts, banks
}

// TestCommitThroughputSmoke is the short-mode commit-path smoke test:
// concurrent disjoint transfers over a store with a simulated per-force
// latency must all commit and conserve every account pair. It rides in
// CI under -race, so it keeps the volume small; the full measurement
// lives in experiment E23.
func TestCommitThroughputSmoke(t *testing.T) {
	const (
		workers = 8
		txns    = 5
	)
	coord, parts, banks := throughputCluster(t, workers, 300*time.Microsecond)
	ctx := context.Background()

	res := workload.Run(clock.Real(), workers, txns, func(w, _ int) error {
		resource := fmt.Sprintf("bank%d", w)
		return coord.Run(ctx, func(txn *dist.Txn) error {
			if err := txn.Invoke(ctx, parts[0].ID(), resource, "add", addArg{Delta: -1}, nil); err != nil {
				return err
			}
			return txn.Invoke(ctx, parts[1].ID(), resource, "add", addArg{Delta: 1}, nil)
		})
	})
	if res.Errors != 0 {
		t.Fatalf("commit smoke: %d/%d transactions failed: %v", res.Errors, res.Ops, res.ErrKinds)
	}
	for w := 0; w < workers; w++ {
		a, b := banks[w][0].balance(), banks[w][1].balance()
		if a != 100-txns || b != 100+txns {
			t.Fatalf("worker %d balances = %d/%d, want %d/%d", w, a, b, 100-txns, 100+txns)
		}
	}
}

// TestConcurrentCommitsShareForces asserts the point of the WAL: many
// transactions in flight on a node must share group-commit forces
// instead of paying one force per log record.
func TestConcurrentCommitsShareForces(t *testing.T) {
	if testing.Short() {
		t.Skip("force-sharing measurement skipped in -short mode")
	}
	const (
		workers = 8
		txns    = 10
	)
	coord, parts, _ := throughputCluster(t, workers, time.Millisecond)
	ctx := context.Background()

	res := workload.Run(clock.Real(), workers, txns, func(w, _ int) error {
		resource := fmt.Sprintf("bank%d", w)
		return coord.Run(ctx, func(txn *dist.Txn) error {
			if err := txn.Invoke(ctx, parts[0].ID(), resource, "add", addArg{Delta: -1}, nil); err != nil {
				return err
			}
			return txn.Invoke(ctx, parts[1].ID(), resource, "add", addArg{Delta: 1}, nil)
		})
	})
	if res.Errors != 0 {
		t.Fatalf("%d/%d transactions failed: %v", res.Errors, res.Ops, res.ErrKinds)
	}

	// Each committed transaction logs a prepare and a forget at every
	// participant: 160 records against a 1ms force. With 8 workers in
	// flight, group commit must do far fewer forces than records — the
	// pre-WAL path paid one force each.
	flushes, records := parts[0].Stable().WAL().Stats()
	if records < workers*txns {
		t.Fatalf("participant logged %d records, want >= %d", records, workers*txns)
	}
	if flushes >= records {
		t.Fatalf("flushes = %d for %d records: commits never shared a force", flushes, records)
	}
	t.Logf("participant WAL: %d records in %d flushes (%.1f records/force)",
		records, flushes, float64(records)/float64(flushes))
}

// TestReadOnlyParticipantSkipsLog asserts the presumed-abort read-only
// optimisation: a participant that only read votes yes without forcing
// anything, commits (releasing its locks) at prepare, and is excluded
// from phase 2.
func TestReadOnlyParticipantSkipsLog(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	_, before := c.nodes[1].Stable().WAL().Stats()
	var bal balanceResp
	err := c.coord.Run(ctx, func(txn *dist.Txn) error {
		if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "get", struct{}{}, &bal); err != nil {
			return err
		}
		return txn.Invoke(ctx, c.nodes[2].ID(), "bank", "add", addArg{Delta: 1}, nil)
	})
	if err != nil {
		t.Fatalf("commit with read-only participant: %v", err)
	}
	if bal.Balance != 100 {
		t.Fatalf("read balance = %d, want 100", bal.Balance)
	}
	if got := c.balanceAt(t, 2); got != 101 {
		t.Fatalf("writer balance = %d, want 101", got)
	}

	// The read-only participant never forced a log record — no prepare
	// record, and nothing for phase 2 or an abort round to forget.
	_, after := c.nodes[1].Stable().WAL().Stats()
	if after != before {
		t.Fatalf("read-only participant logged %d records, want 0", after-before)
	}

	// Its locks were released at prepare: a second transaction writing
	// the same account must get through.
	ctx2, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := transfer(ctx2, c, 1, 2, 5); err != nil {
		t.Fatalf("write after read-only commit: %v (lock leaked?)", err)
	}
}

// TestAllReadOnlyCommitSkipsDecision: when every participant voted
// read-only there is nothing to redo anywhere, so the coordinator skips
// the decision force and phase 2 entirely.
func TestAllReadOnlyCommitSkipsDecision(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	_, before := c.nodes[0].Stable().WAL().Stats()
	err := c.coord.Run(ctx, func(txn *dist.Txn) error {
		for _, i := range []int{1, 2} {
			var bal balanceResp
			if err := txn.Invoke(ctx, c.nodes[i].ID(), "bank", "get", struct{}{}, &bal); err != nil {
				return err
			}
			if bal.Balance != 100 {
				return fmt.Errorf("balance at %d = %d, want 100", i, bal.Balance)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("all-read-only commit: %v", err)
	}
	_, after := c.nodes[0].Stable().WAL().Stats()
	if after != before {
		t.Fatalf("coordinator forced %d records for an all-read-only commit, want 0", after-before)
	}
	for _, nd := range c.nodes {
		pending, err := nd.Stable().Intentions().Pending()
		if err != nil {
			t.Fatal(err)
		}
		if len(pending) != 0 {
			t.Fatalf("node %v holds %d records after an all-read-only commit", nd.ID(), len(pending))
		}
	}
}
