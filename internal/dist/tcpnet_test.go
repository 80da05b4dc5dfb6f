package dist_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mca/internal/dist"
	"mca/internal/node"
	"mca/internal/rpc"
	"mca/internal/tcpnet"
	"mca/internal/workload"
)

// tcpCluster hosts a coordinator and two participants on real loopback
// sockets via node.NewOn: the full 2PC stack — WAL, locks, recovery —
// unchanged, only the transport swapped.
func tcpCluster(t *testing.T, workers int) (*dist.Manager, [2]*node.Node, [][2]*bank) {
	t.Helper()
	nw := tcpnet.NewNetwork()
	rpcOpts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 2 * time.Second}

	newNode := func() *node.Node {
		ep, err := nw.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nd, err := node.NewOn(ep, node.WithRPCOptions(rpcOpts))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		return nd
	}

	cn := newNode()
	coord := dist.NewManager(cn)

	var parts [2]*node.Node
	banks := make([][2]*bank, workers)
	for i := 0; i < 2; i++ {
		pn := newNode()
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

// TestCommitOverTCP runs concurrent two-phase commits over real TCP
// sockets with the binary codec and coalescing writer on the path: all
// transfers must commit and conserve every account pair, exactly as
// over the simulated LAN.
func TestCommitOverTCP(t *testing.T) {
	const (
		workers = 8
		txns    = 5
	)
	coord, parts, banks := tcpCluster(t, workers)
	ctx := context.Background()

	res := workload.Run(workers, txns, func(w, _ int) error {
		resource := fmt.Sprintf("bank%d", w)
		return coord.Run(ctx, func(txn *dist.Txn) error {
			if err := txn.Invoke(ctx, parts[0].ID(), resource, "add", addArg{Delta: -1}, nil); err != nil {
				return err
			}
			return txn.Invoke(ctx, parts[1].ID(), resource, "add", addArg{Delta: 1}, nil)
		})
	})
	if res.Errors != 0 {
		t.Fatalf("2PC over TCP: %d/%d transactions failed: %v", res.Errors, res.Ops, res.ErrKinds)
	}
	for w := 0; w < workers; w++ {
		a, b := banks[w][0].balance(), banks[w][1].balance()
		if a != 100-txns || b != 100+txns {
			t.Fatalf("worker %d balances = %d/%d, want %d/%d", w, a, b, 100-txns, 100+txns)
		}
	}
}

// TestCommitOverTCPSurvivesParticipantCrash: crash a participant mid
// workload, restart it, and the cluster must keep committing — the
// recovery protocol rides the TCP endpoint's Crash/Restart exactly as
// it rides netsim's.
func TestCommitOverTCPSurvivesParticipantCrash(t *testing.T) {
	coord, parts, banks := tcpCluster(t, 1)
	ctx := context.Background()

	transfer := func() error {
		return coord.Run(ctx, func(txn *dist.Txn) error {
			if err := txn.Invoke(ctx, parts[0].ID(), "bank0", "add", addArg{Delta: -1}, nil); err != nil {
				return err
			}
			return txn.Invoke(ctx, parts[1].ID(), "bank0", "add", addArg{Delta: 1}, nil)
		})
	}
	if err := transfer(); err != nil {
		t.Fatalf("transfer before crash: %v", err)
	}

	parts[1].Crash()
	// With a participant down the transfer cannot prepare; it must fail
	// cleanly (abort), not hang or corrupt balances.
	cctx, cancel := context.WithTimeout(ctx, 3*time.Second)
	err := coord.Run(cctx, func(txn *dist.Txn) error {
		if err := txn.Invoke(cctx, parts[0].ID(), "bank0", "add", addArg{Delta: -1}, nil); err != nil {
			return err
		}
		return txn.Invoke(cctx, parts[1].ID(), "bank0", "add", addArg{Delta: 1}, nil)
	})
	cancel()
	if err == nil {
		t.Fatal("transfer succeeded against a crashed participant")
	}

	parts[1].Restart()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := transfer(); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("transfer still failing after restart: %v", err)
		}
	}
	a, b := banks[0][0].balance(), banks[0][1].balance()
	if a+b != 200 {
		t.Fatalf("balances %d+%d do not conserve 200", a, b)
	}
}
