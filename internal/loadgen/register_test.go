package loadgen_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"mca/internal/dist"
	"mca/internal/loadgen"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/rpc"
	"mca/internal/store"
)

// TestRegisterInDoubtReadsDecidedValue: a register whose cell is in doubt
// at its node's restart, with the coordinator down, is not activated until
// the record resolves, and then holds the decided value — not the state it
// had before the transaction, which an activation at the restart would
// have kept.
func TestRegisterInDoubtReadsDecidedValue(t *testing.T) {
	nw := netsim.New(netsim.Config{})
	t.Cleanup(nw.Close)
	opts := node.WithRPCOptions(rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 100 * time.Millisecond})
	var (
		nodes [3]*node.Node
		mgrs  [3]*dist.Manager
		regs  [3]*loadgen.Register
	)
	for i := range nodes {
		nd, err := node.New(nw, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		nodes[i], mgrs[i], regs[i] = nd, dist.NewManager(nd), loadgen.NewRegister()
		nd.Host(regs[i])
		mgrs[i].RegisterResource("kv", regs[i])
	}
	ctx := context.Background()

	// The coordinator dies once its decision is durable: both writers are
	// prepared, and the commit reaches neither.
	mgrs[0].TestHooks.AfterDecision = func() { nodes[0].Crash() }
	_ = mgrs[0].Run(ctx, func(txn *dist.Txn) error {
		for _, nd := range nodes[1:] {
			if err := txn.Invoke(ctx, nd.ID(), "kv", "add", loadgen.Delta{Delta: 5}, nil); err != nil {
				return err
			}
		}
		return nil
	})

	nodes[1].Crash()
	nodes[1].Restart()
	if _, err := regs[1].Value(); !errors.Is(err, store.ErrUnresolved) {
		t.Fatalf("Value while in doubt = %v, want %v", err, store.ErrUnresolved)
	}
	nodes[0].Restart()
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, err := regs[1].Value()
		if err == nil {
			if got := m.Peek(); got != 5 {
				t.Fatalf("register = %d once its record resolved, want 5 (committed)", got)
			}
			return
		}
		if !errors.Is(err, store.ErrUnresolved) || time.Now().After(deadline) {
			t.Fatalf("Value = %v, want the committed register", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
