package dist_test

import (
	"context"
	"testing"
	"time"

	"mca/internal/dist"
	"mca/internal/ids"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/rpc"
	"mca/internal/trace"
)

// fanoutCluster builds a coordinator and n bank participants on a
// fresh fault-free simulated LAN.
func fanoutCluster(t *testing.T, n int, opts rpc.Options) (*dist.Manager, []*node.Node) {
	t.Helper()
	nw := netsim.New(netsim.Config{})
	t.Cleanup(nw.Close)
	coordNode, err := node.New(nw, node.WithRPCOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coordNode.Stop)
	coord := dist.NewManager(coordNode)
	nodes := make([]*node.Node, n)
	for i := 0; i < n; i++ {
		nd, err := node.New(nw, node.WithRPCOptions(opts))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		mgr := dist.NewManager(nd)
		b := newBank(100)
		nd.Host(b)
		mgr.RegisterResource("bank", b)
		nodes[i] = nd
	}
	return coord, nodes
}

// TestRoundObserverRecordsFanoutRounds threads commit-protocol rounds
// into a trace recorder: a plain two-participant transaction runs one
// prepare round and no commit round — its commits ride later traffic —
// while a structure constituent still runs its commit round, and the
// structure's end is a round too. Rounds over several participants fan
// out.
func TestRoundObserverRecordsFanoutRounds(t *testing.T) {
	opts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 2 * time.Second}
	ctx := context.Background()

	rec := trace.NewRecorder()
	coord, nodes := fanoutCluster(t, 2, opts)
	coord.OnRound = rec.ObserveRound

	var plain ids.ActionID
	err := coord.Run(ctx, func(txn *dist.Txn) error {
		plain = txn.ID()
		for _, nd := range nodes {
			if err := txn.Invoke(ctx, nd.ID(), "bank", "add", addArg{Delta: 1}, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run = %v", err)
	}

	s, err := coord.BeginRemoteSerializing()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunConstituent(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, nodes[0].ID(), "bank", "add", addArg{Delta: 1}, nil)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.End(ctx); err != nil {
		t.Fatal(err)
	}

	sum := rec.RoundSummary()
	if sum[trace.RoundPrepare] != 2 || sum[trace.RoundCommit] != 1 || sum[trace.RoundStructure] != 1 {
		t.Fatalf("round summary %v, want 2 prepare, 1 commit (the constituent's), 1 structure", sum)
	}
	for _, ev := range rec.Rounds() {
		if ev.Kind == trace.RoundRelease {
			continue // the flusher delivering the plain transaction's commits
		}
		if ev.Err != nil {
			t.Fatalf("round %v of txn %v failed: %v", ev.Kind, ev.Txn, ev.Err)
		}
		if ev.Participants != ev.OK {
			t.Fatalf("round %v: %d/%d participants ok", ev.Kind, ev.OK, ev.Participants)
		}
		if ev.Txn == ids.ActionID(0) {
			t.Fatalf("round %v without txn id", ev.Kind)
		}
		if ev.Kind == trace.RoundCommit && ev.Txn == plain {
			t.Fatalf("the plain transaction %v ran a commit round", plain)
		}
		if ev.Parallel != (ev.Participants > 1) {
			t.Fatalf("round %v recorded Parallel=%v over %d participants", ev.Kind, ev.Parallel, ev.Participants)
		}
	}
}

// TestAbortRoundObserved checks that an explicit Abort broadcasts one
// abort round over every participant.
func TestAbortRoundObserved(t *testing.T) {
	opts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 2 * time.Second}
	ctx := context.Background()
	rec := trace.NewRecorder()
	coord, nodes := fanoutCluster(t, 3, opts)
	coord.OnRound = rec.ObserveRound

	txn, err := coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		if err := txn.Invoke(ctx, nd.ID(), "bank", "add", addArg{Delta: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	var abortRound *trace.RoundEvent
	for _, ev := range rec.Rounds() {
		if ev.Kind == trace.RoundAbort {
			ev := ev
			abortRound = &ev
		}
	}
	if abortRound == nil {
		t.Fatal("no abort round recorded")
	}
	if abortRound.Participants != 3 || abortRound.OK != 3 {
		t.Fatalf("abort round = %d/%d ok, want 3/3", abortRound.OK, abortRound.Participants)
	}
}
