package dist_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"mca/internal/clock"
	"mca/internal/dist"
	"mca/internal/netsim"
)

// TestRemoteSerializingHappyPath: two constituents across two nodes;
// the first constituent's locks stay with the per-node containers; the
// second constituent reuses them; End installs both everywhere and
// releases everything. TestConstituentSurvivesParticipantCrashesBeforeEnd
// shows a constituent permanent before End.
func TestRemoteSerializingHappyPath(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	s, err := c.coord.BeginRemoteSerializing()
	if err != nil {
		t.Fatal(err)
	}

	// Constituent B: credit both participants.
	err = s.RunConstituent(ctx, func(txn *dist.Txn) error {
		if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: 10}, nil); err != nil {
			return err
		}
		return txn.Invoke(ctx, c.nodes[2].ID(), "bank", "add", addArg{Delta: 20}, nil)
	})
	if err != nil {
		t.Fatalf("constituent B: %v", err)
	}

	// B's effects are protected: an unrelated transaction cannot touch
	// them (its participant action blocks behind the container's
	// retained locks until the RPC call times out).
	err = c.coord.Run(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: 1}, nil)
	})
	if err == nil {
		t.Fatal("outsider write during the structure must be blocked")
	}

	// Constituent C: touches the same remote objects again.
	err = s.RunConstituent(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: 5}, nil)
	})
	if err != nil {
		t.Fatalf("constituent C over retained locks: %v", err)
	}

	if err := s.End(ctx); err != nil {
		t.Fatalf("End: %v", err)
	}
	if got, ok := c.stableBalanceAt(t, 1); !ok || got != 115 {
		t.Fatalf("P1 stable = %d, %v; want 115", got, ok)
	}
	if got, ok := c.stableBalanceAt(t, 2); !ok || got != 120 {
		t.Fatalf("P2 stable = %d, %v; want 120", got, ok)
	}

	// Everything free now.
	if err := transfer(ctx, c, 1, 2, 1); err != nil {
		t.Fatalf("transfer after End: %v", err)
	}
	if got := c.balanceAt(t, 1); got != 114 {
		t.Fatalf("P1 = %d, want 114", got)
	}
	if got := c.balanceAt(t, 2); got != 121 {
		t.Fatalf("P2 = %d, want 121", got)
	}
}

// TestRemoteSerializingOutcomeIII: a committed constituent survives both
// a failed successor and the structure's cancellation.
func TestRemoteSerializingOutcomeIII(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	s, err := c.coord.BeginRemoteSerializing()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunConstituent(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: 50}, nil)
	}); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	err = s.RunConstituent(ctx, func(txn *dist.Txn) error {
		if err := txn.Invoke(ctx, c.nodes[2].ID(), "bank", "add", addArg{Delta: 50}, nil); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}

	if err := s.Cancel(ctx); err != nil {
		t.Fatalf("Cancel: %v", err)
	}

	if got := c.balanceAt(t, 1); got != 150 {
		t.Fatalf("P1 = %d, want 150 (B survives)", got)
	}
	if got := c.balanceAt(t, 2); got != 100 {
		t.Fatalf("P2 = %d, want 100 (C undone)", got)
	}

	// Locks released after Cancel.
	if err := transfer(ctx, c, 1, 2, 1); err != nil {
		t.Fatalf("transfer after Cancel: %v", err)
	}
}

// TestRemoteSerializingLocksSurviveBetweenConstituents reproduces the
// fig 3 protection across nodes: between constituents nothing else gets
// in, even at nodes only the first constituent touched.
func TestRemoteSerializingLocksSurviveBetweenConstituents(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	s, err := c.coord.BeginRemoteSerializing()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunConstituent(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: 1}, nil)
	}); err != nil {
		t.Fatal(err)
	}

	// A reader from an unrelated transaction is blocked too (the
	// container holds an exclusive-read companion on the object).
	err = c.coord.Run(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, c.nodes[1].ID(), "bank", "get", struct{}{}, &balanceResp{})
	})
	if err == nil {
		t.Fatal("outsider read during the structure must be blocked")
	}
	if err := s.End(ctx); err != nil {
		t.Fatal(err)
	}
	// Reads flow again.
	var out balanceResp
	err = c.coord.Run(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, c.nodes[1].ID(), "bank", "get", struct{}{}, &out)
	})
	if err != nil || out.Balance != 101 {
		t.Fatalf("read after End = %d, %v", out.Balance, err)
	}
}

// TestRemoteSerializingParticipantCrash: a participant crash releases
// that node's retained locks (they are volatile) but never undoes the
// committed constituent effects.
func TestRemoteSerializingParticipantCrash(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	s, err := c.coord.BeginRemoteSerializing()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunConstituent(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: 7}, nil)
	}); err != nil {
		t.Fatal(err)
	}

	c.nodes[1].Crash()
	c.nodes[1].Restart()

	// Effects survived the crash.
	if got := c.balanceAt(t, 1); got != 107 {
		t.Fatalf("P1 after crash = %d, want 107", got)
	}
	// The protection window is gone (locks are volatile): outsiders
	// may access again. This mirrors the local model, where a node
	// crash abandons its lock table.
	err = c.coord.Run(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: 1}, nil)
	})
	if err != nil {
		t.Fatalf("write after participant crash: %v", err)
	}
	// End still succeeds (the crashed node's container is simply
	// unknown there — idempotent).
	if err := s.End(ctx); err != nil {
		t.Fatalf("End after participant crash: %v", err)
	}
}

// TestRemoteSerializingCoordinatorLocalLeg: coordinator-local objects
// are retained by the coordinator-side container.
func TestRemoteSerializingCoordinatorLocalLeg(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	s, err := c.coord.BeginRemoteSerializing()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunConstituent(ctx, func(txn *dist.Txn) error {
		// banks[0] lives on the coordinator node itself.
		return txn.Invoke(ctx, c.nodes[0].ID(), "bank", "add", addArg{Delta: 3}, nil)
	}); err != nil {
		t.Fatal(err)
	}
	// Held by the local container: a plain local transaction is
	// blocked (bounded by the coordinator runtime having no max wait,
	// we use TryLock introspection instead).
	held := c.coord.Node().Runtime().Locks().HeldObjects(s.Container().ID())
	if len(held) == 0 {
		t.Fatal("coordinator container retains no locks")
	}
	if err := s.End(ctx); err != nil {
		t.Fatal(err)
	}
	if got := c.balanceAt(t, 0); got != 103 {
		t.Fatalf("coordinator bank = %d", got)
	}
}

// TestRemoteSerializingEndTwice and constituents-after-end are refused.
func TestRemoteSerializingLifecycleErrors(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	s, err := c.coord.BeginRemoteSerializing()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.End(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.End(ctx); !errors.Is(err, dist.ErrStructureEnded) {
		t.Fatalf("double End = %v, want ErrStructureEnded", err)
	}
	if err := s.Cancel(ctx); !errors.Is(err, dist.ErrStructureEnded) {
		t.Fatalf("Cancel after End = %v, want ErrStructureEnded", err)
	}
	if _, err := s.BeginConstituent(); !errors.Is(err, dist.ErrStructureEnded) {
		t.Fatalf("BeginConstituent after End = %v, want ErrStructureEnded", err)
	}
}

// TestRemoteSerializingDistributedMakePattern drives the fig 8 shape
// over the cluster: two "object files" on different nodes made
// concurrently as constituents, then a final link constituent reading
// both — all under one distributed serializing action.
func TestRemoteSerializingDistributedMakePattern(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	s, err := c.coord.BeginRemoteSerializing()
	if err != nil {
		t.Fatal(err)
	}

	// "Compile" constituents run concurrently on nodes 1 and 2.
	type result struct{ err error }
	results := make(chan result, 2)
	for i := 1; i <= 2; i++ {
		go func() {
			results <- result{err: s.RunConstituent(ctx, func(txn *dist.Txn) error {
				return txn.Invoke(ctx, c.nodes[i].ID(), "bank", "add", addArg{Delta: i * 10}, nil)
			})}
		}()
	}
	for range 2 {
		if r := <-results; r.err != nil {
			t.Fatalf("compile constituent: %v", r.err)
		}
	}

	// "Link" constituent reads both compiled artifacts.
	var b1, b2 balanceResp
	err = s.RunConstituent(ctx, func(txn *dist.Txn) error {
		if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "get", struct{}{}, &b1); err != nil {
			return err
		}
		return txn.Invoke(ctx, c.nodes[2].ID(), "bank", "get", struct{}{}, &b2)
	})
	if err != nil {
		t.Fatalf("link constituent: %v", err)
	}
	if b1.Balance != 110 || b2.Balance != 120 {
		t.Fatalf("link saw %d, %d", b1.Balance, b2.Balance)
	}
	if err := s.End(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestPlainTxnsUnaffectedByStructures: ordinary transactions have no
// structure info and behave exactly as before.
func TestPlainTxnsUnaffectedByStructures(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()
	if err := transfer(ctx, c, 1, 2, 5); err != nil {
		t.Fatal(err)
	}
	if got := c.balanceAt(t, 1); got != 95 {
		t.Fatalf("P1 = %d", got)
	}
}

// twoNodeConstituent runs one constituent of s that moves one unit from
// P1 to P2.
func twoNodeConstituent(ctx context.Context, c *cluster, s *dist.RemoteSerializing) error {
	return s.RunConstituent(ctx, func(txn *dist.Txn) error {
		if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: -1}, nil); err != nil {
			return err
		}
		return txn.Invoke(ctx, c.nodes[2].ID(), "bank", "add", addArg{Delta: 1}, nil)
	})
}

// TestConstituentCostsWhatATransferCosts pins a structure constituent to
// a plain transfer's budget, on both backings: a two-node writing
// constituent sends four datagrams — an invoke and its reply at each
// participant, each voting in its reply — and forces three records: the
// two votes and the decision. Its commits ride the next constituent's invokes, and the clock
// stands still, so nothing travels on its own. The structure's End is one
// end message per node, the last constituent's commit on board, each
// answered: four datagrams.
func TestConstituentCostsWhatATransferCosts(t *testing.T) {
	for _, backing := range []string{"memory", "file"} {
		t.Run(backing, func(t *testing.T) {
			c := backedClusterOn(t, backing == "file", clock.NewFake())
			ctx := context.Background()
			forces := func() (n uint64) {
				for _, nd := range c.nodes {
					f, _ := nd.Stable().WAL().Stats()
					n += f
				}
				return n
			}
			s, err := c.coord.BeginRemoteSerializing()
			if err != nil {
				t.Fatal(err)
			}
			const constituents = 10
			sent, forced := c.net.Stats().Sent, forces()
			for i := range constituents {
				if err := twoNodeConstituent(ctx, c, s); err != nil {
					t.Fatalf("constituent %d: %v", i, err)
				}
			}
			if got := c.net.Stats().Sent - sent; got != 4*constituents {
				t.Fatalf("%d constituents sent %d datagrams, want %d (2 invokes, each with its reply)", constituents, got, 4*constituents)
			}
			if got := forces() - forced; got != 3*constituents {
				t.Fatalf("%d constituents forced the logs %d times, want %d (2 votes + 1 decision each)", constituents, got, 3*constituents)
			}
			sent = c.net.Stats().Sent
			if err := s.End(ctx); err != nil {
				t.Fatalf("End: %v", err)
			}
			if got := c.net.Stats().Sent - sent; got != 4 {
				t.Fatalf("End sent %d datagrams, want 4 (an end message to each node, answered)", got)
			}
			for i, want := range map[int]int{1: 100 - constituents, 2: 100 + constituents} {
				if got, ok := c.stableBalanceAt(t, i); !ok || got != want {
					t.Fatalf("P%d stable = %d, %v after End; want %d", i, got, ok, want)
				}
			}
		})
	}
}

// TestRepeatedWritesCostOneReopenedVote pins the budget of a constituent
// that writes k times at each of two nodes, interleaved as
// examples/remotemeeting's rounds invoke its diaries. Only a first contact
// votes in its reply: a continuation reopens the vote, unforced, and
// leaves the node to the commit's prepare round. So a node invoked k > 1
// times costs one wasted force, not k: 2k invokes and their replies per
// node plus a prepare and its reply each, and five forces — the two
// first-contact votes, the two prepares and the decision. Once is the
// plain transfer's four datagrams and three forces.
func TestRepeatedWritesCostOneReopenedVote(t *testing.T) {
	for _, k := range []int{1, 2, 10} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			c := backedClusterOn(t, true, clock.NewFake())
			ctx := context.Background()
			forces := func() (n uint64) {
				for _, nd := range c.nodes {
					f, _ := nd.Stable().WAL().Stats()
					n += f
				}
				return n
			}
			s, err := c.coord.BeginRemoteSerializing()
			if err != nil {
				t.Fatal(err)
			}
			const constituents = 5
			sent, forced := c.net.Stats().Sent, forces()
			for i := range constituents {
				err := s.RunConstituent(ctx, func(txn *dist.Txn) error {
					for range k {
						for _, p := range []int{1, 2} {
							if err := txn.Invoke(ctx, c.nodes[p].ID(), "bank", "add", addArg{Delta: 1}, nil); err != nil {
								return err
							}
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("constituent %d: %v", i, err)
				}
			}
			wantSent, wantForced := 4*k, 3
			if k > 1 {
				wantSent, wantForced = 4*k+4, 5
			}
			if got := c.net.Stats().Sent - sent; got != wantSent*constituents {
				t.Fatalf("%d constituents of %d writes per node sent %d datagrams, want %d", constituents, k, got, wantSent*constituents)
			}
			if got := forces() - forced; got != uint64(wantForced*constituents) {
				t.Fatalf("%d constituents of %d writes per node forced the logs %d times, want %d", constituents, k, got, wantForced*constituents)
			}
			if err := s.End(ctx); err != nil {
				t.Fatalf("End: %v", err)
			}
			for _, i := range []int{1, 2} {
				if got, ok := c.stableBalanceAt(t, i); !ok || got != 100+k*constituents {
					t.Fatalf("P%d stable = %d, %v after End; want %d", i, got, ok, 100+k*constituents)
				}
			}
		})
	}
}

// TestConstituentCommitLostInFlight: the flusher sends a constituent's
// commits and the messages are lost. The structure's end carries them
// again: End installs the constituent and ends the containers, and Cancel
// keeps it too (outcome iii) — no container ends with the constituent
// still prepared in it.
func TestConstituentCommitLostInFlight(t *testing.T) {
	for _, end := range []string{"End", "Cancel"} {
		t.Run(end, func(t *testing.T) {
			clk := clock.NewFake()
			c := backedClusterOn(t, false, clk)
			ctx := context.Background()
			s, err := c.coord.BeginRemoteSerializing()
			if err != nil {
				t.Fatal(err)
			}
			if err := twoNodeConstituent(ctx, c, s); err != nil {
				t.Fatal(err)
			}
			coord := c.nodes[0].ID()
			for _, nd := range c.nodes[1:] {
				c.net.PartitionOneWay(coord, nd.ID())
			}
			lost := c.net.Stats().Lost
			clk.Advance(time.Millisecond) // the flush interval: the commits go out, and are lost
			if err := waitUntil(func() bool { return c.net.Stats().Lost-lost == 2 }); err != nil {
				t.Fatal("the flusher never sent the constituent's commits")
			}
			for _, nd := range c.nodes[1:] {
				c.net.Heal(coord, nd.ID())
			}
			finish := s.End
			if end == "Cancel" {
				finish = s.Cancel
			}
			if err := finish(ctx); err != nil {
				t.Fatalf("%s: %v", end, err)
			}
			for i, want := range map[int]int{1: 99, 2: 101} {
				if got, ok := c.stableBalanceAt(t, i); !ok || got != want {
					t.Fatalf("P%d stable = %d, %v after %s; want %d", i, got, ok, end, want)
				}
			}
			if err := transfer(ctx, c, 1, 2, 1); err != nil {
				t.Fatalf("transfer after %s: %v", end, err)
			}
		})
	}
}

// TestConstituentSurvivesParticipantCrashesBeforeEnd: a constituent is
// permanent once its Commit returns. Both participants crash before its
// commits reach them; after restart and recovery they hold its effects,
// and the structure still ends.
func TestConstituentSurvivesParticipantCrashesBeforeEnd(t *testing.T) {
	for _, backing := range []string{"memory", "file"} {
		t.Run(backing, func(t *testing.T) {
			c := backedClusterOn(t, backing == "file", clock.NewFake())
			ctx := context.Background()
			s, err := c.coord.BeginRemoteSerializing()
			if err != nil {
				t.Fatal(err)
			}
			if err := twoNodeConstituent(ctx, c, s); err != nil {
				t.Fatal(err)
			}
			for _, nd := range c.nodes[1:] {
				nd.Crash()
				nd.Restart()
			}
			for i, want := range map[int]int{1: 99, 2: 101} {
				if got, ok := c.stableBalanceAt(t, i); !ok || got != want {
					t.Fatalf("P%d stable = %d, %v after its restart; want %d", i, got, ok, want)
				}
			}
			if err := s.End(ctx); err != nil {
				t.Fatalf("End: %v", err)
			}
			if err := transfer(ctx, c, 1, 2, 1); err != nil {
				t.Fatalf("transfer after End: %v", err)
			}
			settleCluster(t, c, ctx)
			if got, want := stableBalances(t, c), [3]int{100, 98, 102}; got != want {
				t.Fatalf("stable balances = %v, want %v", got, want)
			}
		})
	}
}
