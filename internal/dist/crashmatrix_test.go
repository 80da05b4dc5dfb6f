package dist_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"mca/internal/clock"
	"mca/internal/dist"
	"mca/internal/flightrec"
	"mca/internal/ids"
	"mca/internal/metrics"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/object"
	"mca/internal/rpc"
	"mca/internal/store"
)

// backedCluster is newCluster with a choice of stable-store backing:
// in-memory simulation or a real log directory per node.
func backedCluster(t *testing.T, fileBacked bool) *cluster {
	t.Helper()
	return backedClusterOn(t, fileBacked, clock.Real())
}

// backedClusterOn is backedCluster with every node, and the network, on
// clk.
func backedClusterOn(t *testing.T, fileBacked bool, clk clock.Clock) *cluster {
	t.Helper()
	nw := netsim.New(netsim.Config{Clock: clk})
	t.Cleanup(nw.Close)

	rpcOpts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 300 * time.Millisecond}
	c := &cluster{net: nw}
	for i := 0; i < 3; i++ {
		opts := []node.Option{node.WithRPCOptions(rpcOpts), node.WithClock(clk)}
		if fileBacked {
			c.dirs[i] = t.TempDir()
			opts = append(opts, node.WithStableDir(c.dirs[i]))
		}
		nd, err := node.New(nw, opts...)
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

// settleCluster restarts everything and drains every intention log.
func settleCluster(t *testing.T, c *cluster, ctx context.Context) {
	t.Helper()
	for _, nd := range c.nodes {
		nd.Restart() // no-op when up
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.coord.RecoverPending(ctx); err != nil {
			t.Fatal(err)
		}
		pendingTotal := 0
		for _, nd := range c.nodes {
			pending, err := nd.Stable().Intentions().Pending()
			if err != nil {
				t.Fatal(err)
			}
			pendingTotal += len(pending)
		}
		if pendingTotal == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("intention logs did not drain: %d records pending", pendingTotal)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stableBalances re-activates every bank from stable storage and returns
// the committed balances (initial value when never flushed).
func stableBalances(t *testing.T, c *cluster) [3]int {
	t.Helper()
	for _, nd := range c.nodes {
		nd.Crash()
		nd.Restart()
	}
	var out [3]int
	for i := range c.banks {
		if got, ok := c.stableBalanceAt(t, i); ok {
			out[i] = got
		} else {
			out[i] = 100
		}
	}
	return out
}

// TestCommitCrashMatrix kills the commit path at every injected crash
// point — the store's two batch points plus the mid-group-commit-window
// force — at both the coordinator and a participant, over both stable
// backings. Post-decision crashes must still commit everywhere after
// recovery; a crash during the group-commit force (the record never
// became durable) must abort cleanly everywhere.
func TestCommitCrashMatrix(t *testing.T) {
	const midForce = store.CrashPoint(0) // sentinel: crash the WAL force instead
	points := []struct {
		name      string
		point     store.CrashPoint
		committed bool
	}{
		// These fire inside ApplyBatch, which only runs after the
		// decision — at a participant, in its unforced phase-2 install:
		// the transaction must survive as committed. The cells keep the
		// names the points had when the in-memory store journalled its
		// batches.
		{"beforeJournal", store.CrashBeforeForce, true},
		{"afterJournal", store.CrashAfterForce, true},
		// The force dies mid group-commit window, before any record is
		// durable: the vote in the participant's invoke reply, or the
		// decision, is lost, so the transaction aborts.
		{"midForce", midForce, false},
	}
	for _, backing := range []string{"memory", "file"} {
		for _, victim := range []string{"coordinator", "participant"} {
			for _, tt := range points {
				t.Run(fmt.Sprintf("%s/%s/%s", backing, victim, tt.name), func(t *testing.T) {
					c := backedCluster(t, backing == "file")
					ctx := context.Background()
					victimNode := c.nodes[0]
					if victim == "participant" {
						victimNode = c.nodes[1]
					}
					// A small window makes the kill land mid
					// group-commit window rather than between batches.
					victimNode.Stable().WAL().SetWindow(time.Millisecond)

					arm := func() {
						if tt.point == midForce {
							victimNode.Stable().CrashDuringNextForce()
						} else {
							victimNode.Stable().CrashDuringNextBatch(tt.point)
						}
					}
					if tt.point == midForce {
						// The victim's next WAL force is the participant's
						// vote, in its invoke, or the coordinator's decision
						// record.
						arm()
					} else {
						// ApplyBatch runs only after the decision: at the
						// coordinator in local commit, at the participant
						// when phase 2 reaches it.
						c.coord.TestHooks = dist.Hooks{AfterDecision: arm}
					}

					// The transfer has a coordinator-local leg and two
					// remote legs, so every victim is a writer. invokeErr
					// is the first error its invokes returned, and refused
					// the words of a participant's reply whose vote failed.
					var invokeErr error
					var refused string
					err := c.coord.Run(ctx, func(txn *dist.Txn) error {
						refused = fmt.Sprintf("%v (txn %v: voted no)", dist.ErrAborted, txn.ID())
						invokeErr = txn.Invoke(ctx, c.nodes[0].ID(), "bank", "add", addArg{Delta: -5}, nil)
						if invokeErr == nil {
							invokeErr = txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: 2}, nil)
						}
						if invokeErr == nil {
							invokeErr = txn.Invoke(ctx, c.nodes[2].ID(), "bank", "add", addArg{Delta: 3}, nil)
						}
						return invokeErr
					})
					c.coord.TestHooks = dist.Hooks{}

					if tt.committed {
						// The decision was durable before the crash. The
						// coordinator-victim cells report the failed local
						// apply; the participant-victim cells commit (the
						// dead participant is left to recovery).
						if victim == "participant" && err != nil {
							t.Fatalf("Commit = %v, want nil (crashed participant is recovery's problem)", err)
						}
					} else if victim == "coordinator" {
						// The invokes went through; the decision force died
						// in Commit.
						if invokeErr != nil || !errors.Is(err, dist.ErrAborted) {
							t.Fatalf("invokes = %v, Commit = %v; want nil and ErrAborted (the decision force died)", invokeErr, err)
						}
					} else if err == nil || err != invokeErr || !strings.Contains(err.Error(), refused) {
						// P1's vote force died in its invoke, which the
						// participant refused; Run aborted with that error
						// and never reached Commit.
						t.Fatalf("Run = %v, invokes = %v; want P1's invoke refused with %q (its vote's force died)", err, invokeErr, refused)
					}

					if victim == "participant" && tt.point != midForce {
						// The participant's install comes with phase 2,
						// which Commit no longer waits for: let it arrive
						// and hit the crash point.
						if err := waitUntil(victimNode.Stable().Crashed); err != nil {
							t.Fatalf("phase 2 never reached the armed participant: %v", err)
						}
					}
					// The injected points crash only the stable store;
					// finish the kill, then recover the whole cluster.
					victimNode.Crash()
					settleCluster(t, c, ctx)

					want := [3]int{100, 100, 100}
					if tt.committed {
						want = [3]int{95, 102, 103}
					}
					if got := stableBalances(t, c); got != want {
						t.Fatalf("stable balances after recovery = %v, want %v", got, want)
					}
				})
			}
		}
	}
}

// TestCommitCrashMatrixUnforcedForget extends the matrix past the end of
// the protocol: a transfer's commit reached every writer with the next
// transfer and every forget was appended, but a forget is not forced — it
// rides the node's next forced record — so a crash can resurrect
// intentions of finished transactions. The cells crash the participant,
// the coordinator and both at once, with the second transfer's phase 2
// held back by a partition so that its records are the ones on disk.
// Recovery re-drives what it finds; the re-drive must be idempotent, and
// the balances exact — also after further transfers over the same
// accounts.
func TestCommitCrashMatrixUnforcedForget(t *testing.T) {
	victims := map[string][]int{"participant": {1}, "coordinator": {0}, "both": {0, 1}}
	for _, backing := range []string{"memory", "file"} {
		for victim, crash := range victims {
			t.Run(backing+"/"+victim, func(t *testing.T) {
				c := backedCluster(t, backing == "file")
				ctx := context.Background()
				transfer := func() ids.ActionID {
					t.Helper()
					var id ids.ActionID
					err := c.coord.Run(ctx, func(txn *dist.Txn) error {
						id = txn.ID()
						if err := txn.Invoke(ctx, c.nodes[0].ID(), "bank", "add", addArg{Delta: -5}, nil); err != nil {
							return err
						}
						if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: 2}, nil); err != nil {
							return err
						}
						return txn.Invoke(ctx, c.nodes[2].ID(), "bank", "add", addArg{Delta: 3}, nil)
					})
					if err != nil {
						t.Fatalf("transfer: %v", err)
					}
					return id
				}
				// Two transfers over the same accounts: the second one's
				// forced records carry the first one's installs and
				// forgets to disk, so only the second can come back —
				// were the first re-driven, its stale write set would
				// undo the second.
				first := transfer()
				c.coord.TestHooks.AfterDecision = func() {
					c.net.Partition(c.nodes[0].ID(), c.nodes[1].ID())
					c.net.Partition(c.nodes[0].ID(), c.nodes[2].ID())
				}
				second := transfer()
				c.coord.TestHooks.AfterDecision = nil
				for _, i := range crash {
					c.nodes[i].Crash()
				}
				c.net.Heal(c.nodes[0].ID(), c.nodes[1].ID())
				c.net.Heal(c.nodes[0].ID(), c.nodes[2].ID())
				if backing == "file" {
					// What the disk holds is what recovery will see: the
					// second transfer's record, not the first's.
					for _, i := range crash {
						onDisk, err := store.NewStableAt(c.dirs[i])
						if err != nil {
							t.Fatal(err)
						}
						if _, ok, _ := onDisk.Intentions().Lookup(first); ok {
							t.Fatalf("node %d: forget of the first transfer did not ride a later force", i)
						}
						if _, ok, _ := onDisk.Intentions().Lookup(second); !ok {
							t.Fatalf("node %d: the second transfer is finished on disk; the cell tests nothing", i)
						}
					}
				}
				settleCluster(t, c, ctx)
				if got, want := stableBalances(t, c), [3]int{90, 104, 106}; got != want {
					t.Fatalf("stable balances after re-drive = %v, want %v", got, want)
				}
				transfer()
				settleCluster(t, c, ctx)
				if got, want := stableBalances(t, c), [3]int{85, 106, 109}; got != want {
					t.Fatalf("stable balances after a further transfer = %v, want %v", got, want)
				}
			})
		}
	}
}

// TestCommitCrashMatrixLazyPhase2 is the matrix for phase 2 off the
// commit path: a transfer of 10 from P1 to P2 commits, and its commits
// reach the participants after Commit has returned. The cells walk the
// participant states this opens — installed but not yet forced when the
// participant crashes; still owed when the coordinator crashes; carried
// by an invoke whose reply was lost; acknowledged both explicitly and
// piggybacked — over both stable backings. Each ends with every log
// drained and the balances exact.
func TestCommitCrashMatrixLazyPhase2(t *testing.T) {
	const flushInterval = time.Millisecond // dist's releaseFlushAfter
	transferOne := func(t *testing.T, c *cluster, ctx context.Context) ids.ActionID {
		t.Helper()
		var id ids.ActionID
		err := c.coord.Run(ctx, func(txn *dist.Txn) error {
			id = txn.ID()
			if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: -10}, nil); err != nil {
				return err
			}
			return txn.Invoke(ctx, c.nodes[2].ID(), "bank", "add", addArg{Delta: 10}, nil)
		})
		if err != nil {
			t.Fatalf("transfer: %v", err)
		}
		return id
	}
	// readAt runs a single-site read at node i: its invoke carries what
	// the coordinator owes the node.
	readAt := func(ctx context.Context, c *cluster, i int) error {
		return c.coord.Run(ctx, func(txn *dist.Txn) error {
			return txn.Invoke(ctx, c.nodes[i].ID(), "bank", "get", struct{}{}, nil)
		})
	}
	decided := func(t *testing.T, c *cluster, txn ids.ActionID) bool {
		t.Helper()
		return slices.ContainsFunc(pendingAt(t, c, 0), func(in store.Intention) bool { return in.Action == txn })
	}
	drained := func(t *testing.T, c *cluster) {
		t.Helper()
		err := waitUntil(func() bool {
			return len(pendingAt(t, c, 0))+len(pendingAt(t, c, 1))+len(pendingAt(t, c, 2)) == 0
		})
		if err != nil {
			t.Fatalf("logs did not drain (records %v / %v / %v): %v", pendingAt(t, c, 0), pendingAt(t, c, 1), pendingAt(t, c, 2), err)
		}
	}
	want := [3]int{100, 90, 110}
	cells := map[string]struct {
		fake bool // the cell runs on a clock that moves only when told
		run  func(t *testing.T, c *cluster, ctx context.Context, clk *clock.Fake)
	}{
		// P2 has acknowledged the commit — it rode the invoke of a
		// transaction that also writes at the coordinator, whose prepare
		// forced it and whose vote carried the ack. Then the commit rides
		// a read's invoke to P1, which installs it and forgets its prepared
		// record unforced, and crashes before any force: its ack must not
		// have left, so the decision is still there for its in-doubt
		// query.
		"participantCrashBeforeForce": {fake: true, run: func(t *testing.T, c *cluster, ctx context.Context, clk *clock.Fake) {
			t1 := transferOne(t, c, ctx)
			err := c.coord.Run(ctx, func(txn *dist.Txn) error {
				if err := txn.Invoke(ctx, c.nodes[0].ID(), "bank", "add", addArg{}, nil); err != nil {
					return err
				}
				return txn.Invoke(ctx, c.nodes[2].ID(), "bank", "add", addArg{}, nil)
			})
			if err != nil {
				t.Fatal(err)
			}
			if pending := pendingAt(t, c, 2); slices.ContainsFunc(pending, func(in store.Intention) bool { return in.Action == t1 }) {
				t.Fatal("P2 still holds the transfer's prepared record: its commit did not ride the invoke")
			}
			if err := readAt(ctx, c, 1); err != nil {
				t.Fatal(err)
			}
			if !decided(t, c, t1) {
				t.Fatal("the coordinator forgot the decision before P1's install was forced")
			}
			c.nodes[1].Crash()
			c.nodes[1].Restart()
			clk.Advance(flushInterval) // what is still owed goes out
			drained(t, c)
		}},
		// The coordinator crashes owing both commits: its restart
		// re-drives them from the decision record, in end messages each
		// writer answers only once it has forced what it acknowledges — so
		// the crash of every node that ends each cell, once the decision is
		// forgotten, loses nothing.
		"coordinatorCrashOwingCommits": {fake: true, run: func(t *testing.T, c *cluster, ctx context.Context, _ *clock.Fake) {
			t1 := transferOne(t, c, ctx)
			if !decided(t, c, t1) {
				t.Fatal("the decision record is gone before any commit was delivered")
			}
			c.nodes[0].Crash()
			c.nodes[0].Restart()
			drained(t, c)
		}},
		// The commit reaches P1 on an invoke whose reply is lost: it is
		// sent again, in end messages, until an ack gets through — and
		// that ack promises a forced install, so P1 crashing right after
		// the coordinator forgot the decision loses nothing.
		"resentAfterInvokeFailure": {run: func(t *testing.T, c *cluster, ctx context.Context, _ *clock.Fake) {
			t1 := transferOne(t, c, ctx)
			c.net.PartitionOneWay(c.nodes[1].ID(), c.nodes[0].ID())
			short, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
			err := readAt(short, c, 1)
			cancel()
			if err == nil {
				t.Fatal("the read's reply got through the partition")
			}
			c.net.Heal(c.nodes[1].ID(), c.nodes[0].ID())
			drained(t, c)
			resent := slices.ContainsFunc(flightrec.Snapshot(), func(ev flightrec.Event) bool {
				return ev.Kind == flightrec.KindCommitResent && ids.ActionID(ev.A) == t1 && ids.NodeID(ev.B) == c.nodes[1].ID()
			})
			if !resent {
				t.Fatal("no flight-recorder event for the commit sent again")
			}
			c.nodes[1].Crash()
			c.nodes[1].Restart()
		}},
		// P1 acknowledges twice — the re-drive's end message, and the
		// commit a read carried there — while P2 cannot be reached: the
		// decision record must stay until P2's own ack.
		"explicitRacesPiggyback": {run: func(t *testing.T, c *cluster, ctx context.Context, _ *clock.Fake) {
			t1 := transferOne(t, c, ctx)
			c.net.Partition(c.nodes[0].ID(), c.nodes[2].ID())
			if err := readAt(ctx, c, 1); err != nil {
				t.Fatal(err)
			}
			if remaining, err := c.coord.RecoverPending(ctx); err != nil || remaining != 1 {
				t.Fatalf("re-drive with P2 cut off = %d records left, %v; want 1", remaining, err)
			}
			// The carried commit's ack rides P1's next reply.
			if err := readAt(ctx, c, 1); err != nil {
				t.Fatal(err)
			}
			if !decided(t, c, t1) {
				t.Fatal("the decision record went on P1's acks alone: P2 never acknowledged")
			}
			c.net.Heal(c.nodes[0].ID(), c.nodes[2].ID())
			drained(t, c)
		}},
	}
	for _, backing := range []string{"memory", "file"} {
		for name, cell := range cells {
			t.Run(backing+"/"+name, func(t *testing.T) {
				var clk clock.Clock = clock.Real()
				fake := clock.NewFake()
				if cell.fake {
					clk = fake
				}
				c := backedClusterOn(t, backing == "file", clk)
				ctx := context.Background()
				cell.run(t, c, ctx, fake)
				if got := stableBalances(t, c); got != want {
					t.Fatalf("stable balances = %v, want %v", got, want)
				}
			})
		}
	}
}

// TestPreparedParticipantAsksSilentCoordinator: a participant transaction
// that no message has touched for a termination interval asks its
// coordinator what was decided, and the answer ends it there — whatever it
// was doing when its coordinator went silent. Each cell below leaves one
// such transaction behind, checks that it is really there, lets two
// termination ticks pass on the fake clock and requires it gone, its locks
// free for a transfer over the same accounts, and the balances exact:
//
//   - crashedMidPrepare: the coordinator crashes after both votes and
//     before its decision; the prepared participants abort and forget;
//   - orphanedInvoke: it crashes between its invokes and its Commit; the
//     actions holding write locks, prepared by their votes in the invoke
//     replies, abort and forget;
//   - strandedRelease: it crashes after a single-site read committed and
//     before the release reached the participant; the reader lets go;
//   - unforgottenOnePhase: it crashes after forcing a single-site write's
//     decision and before delivering it; the participant, which voted in
//     its invoke reply, installs once;
//   - committedOwedInstall: it crashes after forcing its decision and
//     before delivering it; the prepared participants install. Its restart
//     re-drives the decision too, so this cell passed before there was an
//     idle rule: it pins that the rule installs, once, rather than aborts;
//   - abortOutlivesDeadline: the caller's context ends while the second
//     participant's invoke is slow; the first, which voted yes in its
//     reply, hears the abort at once, before any termination tick;
//   - silentCoordinatorHoldsUpOnlyItsOwn: readers of two coordinators are
//     left at one participant, and one coordinator stays down; the other's
//     reader lets go in the same tick.
//
// In "askedWhileDeciding" the coordinator is alive and still deciding when
// they ask: it must not answer abort, because it is about to commit.
func TestPreparedParticipantAsksSilentCoordinator(t *testing.T) {
	const terminateAfter = time.Second // dist's terminateAfter
	transfer := func(ctx context.Context, c *cluster) error {
		return c.coord.Run(ctx, func(txn *dist.Txn) error {
			if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: -10}, nil); err != nil {
				return err
			}
			return txn.Invoke(ctx, c.nodes[2].ID(), "bank", "add", addArg{Delta: 10}, nil)
		})
	}
	prepared := func(t *testing.T, c *cluster) int {
		t.Helper()
		return len(pendingAt(t, c, 1)) + len(pendingAt(t, c, 2))
	}
	actions := func(c *cluster) int {
		return c.nodes[1].Runtime().ActiveActions() + c.nodes[2].Runtime().ActiveActions()
	}
	restartCoordinator := func(c *cluster) {
		c.nodes[0].Crash()
		c.nodes[0].Restart()
	}
	// ask lets two termination ticks pass: the first clears the touched
	// bits, the second asks about what no message touched since.
	ask := func(clk *clock.Fake) {
		for range 2 {
			clk.Advance(terminateAfter)
			time.Sleep(50 * time.Millisecond)
		}
	}
	// left checks that the cell left what it means to leave behind.
	left := func(t *testing.T, what string, n, want int) {
		t.Helper()
		if n != want {
			t.Fatalf("%d %s at the participants, want %d: the cell tests nothing", n, what, want)
		}
	}
	cells := map[string]struct {
		run  func(t *testing.T, c *cluster, ctx context.Context, clk *clock.Fake)
		want [3]int // balances after the cell's transaction and one more transfer
	}{
		"crashedMidPrepare": {want: [3]int{100, 90, 110}, run: func(t *testing.T, c *cluster, ctx context.Context, clk *clock.Fake) {
			c.coord.TestHooks.AfterPrepare = func() { c.nodes[0].Crash() }
			if err := transfer(ctx, c); err == nil {
				t.Fatal("a transfer whose coordinator crashed before deciding committed")
			}
			c.coord.TestHooks.AfterPrepare = nil
			c.nodes[0].Restart()
			left(t, "prepared records", prepared(t, c), 2)
			ask(clk)
			if err := waitUntil(func() bool { return prepared(t, c) == 0 && actions(c) == 0 }); err != nil {
				t.Fatalf("prepared records of a transaction nobody decided outlived the termination interval: %v", pendingAt(t, c, 1))
			}
		}},
		"orphanedInvoke": {want: [3]int{100, 90, 110}, run: func(t *testing.T, c *cluster, ctx context.Context, clk *clock.Fake) {
			txn, err := c.coord.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for i, delta := range map[int]int{1: -10, 2: 10} {
				if err := txn.Invoke(ctx, c.nodes[i].ID(), "bank", "add", addArg{Delta: delta}, nil); err != nil {
					t.Fatal(err)
				}
			}
			restartCoordinator(c)
			left(t, "voted actions", actions(c), 2)
			left(t, "prepared records", prepared(t, c), 2)
			ask(clk)
			if err := waitUntil(func() bool { return prepared(t, c) == 0 && actions(c) == 0 }); err != nil {
				t.Fatal("invoked actions whose coordinator crashed outlived the termination interval")
			}
		}},
		"strandedRelease": {want: [3]int{100, 90, 110}, run: func(t *testing.T, c *cluster, ctx context.Context, clk *clock.Fake) {
			err := c.coord.Run(ctx, func(txn *dist.Txn) error {
				return txn.Invoke(ctx, c.nodes[1].ID(), "bank", "get", struct{}{}, nil)
			})
			if err != nil {
				t.Fatal(err)
			}
			restartCoordinator(c)
			left(t, "readers", actions(c), 1)
			ask(clk)
			if err := waitUntil(func() bool { return actions(c) == 0 }); err != nil {
				t.Fatal("a reader whose release died with its coordinator outlived the termination interval")
			}
		}},
		"unforgottenOnePhase": {want: [3]int{100, 80, 110}, run: func(t *testing.T, c *cluster, ctx context.Context, clk *clock.Fake) {
			c.coord.TestHooks.AfterDecision = func() { c.nodes[0].Crash() }
			_ = c.coord.Run(ctx, func(txn *dist.Txn) error { // the local apply fails with the crash; the decision is durable
				return txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: -10}, nil)
			})
			c.coord.TestHooks.AfterDecision = nil
			left(t, "prepared records", prepared(t, c), 1)
			c.nodes[0].Restart()
			ask(clk)
			if err := waitUntil(func() bool { return prepared(t, c) == 0 && actions(c) == 0 }); err != nil {
				t.Fatal("the prepared record of a committed single-site write outlived the termination interval")
			}
		}},
		"committedOwedInstall": {want: [3]int{100, 80, 120}, run: func(t *testing.T, c *cluster, ctx context.Context, clk *clock.Fake) {
			c.coord.TestHooks.AfterDecision = func() { c.nodes[0].Crash() }
			_ = transfer(ctx, c) // the local apply fails with the crash; the decision is durable
			c.coord.TestHooks.AfterDecision = nil
			left(t, "prepared records", prepared(t, c), 2)
			c.nodes[0].Restart()
			ask(clk)
			if err := waitUntil(func() bool { return prepared(t, c) == 0 && actions(c) == 0 }); err != nil {
				t.Fatal("prepared records of a committed transaction outlived the termination interval")
			}
		}},
		"abortOutlivesDeadline": {want: [3]int{100, 90, 110}, run: func(t *testing.T, c *cluster, ctx context.Context, clk *clock.Fake) {
			txn, err := c.coord.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: -10}, nil); err != nil {
				t.Fatal(err)
			}
			if n := len(pendingAt(t, c, 1)); n != 1 {
				t.Fatalf("P1 holds %d prepared records after its invoke, want 1: the cell tests nothing", n)
			}
			// P2's messages now take half a termination interval on a clock
			// that stands still: its invoke is in flight when the caller
			// gives up, after P1 has voted yes. The first abort sent to P1 is
			// lost, so only a retransmission, within one call, frees it.
			c.net.SetNodeDelay(c.nodes[2].ID(), terminateAfter/2, terminateAfter/2)
			t.Cleanup(func() { clk.Advance(terminateAfter) }) // the network closes once delayed messages are out
			short, cancel := context.WithCancel(ctx)
			invoked := make(chan error, 1)
			sent := c.net.Stats().Sent
			go func() { invoked <- txn.Invoke(short, c.nodes[2].ID(), "bank", "add", addArg{Delta: 10}, nil) }()
			if err := waitUntil(func() bool { return c.net.Stats().Sent > sent }); err != nil {
				t.Fatal("P2's invoke never left")
			}
			c.net.Partition(c.nodes[0].ID(), c.nodes[1].ID())
			lost := c.net.Stats().Lost
			cancel()
			select {
			case err := <-invoked:
				if err == nil {
					t.Fatal("the slow invoke got through before the caller gave up: the cell tests nothing")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the invoke outlived its caller's context")
			}
			if err := txn.Abort(short); err != nil {
				t.Fatal(err)
			}
			if err := waitUntil(func() bool { return c.net.Stats().Lost > lost }); err != nil {
				t.Fatal("the first abort sent to P1 never met the partition")
			}
			c.net.Heal(c.nodes[0].ID(), c.nodes[1].ID())
			freed := func() bool { return len(pendingAt(t, c, 1)) == 0 && c.nodes[1].Runtime().ActiveActions() == 0 }
			for i := 0; i < 20 && !freed(); i++ {
				clk.Advance(5 * time.Millisecond) // retransmission intervals, far short of a termination tick
				time.Sleep(10 * time.Millisecond)
			}
			if !freed() {
				t.Fatal("the yes-voter still holds its locks: the abort died with the caller's context")
			}
			c.net.SetNodeDelay(c.nodes[2].ID(), 0, 0)
			ask(clk) // P2's delayed invoke and abort arrive
			if err := waitUntil(func() bool { return prepared(t, c) == 0 && actions(c) == 0 }); err != nil {
				t.Fatal("the slow participant never resolved")
			}
		}},
		"silentCoordinatorHoldsUpOnlyItsOwn": {want: [3]int{100, 90, 110}, run: func(t *testing.T, c *cluster, ctx context.Context, clk *clock.Fake) {
			read := func(m *dist.Manager) {
				txn, err := m.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "get", struct{}{}, nil); err != nil {
					t.Fatal(err)
				}
			}
			for range 3 {
				read(c.coord)
			}
			read(c.parts[1])
			// The coordinator of three readers at P1 stays down; P2, the
			// coordinator of the fourth, restarts and answers "aborted".
			c.nodes[0].Crash()
			c.nodes[2].Crash()
			c.nodes[2].Restart()
			left(t, "readers", actions(c), 4)
			ask(clk) // the queries to the down coordinator wait out their call on a clock that stands still
			if err := waitUntil(func() bool { return actions(c) == 3 }); err != nil {
				t.Fatalf("%d readers left: a silent coordinator held up another coordinator's orphan", actions(c))
			}
			c.nodes[0].Restart()
			ask(clk)
			if err := waitUntil(func() bool { return actions(c) == 0 }); err != nil {
				t.Fatal("readers of the restarted coordinator outlived the termination interval")
			}
		}},
	}
	for _, backing := range []string{"memory", "file"} {
		for name, cell := range cells {
			t.Run(backing+"/"+name, func(t *testing.T) {
				clk := clock.NewFake()
				c := backedClusterOn(t, backing == "file", clk)
				ctx := context.Background()
				cell.run(t, c, ctx, clk)
				// The locks went with what was left behind: the same
				// accounts move.
				if err := transfer(ctx, c); err != nil {
					t.Fatalf("transfer after termination: %v", err)
				}
				settleCluster(t, c, ctx)
				if got := stableBalances(t, c); got != cell.want {
					t.Fatalf("stable balances = %v, want %v", got, cell.want)
				}
			})
		}
	}
	t.Run("askedWhileDeciding", func(t *testing.T) {
		clk := clock.NewFake()
		c := backedClusterOn(t, false, clk)
		ctx := context.Background()
		release := make(chan struct{})
		c.coord.TestHooks.AfterPrepare = func() { <-release }
		done := make(chan error, 1)
		go func() { done <- transfer(ctx, c) }()
		if err := waitUntil(func() bool { return prepared(t, c) == 2 }); err != nil {
			t.Fatal("the participants never prepared")
		}
		queries := func() float64 { return counterValue(t, "mca_dist_termination_queries_total") }
		before := queries()
		ask(clk)
		if err := waitUntil(func() bool { return queries()-before >= 2 }); err != nil {
			t.Fatal("the prepared participants never asked their coordinator")
		}
		if got := prepared(t, c); got != 2 {
			t.Fatalf("%d prepared records left after asking a coordinator still deciding, want 2", got)
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatalf("transfer: %v", err)
		}
		settleCluster(t, c, ctx)
		if got, want := stableBalances(t, c), [3]int{100, 90, 110}; got != want {
			t.Fatalf("stable balances = %v, want %v", got, want)
		}
	})
}

// TestDurableTransferForcesThreeTimes pins the force budget of a
// two-participant transfer on the file backing: each participant forces
// its prepared record as it votes in its invoke reply, and the coordinator
// the decision — three forces, each one append and one fsync. Phase 2
// forces nothing: the commit reaches each participant with the next
// transfer's invoke there, its install and forget ride that invoke's vote,
// whose reply carries the ack back, and the coordinator's forget of the
// decision rides the next decision. The clock stands still, so no flush interval passes and
// nothing travels on its own.
func TestDurableTransferForcesThreeTimes(t *testing.T) {
	c := backedClusterOn(t, true, clock.NewFake())
	ctx := context.Background()
	forces := func() (flushes, records uint64) {
		for _, nd := range c.nodes {
			f, r := nd.Stable().WAL().Stats()
			flushes, records = flushes+f, records+r
		}
		return flushes, records
	}
	const transfers = 20
	f0, r0 := forces()
	for i := 0; i < transfers; i++ {
		err := c.coord.Run(ctx, func(txn *dist.Txn) error {
			if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: -1}, nil); err != nil {
				return err
			}
			return txn.Invoke(ctx, c.nodes[2].ID(), "bank", "add", addArg{Delta: 1}, nil)
		})
		if err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
	f1, r1 := forces()
	if got := f1 - f0; got != 3*transfers {
		t.Fatalf("%d transfers forced the logs %d times, want %d (2 votes + 1 decision each)", transfers, got, 3*transfers)
	}
	// Each transfer logs 8 records — its 2 prepares and decision, and its
	// predecessor's 2 installs, 3 forgets — but the first, which has no
	// predecessor.
	if got, want := r1-r0, uint64(8*transfers-5); got != want {
		t.Fatalf("%d transfers logged %d records, want %d", transfers, got, want)
	}
	// Only the last transfer's decision is still awaiting its acks.
	if pending := pendingAt(t, c, 0); len(pending) != 1 {
		t.Fatalf("coordinator keeps %d decision records, want the last transfer's 1", len(pending))
	}
}

// TestDurableTransferSendsFourMessages pins the message budget of a
// two-participant transfer: an invoke and its reply at each participant,
// each voting in its reply — four datagrams, and no prepare. The commits
// ride the next transfer's invokes, and the clock stands still, so nothing
// travels on its own.
func TestDurableTransferSendsFourMessages(t *testing.T) {
	c := backedClusterOn(t, false, clock.NewFake())
	ctx := context.Background()
	const transfers = 20
	votes := func() [2]float64 {
		return [2]float64{counterValue(t, "mca_dist_votes_total", "at", "invoke"), counterValue(t, "mca_dist_votes_total", "at", "prepare")}
	}
	sent, voted := c.net.Stats().Sent, votes()
	for i := 0; i < transfers; i++ {
		err := c.coord.Run(ctx, func(txn *dist.Txn) error {
			if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: -1}, nil); err != nil {
				return err
			}
			return txn.Invoke(ctx, c.nodes[2].ID(), "bank", "add", addArg{Delta: 1}, nil)
		})
		if err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
	if got := c.net.Stats().Sent - sent; got != 4*transfers {
		t.Fatalf("%d transfers sent %d messages, want %d (2 invokes, each with its reply)", transfers, got, 4*transfers)
	}
	if now := votes(); now[0]-voted[0] != 2*transfers || now[1]-voted[1] != 0 {
		t.Fatalf("%d transfers voted yes %v times in invoke replies and %v in prepares, want %d and 0", transfers, now[0]-voted[0], now[1]-voted[1], 2*transfers)
	}
}

// counterValue reads a counter of the default registry: an unlabelled
// one, or the sample with the given label name and value pairs.
func counterValue(t *testing.T, name string, labels ...string) float64 {
	t.Helper()
	for _, f := range metrics.Default().Gather() {
		for _, s := range f.Samples {
			if f.Name == name && slices.Equal(s.Labels, labels) {
				return s.Value
			}
		}
	}
	t.Fatalf("no counter %s%v", name, labels)
	return 0
}

// pendingAt returns the intention records in node i's log.
func pendingAt(t *testing.T, c *cluster, i int) []store.Intention {
	t.Helper()
	pending, err := c.nodes[i].Stable().Intentions().Pending()
	if err != nil {
		t.Fatal(err)
	}
	return pending
}

// TestCommitCrashMatrixOnePhase is the matrix for transactions with a
// single writer, a remote participant — once committed in one phase, now
// on the one commit path: the participant votes in its invoke reply, and
// Commit forces the decision naming it. The cells, over both stable
// backings:
//
//   - restartBetweenInvokes: the participant restarts between two
//     invocations with its vote loaded from the log; the second one is
//     refused as aborted, not as prepared, and so is the commit;
//   - crashBeforeCommit1: the coordinator crashes between the vote and the
//     decision force (where the one-phase path sent its commit1); the
//     record resolves to abort;
//   - crashAfterForce: the coordinator crashes after the decision force and
//     before delivering it; its restart owes the commit, and the
//     participant installs it once;
//   - duplicateAfterForget: a commit delivered, acknowledged and forgotten
//     arrives again; it changes nothing;
//   - crashAfterVote: the participant crashes after its vote; Commit forces
//     the decision and returns, and the restarted participant installs it;
//   - silentParticipant: the participant's replies are lost after its vote;
//     Commit returns committed all the same, and the participant installs
//     once it is heard again.
func TestCommitCrashMatrixOnePhase(t *testing.T) {
	// begin starts a transaction that has added delta at P1.
	begin := func(t *testing.T, c *cluster, ctx context.Context, delta int) *dist.Txn {
		t.Helper()
		txn, err := c.coord.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: delta}, nil); err != nil {
			t.Fatal(err)
		}
		if n := len(pendingAt(t, c, 1)); n != 1 {
			t.Fatalf("P1 holds %d prepared records after its invoke, want 1: it did not vote in its reply", n)
		}
		return txn
	}
	wantBalances := func(t *testing.T, c *cluster, ctx context.Context, want [3]int) {
		t.Helper()
		settleCluster(t, c, ctx)
		if got := stableBalances(t, c); got != want {
			t.Fatalf("stable balances after recovery = %v, want %v", got, want)
		}
	}
	cells := map[string]func(t *testing.T, c *cluster, ctx context.Context){
		// The participant loses the first invocation's action in a crash;
		// a second invocation must not start a fresh action and commit
		// the later effects alone, nor find the vote frozen.
		"restartBetweenInvokes": func(t *testing.T, c *cluster, ctx context.Context) {
			txn := begin(t, c, ctx, -30)
			c.nodes[1].Crash()
			c.nodes[1].Restart()
			err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: -5}, nil)
			if err == nil || !strings.Contains(err.Error(), dist.ErrAborted.Error()) {
				t.Fatalf("continuation after a participant restart = %v, want it refused as aborted", err)
			}
			if err := txn.Commit(ctx); !errors.Is(err, dist.ErrAborted) {
				t.Fatalf("Commit = %v, want ErrAborted", err)
			}
			wantBalances(t, c, ctx, [3]int{100, 100, 100})
		},
		"crashBeforeCommit1": func(t *testing.T, c *cluster, ctx context.Context) {
			txn := begin(t, c, ctx, 7)
			c.coord.TestHooks.AfterPrepare = func() { c.nodes[0].Crash() }
			if err := txn.Commit(ctx); !errors.Is(err, dist.ErrAborted) {
				t.Fatalf("Commit = %v, want ErrAborted (the decision force failed with the crash)", err)
			}
			c.coord.TestHooks = dist.Hooks{}
			if n := len(pendingAt(t, c, 1)); n != 1 {
				t.Fatalf("P1 holds %d prepared records after the coordinator crashed, want its vote's 1", n)
			}
			c.nodes[0].Restart()
			wantBalances(t, c, ctx, [3]int{100, 100, 100})
		},
		"crashAfterForce": func(t *testing.T, c *cluster, ctx context.Context) {
			txn := begin(t, c, ctx, 7)
			c.coord.TestHooks.AfterDecision = func() { c.nodes[0].Crash() }
			_ = txn.Commit(ctx) // decided; the crash may fail the local apply
			c.coord.TestHooks = dist.Hooks{}
			if n := len(pendingAt(t, c, 1)); n != 1 {
				t.Fatalf("P1 holds %d prepared records, want its vote's 1: the commit was delivered before the crash", n)
			}
			c.nodes[0].Restart()
			wantBalances(t, c, ctx, [3]int{100, 107, 100})
		},
		"duplicateAfterForget": func(t *testing.T, c *cluster, ctx context.Context) {
			txn := begin(t, c, ctx, 7)
			if err := txn.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			if err := waitUntil(func() bool { return len(pendingAt(t, c, 0))+len(pendingAt(t, c, 1)) == 0 }); err != nil {
				t.Fatalf("the commit's delivery and ack forgetting both records: %v", err)
			}
			// An end message carrying the commit again.
			body := binary.AppendUvarint([]byte{0xD1, 0x08, 0, 0, 1}, uint64(txn.ID()))
			reply, err := c.nodes[0].Peer().CallRaw(ctx, c.nodes[1].ID(), "dist.end", append(body, 0))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(reply, []byte{0xD1, 0x07}) {
				t.Fatalf("late duplicate commit answered % x, want an ack", reply)
			}
			if n := len(pendingAt(t, c, 1)); n != 0 {
				t.Fatalf("late duplicate commit left %d records", n)
			}
			wantBalances(t, c, ctx, [3]int{100, 107, 100})
		},
		"crashAfterVote": func(t *testing.T, c *cluster, ctx context.Context) {
			txn := begin(t, c, ctx, 7)
			c.nodes[1].Crash()
			if err := txn.Commit(ctx); err != nil {
				t.Fatalf("Commit = %v, want nil: the participant voted before it crashed", err)
			}
			c.nodes[1].Restart()
			if err := waitUntil(func() bool { return c.balanceAt(t, 1) == 107 }); err != nil {
				t.Fatalf("P1 = %d after its restart, want the decided 107: %v", c.balanceAt(t, 1), err)
			}
			wantBalances(t, c, ctx, [3]int{100, 107, 100})
		},
		"silentParticipant": func(t *testing.T, c *cluster, ctx context.Context) {
			txn := begin(t, c, ctx, 7)
			c.net.PartitionOneWay(c.nodes[1].ID(), c.nodes[0].ID())
			short, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
			defer cancel()
			if err := txn.Commit(short); err != nil {
				t.Fatalf("Commit = %v, want nil: the participant voted before it fell silent", err)
			}
			c.net.Heal(c.nodes[1].ID(), c.nodes[0].ID())
			wantBalances(t, c, ctx, [3]int{100, 107, 100})
		},
	}
	for _, backing := range []string{"memory", "file"} {
		for name, cell := range cells {
			t.Run(backing+"/"+name, func(t *testing.T) {
				cell(t, backedCluster(t, backing == "file"), context.Background())
			})
		}
	}
}

// TestSingleParticipantWriteForcesTwice pins the force budget of a
// transaction with one participant on the file backing: the participant
// forces its vote in its invoke reply, and the coordinator the decision
// naming it. Each write's invoke carries its predecessor's commit, whose
// install and forget ride the vote's force, and the vote's reply the ack,
// whose forget rides the decision's. The clock stands still, so nothing
// travels on its own.
func TestSingleParticipantWriteForcesTwice(t *testing.T) {
	c := backedClusterOn(t, true, clock.NewFake())
	ctx := context.Background()
	forces := func() (flushes, records uint64) {
		for _, nd := range c.nodes {
			f, r := nd.Stable().WAL().Stats()
			flushes, records = flushes+f, records+r
		}
		return flushes, records
	}
	const writes = 20
	f0, r0 := forces()
	for i := 0; i < writes; i++ {
		err := c.coord.Run(ctx, func(txn *dist.Txn) error {
			return txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: 1}, nil)
		})
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	f1, r1 := forces()
	if got := f1 - f0; got != 2*writes {
		t.Fatalf("%d single-participant writes forced the logs %d times, want %d (a vote and a decision each)", writes, got, 2*writes)
	}
	// Each write logs 5 records — its vote and decision, and its
	// predecessor's install and 2 forgets — but the first, which has no
	// predecessor.
	if got, want := r1-r0, uint64(5*writes-3); got != want {
		t.Fatalf("%d writes logged %d records, want %d", writes, got, want)
	}
	if f, _ := c.nodes[0].Stable().WAL().Stats(); f != writes {
		t.Fatalf("the coordinator forced its log %d times, want %d: one decision each", f, writes)
	}
}

// TestCommitCrashMatrixInvokeVote is the matrix for the vote every writer
// casts in its invoke reply: a transfer of 10 invokes P1, then P2, and
// each forces its prepared record before it answers. The cells walk the
// windows this opens, over both stable backings; each keeps the money and
// the all-or-nothing outcome, and leaves the locks free for a further
// transfer over the same accounts:
//
//   - firstCrashBeforeSecondInvoke: P1 crashes after its vote and before
//     P2's invoke; Commit goes ahead without contacting it, and P1's
//     restart installs the decision;
//   - secondInvokeFailsAfterFirstVote: P2's invoke fails after P1 voted;
//     the caller aborts, and the abort forgets P1's record;
//   - restartBetweenInvokes: P2 restarts between two invocations with its
//     vote loaded from the log; the continuation is refused as aborted,
//     and so is the commit;
//   - participantCrashBeforeReply: P2 crashes after the force, before its
//     reply got through; the caller aborts, and P2's restart asks and
//     forgets;
//   - lostVoteThenCommit: as above, but the caller writes at its own node
//     and commits with P1 alone while P2 is down, so the abort for P2 is
//     lost; P2's restart asks a coordinator that holds a decision record
//     naming P1 only, and must abort;
//   - participantCrashAfterReply: P2 crashes after its vote reached the
//     caller, and Commit goes ahead without contacting it for a prepare;
//     P2's restart loads the record, refuses its account while the
//     transaction is undecided, and installs the decision;
//   - coordinatorCrashBeforeCommit: the coordinator crashes between P2's
//     vote and Commit; both participants ask (the idle rule) and abort;
//   - reopenedThenCrash: a continuation at P2 reopens its vote, forgetting
//     the record unforced, and P2 crashes before the commit-time prepare,
//     which must vote no;
//   - lateContinuation: a continuation at P2 is lost, so the commit-time
//     prepare finds the vote standing and makes it final; the continuation
//     arriving after that is refused with ErrPrepared, and P2 installs what
//     it logged;
//   - abortAfterVote: the caller aborts after P2's vote; the abort forgets
//     the record.
func TestCommitCrashMatrixInvokeVote(t *testing.T) {
	const terminateAfter = time.Second // dist's terminateAfter
	invoke := func(ctx context.Context, c *cluster, txn *dist.Txn, i, delta int) error {
		return txn.Invoke(ctx, c.nodes[i].ID(), "bank", "add", addArg{Delta: delta}, nil)
	}
	// begin starts a transfer of 10 from P1 to P2, left uncommitted, and
	// checks that P2 voted in its reply.
	begin := func(t *testing.T, c *cluster, ctx context.Context) *dist.Txn {
		t.Helper()
		txn, err := c.coord.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := invoke(ctx, c, txn, 1, -10); err != nil {
			t.Fatal(err)
		}
		if err := invoke(ctx, c, txn, 2, 10); err != nil {
			t.Fatal(err)
		}
		if n := len(pendingAt(t, c, 2)); n != 1 {
			t.Fatalf("P2 holds %d prepared records after its invoke, want 1: it did not vote in its reply", n)
		}
		return txn
	}
	transfer := func(ctx context.Context, c *cluster) error {
		return c.coord.Run(ctx, func(txn *dist.Txn) error {
			if err := invoke(ctx, c, txn, 1, -10); err != nil {
				return err
			}
			return invoke(ctx, c, txn, 2, 10)
		})
	}
	cells := map[string]struct {
		fake bool // the cell runs on a clock that moves only when told
		want [3]int
		run  func(t *testing.T, c *cluster, ctx context.Context, clk *clock.Fake)
	}{
		"firstCrashBeforeSecondInvoke": {want: [3]int{100, 80, 120}, run: func(t *testing.T, c *cluster, ctx context.Context, _ *clock.Fake) {
			txn, err := c.coord.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := invoke(ctx, c, txn, 1, -10); err != nil {
				t.Fatal(err)
			}
			c.nodes[1].Crash()
			if err := invoke(ctx, c, txn, 2, 10); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(ctx); err != nil {
				t.Fatalf("Commit = %v, want nil: P1 voted before it crashed", err)
			}
			c.nodes[1].Restart()
			opened := func() bool {
				_, err := readAt(ctx, c.coord, c.nodes[1].ID())
				return err == nil
			}
			if err := waitUntil(opened); err != nil {
				t.Fatal("P1 kept refusing its account after the transaction committed")
			}
		}},
		"secondInvokeFailsAfterFirstVote": {want: [3]int{100, 90, 110}, run: func(t *testing.T, c *cluster, ctx context.Context, _ *clock.Fake) {
			txn, err := c.coord.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := invoke(ctx, c, txn, 1, -10); err != nil {
				t.Fatal(err)
			}
			c.net.Partition(c.nodes[0].ID(), c.nodes[2].ID())
			if err := invoke(ctx, c, txn, 2, 10); err == nil {
				t.Fatal("an invoke across a partition succeeded")
			}
			c.net.Heal(c.nodes[0].ID(), c.nodes[2].ID())
			if n := len(pendingAt(t, c, 1)); n != 1 {
				t.Fatalf("P1 holds %d prepared records before the abort, want its vote's 1", n)
			}
			if err := txn.Abort(ctx); err != nil {
				t.Fatal(err)
			}
			if n := len(pendingAt(t, c, 1)); n != 0 {
				t.Fatalf("P1 keeps %d prepared records after the abort, want 0", n)
			}
		}},
		"restartBetweenInvokes": {want: [3]int{100, 90, 110}, run: func(t *testing.T, c *cluster, ctx context.Context, _ *clock.Fake) {
			txn := begin(t, c, ctx)
			c.nodes[2].Crash()
			c.nodes[2].Restart()
			if err := invoke(ctx, c, txn, 2, 5); err == nil || !strings.Contains(err.Error(), dist.ErrAborted.Error()) {
				t.Fatalf("continuation after a participant restart = %v, want it refused as aborted", err)
			}
			if err := txn.Commit(ctx); !errors.Is(err, dist.ErrAborted) {
				t.Fatalf("Commit = %v, want ErrAborted", err)
			}
		}},
		"participantCrashBeforeReply": {want: [3]int{100, 90, 110}, run: func(t *testing.T, c *cluster, ctx context.Context, _ *clock.Fake) {
			c.net.PartitionOneWay(c.nodes[2].ID(), c.nodes[0].ID())
			done := make(chan error, 1)
			go func() { done <- transfer(ctx, c) }()
			if err := waitUntil(func() bool { return len(pendingAt(t, c, 2)) == 1 }); err != nil {
				t.Fatal("P2 never forced its vote")
			}
			c.nodes[2].Crash()
			c.net.Heal(c.nodes[2].ID(), c.nodes[0].ID())
			if err := <-done; err == nil {
				t.Fatal("a transfer whose second participant's reply never came committed")
			}
			c.nodes[2].Restart()
		}},
		"lostVoteThenCommit": {want: [3]int{110, 80, 110}, run: func(t *testing.T, c *cluster, ctx context.Context, _ *clock.Fake) {
			txn, err := c.coord.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := invoke(ctx, c, txn, 1, -10); err != nil {
				t.Fatal(err)
			}
			c.net.PartitionOneWay(c.nodes[2].ID(), c.nodes[0].ID())
			done := make(chan error, 1)
			go func() { done <- invoke(ctx, c, txn, 2, 10) }()
			if err := waitUntil(func() bool { return len(pendingAt(t, c, 2)) == 1 }); err != nil {
				t.Fatal("P2 never forced its vote")
			}
			c.nodes[2].Crash()
			c.net.Heal(c.nodes[2].ID(), c.nodes[0].ID())
			if err := <-done; err == nil {
				t.Fatal("an invoke whose reply never came succeeded")
			}
			// The money P2 never got stays at the caller's own node.
			if err := invoke(ctx, c, txn, 0, 10); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(ctx); err != nil {
				t.Fatalf("Commit = %v, want nil", err)
			}
			c.nodes[2].Restart()
			if err := waitUntil(func() bool { return len(pendingAt(t, c, 2)) == 0 }); err != nil {
				t.Fatal("P2 kept its vote for a transaction that committed without it")
			}
			if got := c.balanceAt(t, 2); got != 100 {
				t.Fatalf("P2's balance = %d after its restart, want 100: it installed the vote the commit left out", got)
			}
		}},
		"participantCrashAfterReply": {want: [3]int{100, 80, 120}, run: func(t *testing.T, c *cluster, ctx context.Context, _ *clock.Fake) {
			txn := begin(t, c, ctx)
			c.nodes[2].Crash()
			if err := txn.Commit(ctx); err != nil {
				t.Fatalf("Commit = %v, want nil: P2 voted before it crashed", err)
			}
			c.nodes[2].Restart()
			opened := func() bool {
				return c.coord.Run(ctx, func(txn *dist.Txn) error {
					return txn.Invoke(ctx, c.nodes[2].ID(), "bank", "get", struct{}{}, nil)
				}) == nil
			}
			if err := waitUntil(opened); err != nil {
				t.Fatal("P2 kept refusing its account after the transaction committed")
			}
		}},
		"coordinatorCrashBeforeCommit": {fake: true, want: [3]int{100, 90, 110}, run: func(t *testing.T, c *cluster, ctx context.Context, clk *clock.Fake) {
			begin(t, c, ctx)
			c.nodes[0].Crash()
			c.nodes[0].Restart()
			for range 2 { // the first tick clears the touched bits, the second asks
				clk.Advance(terminateAfter)
				time.Sleep(50 * time.Millisecond)
			}
			left := func() bool {
				return len(pendingAt(t, c, 2)) == 0 && c.nodes[1].Runtime().ActiveActions()+c.nodes[2].Runtime().ActiveActions() == 0
			}
			if err := waitUntil(left); err != nil {
				t.Fatal("the vote of a transaction whose coordinator crashed outlived the termination interval")
			}
		}},
		"reopenedThenCrash": {want: [3]int{100, 90, 110}, run: func(t *testing.T, c *cluster, ctx context.Context, _ *clock.Fake) {
			reopened := counterValue(t, "mca_dist_votes_reopened_total")
			txn := begin(t, c, ctx)
			if err := invoke(ctx, c, txn, 2, 5); err != nil {
				t.Fatal(err)
			}
			if got := counterValue(t, "mca_dist_votes_reopened_total") - reopened; got != 1 {
				t.Fatalf("%v votes reopened, want 1: the continuation did not reopen P2's vote", got)
			}
			c.nodes[2].Crash()
			c.nodes[2].Restart()
			if c.dirs[2] != "" && len(pendingAt(t, c, 2)) != 1 {
				t.Fatal("P2's restart did not bring back the reopened vote's record: the cell tests nothing")
			}
			if err := txn.Commit(ctx); !errors.Is(err, dist.ErrAborted) {
				t.Fatalf("Commit = %v, want ErrAborted: P2 lost the continuation's write with its crash", err)
			}
			// A restart that loaded the record keeps P2's account refused
			// until the transaction has ended.
			opened := func() bool {
				return c.coord.Run(ctx, func(txn *dist.Txn) error {
					return txn.Invoke(ctx, c.nodes[2].ID(), "bank", "get", struct{}{}, nil)
				}) == nil
			}
			if err := waitUntil(opened); err != nil {
				t.Fatal("P2 kept refusing its account after the transaction ended")
			}
		}},
		"lateContinuation": {fake: true, want: [3]int{100, 80, 120}, run: func(t *testing.T, c *cluster, ctx context.Context, _ *clock.Fake) {
			txn := begin(t, c, ctx)
			c.net.PartitionOneWay(c.nodes[0].ID(), c.nodes[2].ID())
			short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
			err := invoke(short, c, txn, 2, 1000)
			cancel()
			if err == nil {
				t.Fatal("the continuation got through the partition")
			}
			c.net.Heal(c.nodes[0].ID(), c.nodes[2].ID())
			if err := txn.Commit(ctx); err != nil {
				t.Fatalf("Commit = %v, want nil", err)
			}
			// The lost continuation arrives now, after the commit-time
			// prepare and before the commit.
			arg, err := marshal(addArg{Delta: 1000})
			if err != nil {
				t.Fatal(err)
			}
			body := binary.AppendUvarint([]byte{0xD1, 0x01, 0x00}, uint64(txn.ID())) // invoke, continuation
			for _, field := range [][]byte{[]byte("bank"), []byte("add"), arg} {
				body = append(binary.AppendUvarint(body, uint64(len(field))), field...)
			}
			body = append(body, 0, 0) // no structure, no releases
			_, err = c.nodes[0].Peer().CallRaw(ctx, c.nodes[2].ID(), "dist.invoke", body)
			if err == nil || !strings.Contains(err.Error(), dist.ErrPrepared.Error()) {
				t.Fatalf("late continuation = %v, want %v", err, dist.ErrPrepared)
			}
		}},
		"abortAfterVote": {fake: true, want: [3]int{100, 90, 110}, run: func(t *testing.T, c *cluster, ctx context.Context, _ *clock.Fake) {
			txn := begin(t, c, ctx)
			if err := txn.Abort(ctx); err != nil {
				t.Fatal(err)
			}
			if n := len(pendingAt(t, c, 2)); n != 0 {
				t.Fatalf("P2 keeps %d prepared records after the abort, want 0", n)
			}
		}},
	}
	for _, backing := range []string{"memory", "file"} {
		for name, cell := range cells {
			t.Run(backing+"/"+name, func(t *testing.T) {
				var clk clock.Clock = clock.Real()
				fake := clock.NewFake()
				if cell.fake {
					clk = fake
				}
				c := backedClusterOn(t, backing == "file", clk)
				ctx := context.Background()
				cell.run(t, c, ctx, fake)
				if err := transfer(ctx, c); err != nil {
					t.Fatalf("transfer after the cell: %v", err)
				}
				settleCluster(t, c, ctx)
				if got := stableBalances(t, c); got != cell.want {
					t.Fatalf("stable balances = %v, want %v", got, cell.want)
				}
			})
		}
	}
}

// TestCommitCrashMatrixRestartInDoubt is the matrix for a node that
// restarts with records in doubt, over both stable backings. A restart
// opens the node at once; the store refuses only the objects a prepared
// record still in doubt writes. Every node hosts a second account,
// "spare", that no transfer touches:
//
//   - participantRestartsCoordinatorDown: P1 restarts prepared while its
//     coordinator is down, and serves a transaction on its spare account
//     and coordinates one of its own;
//   - coordinatorRestartsParticipantDown: the coordinator restarts owing P1
//     a commit while P1 is down, and begins and commits a transaction
//     elsewhere;
//   - refusedUntilCommitted and refusedUntilAborted: P1 restarts in doubt
//     while the coordinator is down; a transaction reading its account is
//     refused until the record resolves, and a retry then reads the
//     decided balance.
func TestCommitCrashMatrixRestartInDoubt(t *testing.T) {
	add := func(ctx context.Context, mgr *dist.Manager, resource string, nodes ...ids.NodeID) error {
		return mgr.Run(ctx, func(txn *dist.Txn) error {
			for _, n := range nodes {
				if err := txn.Invoke(ctx, n, resource, "add", addArg{Delta: 1}, nil); err != nil {
					return err
				}
			}
			return nil
		})
	}
	// refusedUntil restarts P1 in doubt while the coordinator is down, and
	// checks that a read of P1's account from P2 is refused until the
	// coordinator is back and the record resolved, then reads want.
	refusedUntil := func(t *testing.T, c *cluster, ctx context.Context, want int) {
		t.Helper()
		c.nodes[1].Crash()
		c.nodes[1].Restart()
		if _, err := readAt(ctx, c.parts[1], c.nodes[1].ID()); err == nil || !strings.Contains(err.Error(), store.ErrUnresolved.Error()) {
			t.Fatalf("read of the in-doubt account = %v, want %v", err, store.ErrUnresolved)
		}
		c.nodes[0].Restart()
		var got int
		if err := waitUntil(func() bool {
			var err error
			got, err = readAt(ctx, c.parts[1], c.nodes[1].ID())
			return err == nil
		}); err != nil {
			t.Fatal("the account stayed refused after its coordinator came back")
		}
		if got != want {
			t.Fatalf("P1's balance read after the record resolved = %d, want %d", got, want)
		}
	}
	cells := map[string]struct {
		bank, spare [3]int
		run         func(t *testing.T, c *cluster, ctx context.Context)
	}{
		"participantRestartsCoordinatorDown": {bank: [3]int{100, 100, 100}, spare: [3]int{100, 101, 101}, run: func(t *testing.T, c *cluster, ctx context.Context) {
			c.coord.TestHooks.AfterPrepare = func() { c.nodes[0].Crash() }
			if err := transfer(ctx, c, 1, 2, 10); err == nil {
				t.Fatal("a transfer whose coordinator crashed before the decision committed")
			}
			c.coord.TestHooks = dist.Hooks{}
			c.nodes[1].Crash()
			c.nodes[1].Restart()
			if err := add(ctx, c.parts[1], "spare", c.nodes[1].ID()); err != nil {
				t.Fatalf("a transaction on P1's spare account = %v, want it committed", err)
			}
			if err := add(ctx, c.parts[0], "spare", c.nodes[2].ID()); err != nil {
				t.Fatalf("a transaction P1 coordinates = %v, want it committed", err)
			}
			c.nodes[0].Restart()
		}},
		"coordinatorRestartsParticipantDown": {bank: [3]int{100, 90, 110}, spare: [3]int{101, 100, 101}, run: func(t *testing.T, c *cluster, ctx context.Context) {
			c.coord.TestHooks.AfterDecision = func() { c.nodes[1].Crash() }
			if err := transfer(ctx, c, 1, 2, 10); err != nil {
				t.Fatalf("Commit = %v, want nil: the decision is durable", err)
			}
			c.coord.TestHooks = dist.Hooks{}
			c.nodes[0].Crash()
			c.nodes[0].Restart()
			if err := add(ctx, c.coord, "spare", c.nodes[0].ID(), c.nodes[2].ID()); err != nil {
				t.Fatalf("a transaction the restarted coordinator runs = %v, want it committed", err)
			}
			c.nodes[1].Restart()
		}},
		"refusedUntilCommitted": {bank: [3]int{100, 90, 110}, spare: [3]int{100, 100, 100}, run: func(t *testing.T, c *cluster, ctx context.Context) {
			c.coord.TestHooks.AfterDecision = func() { c.nodes[0].Crash() }
			_ = transfer(ctx, c, 1, 2, 10) // decided; the crash may fail the local apply
			c.coord.TestHooks = dist.Hooks{}
			refusedUntil(t, c, ctx, 90)
		}},
		"refusedUntilAborted": {bank: [3]int{100, 100, 100}, spare: [3]int{100, 100, 100}, run: func(t *testing.T, c *cluster, ctx context.Context) {
			c.coord.TestHooks.AfterPrepare = func() { c.nodes[0].Crash() }
			if err := transfer(ctx, c, 1, 2, 10); err == nil {
				t.Fatal("a transfer whose coordinator crashed before the decision committed")
			}
			c.coord.TestHooks = dist.Hooks{}
			refusedUntil(t, c, ctx, 100)
		}},
	}
	for _, backing := range []string{"memory", "file"} {
		for name, cell := range cells {
			t.Run(backing+"/"+name, func(t *testing.T) {
				c := backedCluster(t, backing == "file")
				var spare [3]*bank
				for i, mgr := range []*dist.Manager{c.coord, c.parts[0], c.parts[1]} {
					spare[i] = newBank(100)
					c.nodes[i].Host(spare[i])
					mgr.RegisterResource("spare", spare[i])
				}
				ctx := context.Background()
				cell.run(t, c, ctx)
				settleCluster(t, c, ctx)
				if got := stableBalances(t, c); got != cell.bank {
					t.Fatalf("stable balances = %v, want %v", got, cell.bank)
				}
				var got [3]int
				for i, b := range spare {
					got[i] = 100
					if m, err := object.Load[int](b.acctID, c.nodes[i].Stable()); err == nil {
						got[i] = m.Peek()
					} else if !errors.Is(err, store.ErrNotFound) {
						t.Fatal(err)
					}
				}
				if got != cell.spare {
					t.Fatalf("stable spare balances = %v, want %v", got, cell.spare)
				}
			})
		}
	}
}
