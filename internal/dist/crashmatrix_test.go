package dist_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mca/internal/dist"
	"mca/internal/ids"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/rpc"
	"mca/internal/store"
)

// backedCluster is newCluster with a choice of stable-store backing:
// in-memory simulation or a real log directory per node.
func backedCluster(t *testing.T, fileBacked bool) *cluster {
	t.Helper()
	nw := netsim.New(netsim.Config{})
	t.Cleanup(nw.Close)

	rpcOpts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 300 * time.Millisecond}
	c := &cluster{net: nw}
	for i := 0; i < 3; i++ {
		opts := []node.Option{node.WithRPCOptions(rpcOpts)}
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
// point — the three batch-apply points plus the mid-group-commit-window
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
		// decision: the transaction must survive as committed.
		{"beforeJournal", store.CrashBeforeJournal, true},
		{"afterJournal", store.CrashAfterJournal, true},
		{"midApply", store.CrashMidApply, true},
		// The force dies mid group-commit window, before any record is
		// durable: prepare (participant) or decision (coordinator) is
		// lost, so the transaction aborts.
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
						// prepare record or the coordinator's decision
						// record.
						arm()
					} else {
						// ApplyBatch runs only after the decision: at the
						// coordinator in local commit, at the participant
						// in phase 2.
						c.coord.TestHooks = dist.Hooks{AfterDecision: arm}
					}

					// The transfer has a coordinator-local leg and two
					// remote legs, so every victim is a writer.
					err := c.coord.Run(ctx, func(txn *dist.Txn) error {
						if err := txn.Invoke(ctx, c.nodes[0].ID(), "bank", "add", addArg{Delta: -5}, nil); err != nil {
							return err
						}
						if err := txn.Invoke(ctx, c.nodes[1].ID(), "bank", "add", addArg{Delta: 2}, nil); err != nil {
							return err
						}
						return txn.Invoke(ctx, c.nodes[2].ID(), "bank", "add", addArg{Delta: 3}, nil)
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
					} else {
						if !errors.Is(err, dist.ErrAborted) {
							t.Fatalf("Commit = %v, want ErrAborted (force died before the record was durable)", err)
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
// the protocol: the commit completed everywhere and every forget was
// appended, but a forget is not forced — it rides the node's next forced
// record — so a crash now resurrects intentions of finished
// transactions. The cells crash the participant ("crash after install,
// forget not yet forced"), the coordinator ("coordinator crash with
// unforced forget") and both at once. Recovery re-drives what it finds;
// the re-drive must be idempotent, and the balances exact — also after
// further transfers over the same accounts.
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
				// forced records carry the first one's forgets to disk,
				// so only the second can come back — were the first
				// re-driven, its stale write set would undo the second.
				first, second := transfer(), transfer()
				for _, i := range crash {
					c.nodes[i].Crash()
				}
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
							t.Fatalf("node %d: the unforced forget is on disk; the cell tests nothing", i)
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

// TestDurableTransferForcesFiveTimes pins the force budget of a
// two-participant transfer on the file backing: each participant forces
// its prepare record and its phase-2 install, the coordinator forces the
// decision — five forces, each one append and one fsync. The three
// forgets force nothing: they ride the next transfer's records.
func TestDurableTransferForcesFiveTimes(t *testing.T) {
	c := backedCluster(t, true)
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
	if got := f1 - f0; got != 5*transfers {
		t.Fatalf("%d transfers forced the logs %d times, want %d (2 prepares + 1 decision + 2 installs each)", transfers, got, 5*transfers)
	}
	// Every forget but the last transfer's three has been carried.
	if got, want := r1-r0, uint64(8*transfers-3); got != want {
		t.Fatalf("%d transfers logged %d records, want %d", transfers, got, want)
	}
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
// single participant, which is handed the decision in one commit1 message
// and forces one record: a participant restart between two invocations,
// a crash before the commit1 arrives, a crash between the force and the
// reply, a commit1 duplicated after the record was forgotten, and a
// participant that stays silent past the caller's context — over both
// stable backings.
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
		// The participant loses the first invocation's effects in a crash;
		// a second invocation must not start a fresh action and commit
		// the later effects alone.
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
			c.nodes[1].Crash()
			c.nodes[1].Restart()
			if err := txn.Commit(ctx); !errors.Is(err, dist.ErrAborted) {
				t.Fatalf("Commit = %v, want ErrAborted (no action, no record: presumed abort)", err)
			}
			wantBalances(t, c, ctx, [3]int{100, 100, 100})
		},
		// The record is forced and the reply lost; the participant then
		// crashes. The coordinator's retransmission must be answered
		// committed, from the log, and the write set installed once.
		"crashAfterForce": func(t *testing.T, c *cluster, ctx context.Context) {
			txn := begin(t, c, ctx, 7)
			c.net.PartitionOneWay(c.nodes[1].ID(), c.nodes[0].ID())
			done := make(chan error, 1)
			go func() { done <- txn.Commit(ctx) }()
			if err := waitUntil(func() bool { return len(pendingAt(t, c, 1)) == 1 }); err != nil {
				t.Fatalf("the decision record: %v", err)
			}
			c.nodes[1].Crash()
			c.net.Heal(c.nodes[1].ID(), c.nodes[0].ID())
			c.nodes[1].Restart()
			if err := <-done; err != nil {
				t.Fatalf("Commit = %v, want nil (the restarted participant answers from its log)", err)
			}
			wantBalances(t, c, ctx, [3]int{100, 107, 100})
		},
		"duplicateAfterForget": func(t *testing.T, c *cluster, ctx context.Context) {
			txn := begin(t, c, ctx, 7)
			if err := txn.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			if err := waitUntil(func() bool { return len(pendingAt(t, c, 1)) == 0 }); err != nil {
				t.Fatalf("the release forgetting the decision record: %v", err)
			}
			body := binary.AppendUvarint([]byte{0xD1, 0x05}, uint64(txn.ID()))
			reply, err := c.nodes[0].Peer().CallRaw(ctx, c.nodes[1].ID(), "dist.commit1", body)
			if err != nil {
				t.Fatal(err)
			}
			if want := []byte{0xD1, 0x06, 0}; !bytes.Equal(reply, want) {
				t.Fatalf("late duplicate commit1 answered % x, want % x (aborted: nobody is listening)", reply, want)
			}
			if n := len(pendingAt(t, c, 1)); n != 0 {
				t.Fatalf("late duplicate commit1 left %d records", n)
			}
			wantBalances(t, c, ctx, [3]int{100, 107, 100})
		},
		"silentParticipant": func(t *testing.T, c *cluster, ctx context.Context) {
			txn := begin(t, c, ctx, 7)
			c.net.PartitionOneWay(c.nodes[1].ID(), c.nodes[0].ID())
			short, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
			defer cancel()
			err := txn.Commit(short)
			if !errors.Is(err, dist.ErrInDoubt) || errors.Is(err, dist.ErrAborted) {
				t.Fatalf("Commit = %v, want ErrInDoubt and no invented outcome", err)
			}
			c.net.Heal(c.nodes[1].ID(), c.nodes[0].ID())
			// The commit1 did arrive: the participant decided commit.
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

// TestSingleParticipantWriteForcesOnce pins the force budget of a
// transaction with one participant on the file backing: the participant
// forces one record, the decision with its write set, and the coordinator
// forces nothing. The forget rides the next transaction's record.
func TestSingleParticipantWriteForcesOnce(t *testing.T) {
	c := backedCluster(t, true)
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
	if got := f1 - f0; got != writes {
		t.Fatalf("%d single-participant writes forced the logs %d times, want %d (one decision record each)", writes, got, writes)
	}
	// Every forget but the last write's has been carried.
	if got, want := r1-r0, uint64(2*writes-1); got != want {
		t.Fatalf("%d writes logged %d records, want %d", writes, got, want)
	}
	if f, _ := c.nodes[0].Stable().WAL().Stats(); f != 0 {
		t.Fatalf("the coordinator forced its log %d times, want 0", f)
	}
}
