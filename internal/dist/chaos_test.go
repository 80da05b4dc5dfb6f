package dist_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"mca/internal/dist"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/object"
	"mca/internal/rpc"
	"mca/internal/store"
)

// TestChaosTransfersConserveMoney is the randomized fault-injection
// stress test: concurrent distributed transfers run while participant
// nodes — and on the file backing, one time in six, the coordinator —
// crash and restart at random. There every crash also loses whatever
// forgets the victim had not yet forced, so restarts re-drive finished
// transactions. After the
// storm ends and every intention log drains, the committed (stable)
// balances must conserve the total — two-phase commit's all-or-nothing
// guarantee under fail-silence. Half the transfers continue at their
// second participant, reopening the vote that participant cast in its
// first invoke reply.
func TestChaosTransfersConserveMoney(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	// Both stable-store backings: the in-memory simulation and the
	// on-disk log, replayed on every restart.
	t.Run("memory", func(t *testing.T) { runChaosTransfers(t, false) })
	t.Run("file", func(t *testing.T) { runChaosTransfers(t, true) })
}

func runChaosTransfers(t *testing.T, fileBacked bool) {
	const (
		participants = 3
		initial      = 100
		workers      = 4
		stormFor     = 1200 * time.Millisecond
	)

	nw := netsim.New(netsim.Config{LossRate: 0.02, CorruptRate: 0.02, Seed: 1234})
	t.Cleanup(nw.Close)
	rpcOpts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 200 * time.Millisecond}
	newNode := func() (*node.Node, error) {
		opts := []node.Option{node.WithRPCOptions(rpcOpts)}
		if fileBacked {
			opts = append(opts, node.WithStableDir(t.TempDir()))
		}
		return node.New(nw, opts...)
	}

	coordNode, err := newNode()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coordNode.Stop)
	coord := dist.NewManager(coordNode)

	banks := make([]*bank, participants)
	nodes := make([]*node.Node, participants)
	for i := 0; i < participants; i++ {
		nd, err := newNode()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		mgr := dist.NewManager(nd)
		banks[i] = newBank(initial)
		nd.Host(banks[i])
		mgr.RegisterResource("bank", banks[i])
		nodes[i] = nd
	}

	ctx := context.Background()
	stop := make(chan struct{})
	reopened := counterValue(t, "mca_dist_votes_reopened_total")

	// The storm: crash a random node, let it stay down for a while,
	// restart it; repeat until told to stop.
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(30+rng.Intn(60)) * time.Millisecond):
			}
			victim := nodes[rng.Intn(len(nodes))]
			if fileBacked && rng.Intn(6) == 0 {
				victim = coordNode
			}
			victim.Crash()
			select {
			case <-stop:
				victim.Restart()
				return
			case <-time.After(time.Duration(30+rng.Intn(120)) * time.Millisecond):
			}
			victim.Restart()
		}
	}()

	// The workload: transfers between random banks; errors (aborts,
	// timeouts, accounts in doubt) are expected and ignored — the
	// invariant must hold regardless.
	var workWG sync.WaitGroup
	var attempted, succeeded int64
	var counterMu sync.Mutex
	for w := 0; w < workers; w++ {
		workWG.Add(1)
		go func() {
			defer workWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				from := rng.Intn(participants)
				to := (from + 1 + rng.Intn(participants-1)) % participants
				amount := 1
				if rng.Intn(2) == 0 {
					amount = 2 // credited in two invokes: P1, P2, P2
				}
				err := coord.Run(ctx, func(txn *dist.Txn) error {
					if err := txn.Invoke(ctx, nodes[from].ID(), "bank", "add", addArg{Delta: -amount}, nil); err != nil {
						return err
					}
					for range amount {
						if err := txn.Invoke(ctx, nodes[to].ID(), "bank", "add", addArg{Delta: 1}, nil); err != nil {
							return err
						}
					}
					return nil
				})
				counterMu.Lock()
				attempted++
				if err == nil {
					succeeded++
				}
				counterMu.Unlock()
				if err != nil {
					// A crashed coordinator refuses at once: do not spin.
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}

	time.Sleep(stormFor)
	close(stop)
	workWG.Wait()
	chaosWG.Wait()

	// Settle: everything up, all pending protocol state drained.
	coordNode.Restart() // no-op when already up
	for _, nd := range nodes {
		nd.Restart()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		pendingTotal := 0
		if _, err := coord.RecoverPending(ctx); err != nil {
			t.Fatal(err)
		}
		logs := []*store.Stable{coordNode.Stable()}
		for _, nd := range nodes {
			logs = append(logs, nd.Stable())
		}
		var stuck []string
		for i, st := range logs {
			pending, err := st.Intentions().Pending()
			if err != nil {
				t.Fatal(err)
			}
			pendingTotal += len(pending)
			for _, in := range pending {
				stuck = append(stuck, fmt.Sprintf("log %d (0 is the coordinator's): action %v status %v coordinator %v participants %v",
					i, in.Action, in.Status, in.Coordinator, in.Participants))
			}
		}
		if pendingTotal == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("intention logs did not drain: %d records pending\n%s", pendingTotal, strings.Join(stuck, "\n"))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// One final crash/restart cycle forces every bank to re-activate
	// from stable storage, so the in-memory view below is exactly the
	// committed state.
	for _, nd := range nodes {
		nd.Crash()
		nd.Restart()
	}
	waitForOpen := time.Now().Add(5 * time.Second)
	for {
		total := 0
		stale := false
		for i, b := range banks {
			m, err := object.Load[int](b.acctID, nodes[i].Stable())
			if err == nil {
				total += m.Peek()
			} else {
				// Never flushed: still at its initial value.
				total += initial
			}
			_ = stale
		}
		if total == participants*initial {
			reopened := counterValue(t, "mca_dist_votes_reopened_total") - reopened
			t.Logf("chaos summary: attempted=%d succeeded=%d crashes=[%d %d %d] coordinator crashes=%d reopened votes=%v total=%d",
				attempted, succeeded, nodes[0].Crashes(), nodes[1].Crashes(), nodes[2].Crashes(), coordNode.Crashes(), reopened, total)
			if succeeded == 0 {
				t.Fatal("no transfer ever succeeded: the storm was too strong to be meaningful")
			}
			if reopened == 0 {
				t.Fatal("no invoke vote was ever reopened: the storm did not run the reopen path")
			}
			return
		}
		if time.Now().After(waitForOpen) {
			t.Fatalf("committed balances do not conserve total: %d, want %d", total, participants*initial)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCommitOneCrashedParticipantCostsOneTimeout crashes one of four
// participants after every prepare succeeded. Phase 2 is no longer part
// of Commit, so the crashed node's missing ack costs the commit nothing —
// not the one call timeout a concurrent phase-2 round paid for it, let
// alone one per participant — and the decision stands: the restarted
// participant resolves it, and the decision record goes once every
// writer has acknowledged.
func TestCommitOneCrashedParticipantCostsOneTimeout(t *testing.T) {
	const callTimeout = 250 * time.Millisecond
	opts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: callTimeout}
	coord, nodes := fanoutCluster(t, 4, opts)
	ctx := context.Background()

	coord.TestHooks = dist.Hooks{AfterPrepare: func() { nodes[0].Crash() }}
	txn, err := coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		if err := txn.Invoke(ctx, nd.ID(), "bank", "add", addArg{Delta: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Now()
	err = txn.Commit(ctx)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Commit = %v, want nil (crashed participant is left to recovery)", err)
	}
	if elapsed >= callTimeout {
		t.Fatalf("commit with one crashed participant took %v, want it to return at the decision, well inside one call timeout (%v)", elapsed, callTimeout)
	}

	// Settle: the restarted participant resolves via the decision
	// record, the coordinator's re-drive forgets it.
	nodes[0].Restart()
	deadline := time.Now().Add(10 * time.Second)
	for {
		remaining, err := coord.RecoverPending(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if remaining == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator re-drive never drained: %d records pending", remaining)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAbortWithCrashedParticipantsIsFlat crashes three of five
// participants before commit: the prepare round and the abort round
// each cost one call timeout regardless of how many nodes are dead (a
// serial fan-out would pay one timeout per dead node in the abort
// round alone). The participants read, so that the prepare round asks
// every one of them: a writer would have voted in its invoke reply.
func TestAbortWithCrashedParticipantsIsFlat(t *testing.T) {
	const callTimeout = 250 * time.Millisecond
	opts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: callTimeout}
	coord, nodes := fanoutCluster(t, 5, opts)
	ctx := context.Background()

	txn, err := coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		if err := txn.Invoke(ctx, nd.ID(), "bank", "get", struct{}{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, nd := range nodes[:3] {
		nd.Crash()
	}

	start := time.Now()
	err = txn.Commit(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, dist.ErrAborted) {
		t.Fatalf("Commit = %v, want ErrAborted", err)
	}
	// Parallel rounds: ~1 timeout for prepare + ~1 for the abort
	// broadcast. Serial rounds would need ≥ 4 (1 prepare + 3 aborts).
	if elapsed >= 3*callTimeout {
		t.Fatalf("abort with three crashed participants took %v, want < %v (flat in the number of dead nodes)", elapsed, 3*callTimeout)
	}
}
