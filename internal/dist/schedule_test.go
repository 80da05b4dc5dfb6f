package dist_test

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mca/internal/dist"
	"mca/internal/ids"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/object"
	"mca/internal/rpc"
	"mca/internal/store"
)

var crashSeed = flag.Int64("crashseed", 0, "run TestSeededCrashSchedules for this one seed, logging its schedule")

const (
	// scheduleSeeds is how many seeds TestSeededCrashSchedules runs on each
	// stable-store backing, scheduleWorkers how many at once.
	scheduleSeeds, scheduleWorkers = 100, 25
	// scheduleSteps is the number of transfers in one schedule; transfer
	// i moves 1<<i, so no partial outcome can pass for another.
	scheduleSteps = 4
	// fenceBound is how long after every fault has healed a restarted
	// node may still refuse an object in doubt.
	fenceBound = 2 * time.Second
)

// TestSeededCrashSchedules searches the window a restart with records in
// doubt opens. Each seed draws a schedule of transfers between a
// coordinator and two participants, on netsim, and around each one a
// fault: a crash of any node after the votes or after the decision, a
// store crash point armed after the decision, a crash inside a
// force, or a partition that leaves a participant in doubt; between
// transfers it restarts some of the nodes that are down — a participant
// while its coordinator is down among them — and restarts an up
// participant in doubt. Once every fault heals, each seed checks that
// every fence is lifted within fenceBound, that the balances conserve the
// total and show every transfer whole or not at all, as Commit reported
// it (a transfer whose outcome Commit could not tell may go either way),
// and that they survive a crash of every node. A failing seed is printed;
// -crashseed replays it.
func TestSeededCrashSchedules(t *testing.T) {
	for _, backing := range []string{"memory", "file"} {
		t.Run(backing, func(t *testing.T) {
			dir := ""
			if backing == "file" {
				dir = t.TempDir()
			}
			var stats scheduleStats
			if *crashSeed != 0 {
				sched, err := runSchedule(*crashSeed, dir, &stats)
				t.Logf("seed %d:\n%s", *crashSeed, sched)
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			var wg sync.WaitGroup
			sem := make(chan struct{}, scheduleWorkers)
			for seed := int64(1); seed <= scheduleSeeds; seed++ {
				wg.Add(1)
				sem <- struct{}{}
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					if sched, err := runSchedule(seed, dir, &stats); err != nil {
						t.Errorf("seed %d: %v\n%s\nreplay: go test ./internal/dist -run 'TestSeededCrashSchedules/%s' -crashseed %d -v", seed, err, sched, backing, seed)
					}
				}()
			}
			wg.Wait()
			t.Logf("%d seeds: %d restarts with the coordinator down, %d seeds with an object still refused once every fault healed",
				scheduleSeeds, stats.restartsCoordinatorDown.Load(), stats.fencedAtHeal.Load())
			if stats.restartsCoordinatorDown.Load() == 0 || stats.fencedAtHeal.Load() == 0 {
				t.Fatal("the schedules never restarted a node in doubt while its coordinator was down")
			}
		})
	}
}

// scheduleStats counts, over a run's seeds, how often the schedules
// reached the window they search.
type scheduleStats struct {
	restartsCoordinatorDown, fencedAtHeal atomic.Int64
}

// transferOutcome is what Commit said of one transfer.
type transferOutcome struct {
	from, to, amount int
	committed, known bool
}

// runSchedule runs seed's schedule on a fresh cluster — file-backed in a
// fresh directory under dir, unless dir is empty — and returns the
// schedule as run, with the first check it failed.
func runSchedule(seed int64, dir string, stats *scheduleStats) (string, error) {
	const initial = 100
	rng := rand.New(rand.NewSource(seed))
	var sched strings.Builder
	logf := func(format string, args ...any) { fmt.Fprintf(&sched, format+"\n", args...) }

	nw := netsim.New(netsim.Config{})
	defer nw.Close()
	rpcOpts := rpc.Options{RetryInterval: 2 * time.Millisecond, CallTimeout: 40 * time.Millisecond}
	var (
		nodes [3]*node.Node // the coordinator, then the participants
		mgrs  [3]*dist.Manager
		banks [3]*bank
	)
	for i := range nodes {
		opts := []node.Option{node.WithRPCOptions(rpcOpts)}
		if dir != "" {
			d, err := os.MkdirTemp(dir, "node")
			if err != nil {
				return "", err
			}
			opts = append(opts, node.WithStableDir(d))
		}
		nd, err := node.New(nw, opts...)
		if err != nil {
			return "", err
		}
		defer nd.Stop()
		nodes[i], mgrs[i], banks[i] = nd, dist.NewManager(nd), newBank(initial)
		nd.Host(banks[i])
		mgrs[i].RegisterResource("bank", banks[i])
	}
	coord := mgrs[0]
	ctx := context.Background()
	var outcomes []transferOutcome

	for step := range scheduleSteps {
		from := rng.Intn(3)
		to := (from + 1 + rng.Intn(2)) % 3
		victim := rng.Intn(3)
		partitioned := false
		switch fault := rng.Intn(8); fault {
		case 1:
			logf("step %d: crash n%d after the votes", step, victim)
			coord.TestHooks.AfterPrepare = func() { nodes[victim].Crash() }
		case 2:
			logf("step %d: crash n%d after the decision", step, victim)
			coord.TestHooks.AfterDecision = func() { nodes[victim].Crash() }
		case 3:
			// Three draws, as when the store had a third point that
			// behaved as after-force: every seed keeps its schedule.
			point := []store.CrashPoint{store.CrashBeforeForce, store.CrashAfterForce, store.CrashAfterForce}[rng.Intn(3)]
			logf("step %d: store crash point %d at n%d after the decision", step, point, victim)
			coord.TestHooks.AfterDecision = func() { nodes[victim].Stable().CrashDuringNextBatch(point) }
		case 4:
			victim = []int{0, from, to}[rng.Intn(3)]
			logf("step %d: crash inside n%d's next force", step, victim)
			nodes[victim].Stable().CrashDuringNextForce()
		case 5:
			victim = 1 + rng.Intn(2)
			partitioned = true
			logf("step %d: partition n0|n%d after the votes", step, victim)
			coord.TestHooks.AfterPrepare = func() { nw.Partition(nodes[0].ID(), nodes[victim].ID()) }
		}
		amount := 1 << step
		if nodes[0].Crashed() {
			logf("step %d: coordinator down, no transfer", step)
		} else {
			out := transferOutcome{from: from, to: to, amount: amount}
			out.committed, out.known = scheduledTransfer(ctx, coord, nodes[from].ID(), nodes[to].ID(), amount)
			logf("step %d: transfer %d n%d->n%d: committed=%v known=%v", step, amount, from, to, out.committed, out.known)
			outcomes = append(outcomes, out)
		}
		coord.TestHooks = dist.Hooks{}
		time.Sleep(5 * time.Millisecond) // a lazy phase 2 may meet its crash point
		for i, nd := range nodes {
			nd.Stable().DisarmCrashes()
			if nd.Stable().Crashed() && !nd.Crashed() {
				logf("step %d: n%d's store crashed: crash n%d", step, i, i)
				nd.Crash()
			}
		}
		for _, i := range rng.Perm(3) {
			if nodes[i].Crashed() && rng.Intn(2) == 0 {
				logf("step %d: restart n%d (coordinator down: %v)", step, i, nodes[0].Crashed())
				if i > 0 && nodes[0].Crashed() {
					stats.restartsCoordinatorDown.Add(1)
				}
				nodes[i].Restart()
			}
		}
		odds := 1 // in 4 that an up participant restarts, 3 in 4 while its coordinator is down
		if nodes[0].Crashed() {
			odds = 3
		}
		if p := 1 + rng.Intn(2); rng.Intn(4) < odds && !nodes[p].Crashed() {
			logf("step %d: crash and restart n%d (coordinator down: %v)", step, p, nodes[0].Crashed())
			if nodes[0].Crashed() {
				stats.restartsCoordinatorDown.Add(1)
			}
			nodes[p].Crash()
			nodes[p].Restart()
		}
		if partitioned && rng.Intn(2) == 0 {
			logf("step %d: heal n0|n%d", step, victim)
			nw.Heal(nodes[0].ID(), nodes[victim].ID())
		}
	}

	// Every fault heals: the partitions go, and every node comes back.
	// Each step disarmed what it armed and no operation reached, so no
	// injection fires from here on.
	logf("heal")
	for _, nd := range nodes[1:] {
		nw.Heal(nodes[0].ID(), nd.ID())
	}
	repair := func() {
		for _, nd := range nodes {
			if nd.Stable().Crashed() {
				nd.Crash()
				nd.Restart()
			}
		}
	}
	waitFor := func(d time.Duration, cond func() bool) bool {
		for deadline := time.Now().Add(d); ; time.Sleep(5 * time.Millisecond) {
			repair()
			if cond() {
				return true
			}
			if time.Now().After(deadline) {
				return false
			}
		}
	}
	unfenced := func() bool {
		for i, b := range banks {
			if _, err := nodes[i].Stable().Read(b.acctID); errors.Is(err, store.ErrUnresolved) || errors.Is(err, store.ErrCrashed) {
				return false
			}
		}
		return true
	}
	for i, b := range banks {
		if _, err := nodes[i].Stable().Read(b.acctID); errors.Is(err, store.ErrUnresolved) {
			stats.fencedAtHeal.Add(1)
			break
		}
	}
	if !waitFor(fenceBound, unfenced) {
		return sched.String(), fmt.Errorf("an object stayed refused %v after every fault healed", fenceBound)
	}
	delivered := func() bool {
		n, err := coord.RecoverPending(ctx)
		return err == nil && n == 0
	}
	if !waitFor(fenceBound, delivered) {
		return sched.String(), errors.New("the coordinator's decisions were never all acknowledged")
	}
	balances := func() ([3]int, error) {
		var out [3]int
		for i, b := range banks {
			m, err := object.Load[int](b.acctID, nodes[i].Stable())
			switch {
			case errors.Is(err, store.ErrNotFound):
				out[i] = initial
			case err != nil:
				return out, err
			default:
				out[i] = m.Peek()
			}
		}
		return out, nil
	}
	got, err := balances()
	if err != nil {
		return sched.String(), err
	}
	logf("balances %v", got)
	if err := explains(got, initial, outcomes); err != nil {
		return sched.String(), err
	}

	// Permanence: what every writer acknowledged survives a crash of
	// every node.
	for _, nd := range nodes {
		nd.Crash()
	}
	for _, nd := range nodes {
		nd.Restart()
	}
	if !waitFor(fenceBound, unfenced) {
		return sched.String(), fmt.Errorf("an object stayed refused %v after a restart of every node", fenceBound)
	}
	again, err := balances()
	if err != nil {
		return sched.String(), err
	}
	if again != got {
		return sched.String(), fmt.Errorf("balances %v after a crash of every node, were %v", again, got)
	}
	return sched.String(), nil
}

// scheduledTransfer moves amount from one node's account to another's and
// reports whether it committed, and whether Commit could tell.
func scheduledTransfer(ctx context.Context, coord *dist.Manager, from, to ids.NodeID, amount int) (committed, known bool) {
	txn, err := coord.Begin()
	if err != nil {
		return false, true
	}
	for _, leg := range []struct {
		at    ids.NodeID
		delta int
	}{{from, -amount}, {to, amount}} {
		if err := txn.Invoke(ctx, leg.at, "bank", "add", addArg{Delta: leg.delta}, nil); err != nil {
			_ = txn.Abort(ctx)
			return false, true // no decision was taken: presumed abort
		}
	}
	switch err := txn.Commit(ctx); {
	case err == nil:
		return true, true
	case errors.Is(err, dist.ErrAborted):
		return false, true
	}
	return false, false
}

// explains reports whether got is initial everywhere plus every committed
// transfer and some of the transfers whose outcome is unknown, each whole.
func explains(got [3]int, initial int, outcomes []transferOutcome) error {
	if got[0]+got[1]+got[2] != 3*initial {
		return fmt.Errorf("balances %v do not conserve %d", got, 3*initial)
	}
	var unknown []transferOutcome
	base := [3]int{initial, initial, initial}
	for _, o := range outcomes {
		switch {
		case !o.known:
			unknown = append(unknown, o)
		case o.committed:
			base[o.from] -= o.amount
			base[o.to] += o.amount
		}
	}
	for mask := 0; mask < 1<<len(unknown); mask++ {
		want := base
		for i, o := range unknown {
			if mask&(1<<i) != 0 {
				want[o.from] -= o.amount
				want[o.to] += o.amount
			}
		}
		if want == got {
			return nil
		}
	}
	return fmt.Errorf("balances %v are not the committed transfers plus whole unknown ones (from %v)", got, base)
}
