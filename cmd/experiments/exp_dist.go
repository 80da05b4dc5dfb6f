package main

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"mca/internal/billing"
	"mca/internal/bulletin"
	"mca/internal/core"
	"mca/internal/dist"
	"mca/internal/ids"
	"mca/internal/loadgen"
	"mca/internal/metrics"
	"mca/internal/nameserver"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/rpc"
	"mca/internal/workload"
)

// roundCounts reads mca_dist_rounds_total by round kind, both outcomes
// summed.
func roundCounts() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range metrics.Default().Gather() {
		if f.Name == "mca_dist_rounds_total" {
			for _, s := range f.Samples {
				out[s.Labels[1]] += s.Value // labels: kind, <kind>, outcome, <outcome>
			}
		}
	}
	return out
}

// roundsSince renders the rounds run since before by kind, sorted by
// name, e.g. "commit=2 prepare=2".
func roundsSince(before map[string]float64) string {
	now := roundCounts()
	var parts []string
	for _, kind := range slices.Sorted(maps.Keys(now)) {
		if n := now[kind] - before[kind]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%.0f", kind, n))
		}
	}
	return strings.Join(parts, " ")
}

// expTwoPhaseCommit measures commit latency against the number of
// participants and verifies the crash matrix end to end.
func expTwoPhaseCommit(rep *report) error {
	ctx := context.Background()
	opts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 500 * time.Millisecond}

	// Latency sweep.
	for _, participants := range []int{1, 2, 3, 4} {
		nw := netsim.New(netsim.Config{MinDelay: 200 * time.Microsecond, MaxDelay: time.Millisecond})
		coordNode, err := node.New(nw, node.WithRPCOptions(opts))
		if err != nil {
			nw.Close()
			return err
		}
		coord := dist.NewManager(coordNode)
		var targets []ids.NodeID
		for i := 0; i < participants; i++ {
			nd, err := node.New(nw, node.WithRPCOptions(opts))
			if err != nil {
				nw.Close()
				return err
			}
			mgr := dist.NewManager(nd)
			res := loadgen.NewRegister()
			nd.Host(res)
			mgr.RegisterResource("kv", res)
			targets = append(targets, nd.ID())
		}

		res := workload.Run(1, 30, func(_, _ int) error {
			return coord.Run(ctx, func(txn *dist.Txn) error {
				for _, target := range targets {
					if err := txn.Invoke(ctx, target, "kv", "add", loadgen.Delta{Delta: 1}, nil); err != nil {
						return err
					}
				}
				return nil
			})
		})
		rep.rowf("  participants=%d  commit p50=%v p99=%v errs=%d",
			participants,
			res.Latency.Percentile(50).Round(time.Microsecond),
			res.Latency.Percentile(99).Round(time.Microsecond),
			res.Errors)
		if res.Errors > 0 {
			rep.check(fmt.Sprintf("latency sweep with %d participants error-free", participants), false)
		}
		coordNode.Stop() // its flusher would resend what it still owes into the closed network
		nw.Close()
	}

	// Loss sweep: two participants under rising message loss — the
	// protocol's latency degrades with retransmissions but commits
	// stay correct.
	for _, loss := range []float64{0, 0.1, 0.3} {
		nw := netsim.New(netsim.Config{LossRate: loss, Seed: 77})
		coordNode, err := node.New(nw, node.WithRPCOptions(opts))
		if err != nil {
			nw.Close()
			return err
		}
		coord := dist.NewManager(coordNode)
		before := roundCounts()
		var targets []ids.NodeID
		resources := make([]*loadgen.Register, 2)
		for i := range resources {
			nd, err := node.New(nw, node.WithRPCOptions(opts))
			if err != nil {
				nw.Close()
				return err
			}
			mgr := dist.NewManager(nd)
			resources[i] = loadgen.NewRegister()
			nd.Host(resources[i])
			mgr.RegisterResource("kv", resources[i])
			targets = append(targets, nd.ID())
		}
		res := workload.Run(1, 20, func(_, _ int) error {
			return coord.Run(ctx, func(txn *dist.Txn) error {
				for _, target := range targets {
					if err := txn.Invoke(ctx, target, "kv", "add", loadgen.Delta{Delta: 1}, nil); err != nil {
						return err
					}
				}
				return nil
			})
		})
		committed := res.Ops - res.Errors
		consistent := peek(resources[0]) == committed && peek(resources[1]) == committed
		rep.rowf("  loss=%2.0f%%  commit p50=%8v  committed=%d/%d  rounds: %s", loss*100,
			res.Latency.Percentile(50).Round(time.Microsecond), committed, res.Ops,
			roundsSince(before))
		rep.check(fmt.Sprintf("loss=%.0f%%: committed actions applied at every participant", loss*100), consistent)
		coordNode.Stop()
		nw.Close()
	}

	// Crash matrix: participant in doubt, then restarted. Two
	// participants, so the transaction runs both phases; res is the one
	// the faults hit.
	{
		nw := netsim.New(netsim.Config{})
		defer nw.Close()
		coordNode, err := node.New(nw, node.WithRPCOptions(opts))
		if err != nil {
			return err
		}
		coord := dist.NewManager(coordNode)
		newParticipant := func() (*node.Node, *loadgen.Register, error) {
			nd, err := node.New(nw, node.WithRPCOptions(opts))
			if err != nil {
				return nil, nil, err
			}
			mgr := dist.NewManager(nd)
			res := loadgen.NewRegister()
			nd.Host(res)
			mgr.RegisterResource("kv", res)
			return nd, res, nil
		}
		pNode, res, err := newParticipant()
		if err != nil {
			return err
		}
		qNode, _, err := newParticipant()
		if err != nil {
			return err
		}
		addAtBoth := func(txn *dist.Txn, delta int) error {
			if err := txn.Invoke(ctx, qNode.ID(), "kv", "add", loadgen.Delta{Delta: delta}, nil); err != nil {
				return err
			}
			return txn.Invoke(ctx, pNode.ID(), "kv", "add", loadgen.Delta{Delta: delta}, nil)
		}

		coord.TestHooks.AfterPrepare = func() {
			nw.Partition(coordNode.ID(), pNode.ID())
		}
		err = coord.Run(ctx, func(txn *dist.Txn) error { return addAtBoth(txn, 5) })
		if err != nil {
			return fmt.Errorf("commit with partitioned completion: %w", err)
		}
		coord.TestHooks.AfterPrepare = nil

		pNode.Crash()
		nw.Heal(coordNode.ID(), pNode.ID())
		pNode.Restart()

		rep.check("in-doubt participant learns commit on recovery", peek(res) == 5)

		// Presumed abort: coordinator dies before deciding.
		crashDone := make(chan struct{})
		coord.TestHooks.AfterPrepare = func() {
			coordNode.Crash()
			close(crashDone)
		}
		txn, err := coord.Begin()
		if err != nil {
			return err
		}
		if err := addAtBoth(txn, 100); err != nil {
			return err
		}
		_ = txn.Commit(ctx)
		<-crashDone
		coord.TestHooks.AfterPrepare = nil
		pNode.Crash()
		coordNode.Restart()
		pNode.Restart()
		rep.check("undelivered decision presumed abort on recovery", peek(res) == 5)

		// One participant: it is handed the decision (one-phase commit).
		// It forces the decision record, its reply is lost, it crashes;
		// the coordinator's retransmission is answered from the log.
		txn, err = coord.Begin()
		if err != nil {
			return err
		}
		if err := txn.Invoke(ctx, pNode.ID(), "kv", "add", loadgen.Delta{Delta: 2}, nil); err != nil {
			return err
		}
		nw.PartitionOneWay(pNode.ID(), coordNode.ID())
		committed := make(chan error, 1)
		go func() { committed <- txn.Commit(ctx) }()
		for {
			pending, err := pNode.Stable().Intentions().Pending()
			if err != nil {
				return err
			}
			if len(pending) > 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		pNode.Crash()
		nw.Heal(pNode.ID(), coordNode.ID())
		pNode.Restart()
		err = <-committed
		rep.check("one-phase: decision forced, reply lost, participant crashed: answered committed from its log",
			err == nil && peek(res) == 7)
	}
	return nil
}

// peek returns the value of r's cell, -1 when it cannot be activated.
func peek(r *loadgen.Register) int {
	m, err := r.Value()
	if err != nil {
		return -1
	}
	return m.Peek()
}

// expIndependentApps verifies examples i-iii end to end.
func expIndependentApps(rep *report) error {
	ctx := context.Background()
	rt := core.NewRuntime()
	board := bulletin.New(rt)
	ledger := billing.New(rt)

	nw := netsim.New(netsim.Config{})
	defer nw.Close()
	opts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 500 * time.Millisecond}
	appNode, err := node.New(nw, node.WithRPCOptions(opts))
	if err != nil {
		return err
	}
	appMgr := dist.NewManager(appNode)
	var replicas []ids.NodeID
	for i := 0; i < 2; i++ {
		nd, err := node.New(nw, node.WithRPCOptions(opts))
		if err != nil {
			return err
		}
		nameserver.NewServer(nd, dist.NewManager(nd))
		replicas = append(replicas, nd.ID())
	}
	ns := nameserver.NewClient(appMgr, replicas...)

	app, err := rt.Begin()
	if err != nil {
		return err
	}
	postID, err := board.PostCompensated(app, "user", "subj", "body")
	if err != nil {
		return err
	}
	if err := ns.Add(ctx, "obj/1", "node-9"); err != nil {
		return err
	}
	if err := ledger.Charge(app, "user", 3, "fee"); err != nil {
		return err
	}
	if err := app.Abort(); err != nil {
		return err
	}

	all, err := board.RetrieveAll()
	if err != nil {
		return err
	}
	rep.check("board: posting exists and was compensated (withdrawn)",
		len(all) == 1 && all[0].ID == postID && all[0].Withdrawn)
	val, err := ns.Lookup(ctx, "obj/1")
	rep.check("name server: binding survives application abort", err == nil && val == "node-9")
	total, err := ledger.Total("user")
	rep.check("billing: charge survives application abort", err == nil && total == 3)
	return nil
}

// expRemoteSerializing verifies the distributed serializing action: the
// paper's "distributed version" next step. Constituents are two-phase-
// commit transactions; per-node containers retain their locks until the
// structure ends.
func expRemoteSerializing(rep *report) error {
	ctx := context.Background()
	opts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 300 * time.Millisecond}
	nw := netsim.New(netsim.Config{})
	defer nw.Close()

	coordNode, err := node.New(nw, node.WithRPCOptions(opts))
	if err != nil {
		return err
	}
	coord := dist.NewManager(coordNode)
	var targets []ids.NodeID
	resources := make([]*loadgen.Register, 2)
	for i := range resources {
		nd, err := node.New(nw, node.WithRPCOptions(opts))
		if err != nil {
			return err
		}
		mgr := dist.NewManager(nd)
		resources[i] = loadgen.NewRegister()
		nd.Host(resources[i])
		mgr.RegisterResource("kv", resources[i])
		targets = append(targets, nd.ID())
	}

	s, err := coord.BeginRemoteSerializing()
	if err != nil {
		return err
	}
	// Constituent B updates both nodes.
	if err := s.RunConstituent(ctx, func(txn *dist.Txn) error {
		for _, target := range targets {
			if err := txn.Invoke(ctx, target, "kv", "add", loadgen.Delta{Delta: 10}, nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	permanent := peek(resources[0]) == 10 && peek(resources[1]) == 10
	rep.check("constituent effects permanent at every node at its own commit", permanent)

	// Protection across the cluster: an unrelated transaction is shut out.
	blockedErr := coord.Run(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, targets[0], "kv", "add", loadgen.Delta{Delta: 1}, nil)
	})
	rep.check("outsider blocked at remote nodes between constituents", blockedErr != nil)

	// A failing second constituent leaves B intact.
	_ = s.RunConstituent(ctx, func(txn *dist.Txn) error {
		if err := txn.Invoke(ctx, targets[1], "kv", "add", loadgen.Delta{Delta: 99}, nil); err != nil {
			return err
		}
		return errInjected
	})
	if err := s.Cancel(ctx); err != nil {
		return err
	}
	rep.check("failed constituent undone, committed constituent kept (outcome iii, distributed)",
		peek(resources[0]) == 10 && peek(resources[1]) == 10)

	// Everything free after Cancel.
	freeErr := coord.Run(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, targets[0], "kv", "add", loadgen.Delta{Delta: 1}, nil)
	})
	rep.check("locks released cluster-wide when the structure ends", freeErr == nil)
	return nil
}
