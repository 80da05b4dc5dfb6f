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
	"mca/internal/clock"
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

// kvCluster starts a coordinator and n participants on nw, every node
// with opts and every participant hosting a register "kv".
func kvCluster(nw *netsim.Network, n int, opts ...node.Option) (coord *dist.Manager, parts []*node.Node, regs []*loadgen.Register, err error) {
	for i := range n + 1 {
		nd, err := node.New(nw, opts...)
		if err != nil {
			return nil, nil, nil, err
		}
		mgr := dist.NewManager(nd)
		if i == 0 {
			coord = mgr
			continue
		}
		reg := loadgen.NewRegister()
		nd.Host(reg)
		mgr.RegisterResource("kv", reg)
		parts, regs = append(parts, nd), append(regs, reg)
	}
	return coord, parts, regs, nil
}

// addAt returns a transaction body that adds delta to the register at
// each of nodes in turn.
func addAt(ctx context.Context, delta int, nodes ...*node.Node) func(*dist.Txn) error {
	return func(txn *dist.Txn) error {
		for _, nd := range nodes {
			if err := txn.Invoke(ctx, nd.ID(), "kv", "add", loadgen.Delta{Delta: delta}, nil); err != nil {
				return err
			}
		}
		return nil
	}
}

// expTwoPhaseCommit measures commit latency against the number of
// participants and verifies the crash matrix end to end.
func expTwoPhaseCommit(rep *report) error {
	ctx := context.Background()
	opts := node.WithRPCOptions(rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 500 * time.Millisecond})

	// Latency sweep.
	for _, participants := range []int{1, 2, 3, 4} {
		nw := netsim.New(netsim.Config{MinDelay: 200 * time.Microsecond, MaxDelay: time.Millisecond})
		coord, parts, _, err := kvCluster(nw, participants, opts)
		if err != nil {
			nw.Close()
			return err
		}
		res := workload.Run(clock.Real(), 1, 30, func(_, _ int) error { return coord.Run(ctx, addAt(ctx, 1, parts...)) })
		rep.rowf("  participants=%d  commit p50=%v p99=%v errs=%d",
			participants,
			res.Latency.Percentile(50).Round(time.Microsecond),
			res.Latency.Percentile(99).Round(time.Microsecond),
			res.Errors)
		if res.Errors > 0 {
			rep.check(fmt.Sprintf("latency sweep with %d participants error-free", participants), false)
		}
		coord.Node().Stop() // its flusher would resend what it still owes into the closed network
		nw.Close()
	}

	// Loss sweep: two participants under rising message loss — the
	// protocol's latency degrades with retransmissions but commits
	// stay correct.
	for _, loss := range []float64{0, 0.1, 0.3} {
		nw := netsim.New(netsim.Config{LossRate: loss, Seed: 77})
		coord, parts, resources, err := kvCluster(nw, 2, opts)
		if err != nil {
			nw.Close()
			return err
		}
		before := roundCounts()
		res := workload.Run(clock.Real(), 1, 20, func(_, _ int) error { return coord.Run(ctx, addAt(ctx, 1, parts...)) })
		committed := res.Ops - res.Errors
		consistent := peek(resources[0]) == committed && peek(resources[1]) == committed
		rep.rowf("  loss=%2.0f%%  commit p50=%8v  committed=%d/%d  rounds: %s", loss*100,
			res.Latency.Percentile(50).Round(time.Microsecond), committed, res.Ops,
			roundsSince(before))
		rep.check(fmt.Sprintf("loss=%.0f%%: committed actions applied at every participant", loss*100), consistent)
		coord.Node().Stop()
		nw.Close()
	}

	// Crash matrix: participant in doubt, then restarted. Two
	// participants, so the transaction runs both phases; res is the one
	// the faults hit.
	{
		nw := netsim.New(netsim.Config{})
		defer nw.Close()
		coord, parts, regs, err := kvCluster(nw, 2, opts)
		if err != nil {
			return err
		}
		coordNode, pNode, qNode, res := coord.Node(), parts[0], parts[1], regs[0]

		coord.TestHooks.AfterPrepare = func() {
			nw.Partition(coordNode.ID(), pNode.ID())
		}
		err = coord.Run(ctx, addAt(ctx, 5, qNode, pNode))
		if err != nil {
			return fmt.Errorf("commit with partitioned completion: %w", err)
		}
		coord.TestHooks.AfterPrepare = nil

		pNode.Crash()
		nw.Heal(coordNode.ID(), pNode.ID())
		if err := pNode.Restart(); err != nil {
			return err
		}

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
		if err := addAt(ctx, 100, qNode, pNode)(txn); err != nil {
			return err
		}
		_ = txn.Commit(ctx)
		<-crashDone
		coord.TestHooks.AfterPrepare = nil
		pNode.Crash()
		if err := coordNode.Restart(); err != nil {
			return err
		}
		if err := pNode.Restart(); err != nil {
			return err
		}
		rep.check("undelivered decision presumed abort on recovery", peek(res) == 5)

		// One participant: it votes in its invoke reply, so Commit has
		// nothing to ask it. It crashes after the vote; Commit forces the
		// decision and returns, and the restarted participant learns the
		// commit from the coordinator's record.
		txn, err = coord.Begin()
		if err != nil {
			return err
		}
		if err := txn.Invoke(ctx, pNode.ID(), "kv", "add", loadgen.Delta{Delta: 2}, nil); err != nil {
			return err
		}
		pNode.Crash()
		err = txn.Commit(ctx)
		if err := pNode.Restart(); err != nil {
			return err
		}
		installed := false
		for deadline := time.Now().Add(5 * time.Second); !installed && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			installed = peek(res) == 7
		}
		rep.check("single participant: voted at its invoke, crashed; Commit returned at the decision and the restart installed it",
			err == nil && installed)
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
// structure ends. The cluster's clock stands still, so nothing travels on
// its own: a two-node constituent costs what a plain transfer does.
func expRemoteSerializing(rep *report) error {
	ctx := context.Background()
	clk := clock.NewFake()
	nw := netsim.New(netsim.Config{Clock: clk})
	defer nw.Close()
	coord, parts, regs, err := kvCluster(nw, 2, node.WithClock(clk), node.WithRPCOptions(rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 300 * time.Millisecond}))
	if err != nil {
		return err
	}
	nodes := append([]*node.Node{coord.Node()}, parts...)
	for _, nd := range nodes {
		defer nd.Stop()
	}
	forces := func() (n uint64) {
		for _, nd := range nodes {
			f, _ := nd.Stable().WAL().Stats()
			n += f
		}
		return n
	}

	s, err := coord.BeginRemoteSerializing()
	if err != nil {
		return err
	}
	// Constituent B updates both nodes.
	sent, forced := nw.Stats().Sent, forces()
	if err := s.RunConstituent(ctx, addAt(ctx, 10, parts...)); err != nil {
		return err
	}
	msgs, f := nw.Stats().Sent-sent, forces()-forced
	rep.rowf("two-node constituent: %d datagrams, %d forces (a plain transfer: 4 and 3)", msgs, f)
	rep.check("a two-node constituent sends 4 datagrams and forces 3 times, as a plain transfer does", msgs == 4 && f == 3)

	// Protection across the cluster: an unrelated transaction is shut out
	// until its caller gives up.
	octx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	blockedErr := coord.Run(octx, addAt(octx, 1, parts[0]))
	cancel()
	rep.check("outsider blocked at remote nodes between constituents", blockedErr != nil)

	// A failing second constituent leaves B intact.
	_ = s.RunConstituent(ctx, func(txn *dist.Txn) error {
		if err := addAt(ctx, 99, parts[1])(txn); err != nil {
			return err
		}
		return errInjected
	})
	if err := s.Cancel(ctx); err != nil {
		return err
	}
	rep.check("failed constituent undone, committed constituent kept (outcome iii, distributed)",
		peek(regs[0]) == 10 && peek(regs[1]) == 10)
	rep.check("locks released cluster-wide when the structure ends", coord.Run(ctx, addAt(ctx, 1, parts[0])) == nil)

	// A constituent is permanent at its Commit: both participants crash
	// before the structure's End, and restart and recovery install it.
	if s, err = coord.BeginRemoteSerializing(); err != nil {
		return err
	}
	if err := s.RunConstituent(ctx, addAt(ctx, 1, parts...)); err != nil {
		return err
	}
	for _, p := range parts {
		p.Crash()
		if err := p.Restart(); err != nil {
			return err
		}
	}
	rep.check("constituent kept by both participants crashing before End", peek(regs[0]) == 12 && peek(regs[1]) == 11)
	sent = nw.Stats().Sent
	err = s.End(ctx)
	rep.check("the structure's End sends 4 datagrams, an end message to each node, answered", err == nil && nw.Stats().Sent-sent == 4)
	return nil
}
