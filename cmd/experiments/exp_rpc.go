package main

import (
	"context"
	"fmt"
	"time"

	"mca/internal/dist"
	"mca/internal/ids"
	"mca/internal/node"
	"mca/internal/rpc"
	"mca/internal/tcpnet"
	"mca/internal/workload"
)

// echoPayload is the representative small request body: roughly what a
// 2PC prepare/invoke carries.
type echoPayload struct {
	Txn    uint64 `json:"txn"`
	Op     string `json:"op"`
	Amount int    `json:"amount"`
}

// rpcPair is one echo server and one caller over real TCP sockets.
type rpcPair struct {
	caller *rpc.Peer
	server *rpc.Peer
	target *tcpnet.Endpoint
}

// newRPCPair builds the pair.
func newRPCPair() (*rpcPair, error) {
	nw := tcpnet.NewNetwork()
	epS, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	epC, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		epS.Close()
		return nil, err
	}
	opts := rpc.Options{RetryInterval: 50 * time.Millisecond, CallTimeout: 10 * time.Second}
	p := &rpcPair{target: epS}
	p.server = rpc.NewPeerOn(epS, opts)
	p.caller = rpc.NewPeerOn(epC, opts)
	p.server.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		return body, nil
	})
	return p, nil
}

// expRPCThroughput is E24: RPC call throughput over real sockets on the
// binary envelope codec and the coalescing writer, the allocation and
// syscall accounting behind it, and the E23 commit workload rerun over
// TCP end to end. The JSON-envelope, write-per-datagram baseline it was
// first measured against no longer exists; EXPERIMENTS.md keeps those
// numbers.
func expRPCThroughput(rep *report) error {
	const cell = 500 * time.Millisecond

	// --- envelope codec steady-state allocations ---
	allocs := rpc.EnvelopeRoundTripAllocs(5000)
	rep.rowf("  envelope encode+verify+decode: %.3f allocs/op (pooled frames)", allocs)
	rep.check("envelope round trip ~0 allocs/op", allocs < 1)

	// --- call throughput over tcpnet ---
	measure := func(workers int) (float64, error) {
		pair, err := newRPCPair()
		if err != nil {
			return 0, err
		}
		defer func() {
			pair.caller.Stop()
			pair.server.Stop()
		}()
		pair.server.Start()
		pair.caller.Start()
		ctx := context.Background()
		req := echoPayload{Txn: 42, Op: "transfer", Amount: 10}
		var resp echoPayload
		if err := pair.caller.Call(ctx, pair.target.ID(), "echo", req, &resp); err != nil { // connect
			return 0, err
		}
		res := workload.RunFor(workers, cell, func(_, _ int) error {
			var r echoPayload
			return pair.caller.Call(ctx, pair.target.ID(), "echo", req, &r)
		})
		if res.Errors > 0 {
			return 0, fmt.Errorf("%d/%d calls failed: %v", res.Errors, res.Ops, res.ErrKinds)
		}
		return res.Throughput(), nil
	}

	rep.rowf("  echo calls over loopback TCP, one caller node, cell=%v:", cell)
	statsBefore := tcpnet.ReadWriterStats()
	for _, w := range []int{1, 8, 32} {
		rate, err := measure(w)
		if err != nil {
			return fmt.Errorf("workers=%d: %w", w, err)
		}
		rep.rowf("  workers=%-4d %8.0f calls/s", w, rate)
	}
	statsAfter := tcpnet.ReadWriterStats()

	// Syscall accounting: every batch is one writev carrying batchFrames
	// datagrams.
	batches := statsAfter.Batches - statsBefore.Batches
	frames := statsAfter.BatchFrames - statsBefore.BatchFrames
	if batches > 0 {
		saved := 100 * (1 - float64(batches)/float64(frames))
		rep.rowf("  coalescing writer: %d frames in %d writev batches (%.1f frames/syscall, %.0f%% writes saved)",
			frames, batches, float64(frames)/float64(batches), saved)
	}
	rep.check("concurrent callers share writev batches", frames > batches)

	// --- E23's commit workload over real sockets ---
	commitPerSec, err := measureCommitOverTCP(8, cell)
	rep.checkErr("2PC commit workload runs over tcpnet (binary bodies end to end)", err)
	if err == nil {
		rep.rowf("  E23 commit workload over TCP: %8.0f txn/s (8 workers, 3 participants)", commitPerSec)
	}
	return nil
}

// measureCommitOverTCP reruns the E23 commit workload with every node on
// a real socket: coordinator plus three participants, one register per
// worker, disjoint transfers.
func measureCommitOverTCP(workers int, d time.Duration) (float64, error) {
	nw := tcpnet.NewNetwork()
	rpcOpts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 5 * time.Second}
	var nodes []*node.Node
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()
	var coord *dist.Manager
	for i := 0; i < 4; i++ {
		ep, err := nw.Listen("127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		nd, err := node.NewOn(ep, node.WithRPCOptions(rpcOpts))
		if err != nil {
			ep.Close()
			return 0, err
		}
		nodes = append(nodes, nd)
		mgr := dist.NewManager(nd)
		if i == 0 {
			coord = mgr
			continue
		}
		for w := 0; w < workers; w++ {
			r := newKVResource()
			nd.Host(r)
			mgr.RegisterResource(fmt.Sprintf("reg%d", w), r)
		}
	}
	ctx := context.Background()
	parts := nodes[1:]
	res := workload.RunFor(workers, d, func(w, _ int) error {
		resource := fmt.Sprintf("reg%d", w)
		a := parts[w%len(parts)]
		b := parts[(w+1)%len(parts)]
		return coord.Run(ctx, func(txn *dist.Txn) error {
			if err := txn.Invoke(ctx, a.ID(), resource, "add", kvDelta{Delta: 1}, nil); err != nil {
				return err
			}
			return txn.Invoke(ctx, b.ID(), resource, "add", kvDelta{Delta: 1}, nil)
		})
	})
	if res.Errors > 0 {
		return 0, fmt.Errorf("%d/%d transactions failed: %v", res.Errors, res.Ops, res.ErrKinds)
	}
	return res.Throughput(), nil
}
