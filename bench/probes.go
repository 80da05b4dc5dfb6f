package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"mca/internal/colour"
	"mca/internal/core"
	"mca/internal/ids"
	"mca/internal/lock"
	"mca/internal/rpc"
	"mca/internal/store"
	"mca/internal/tcpnet"
)

// probeBatches is how many equal batches a probe times; it reports the
// median batch mean.
const probeBatches = 5

// timeBatches runs fn n times per batch and returns the median batch
// mean in ns, with the median mallocs per call beside it.
func timeBatches(n int, fn func() error) (ns, allocs float64, err error) {
	var means, mallocs []float64
	var before, after runtime.MemStats
	for b := 0; b < probeBatches; b++ {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, 0, err
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		means = append(means, float64(d)/float64(n))
		mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs)/float64(n))
	}
	return median(means), median(mallocs), nil
}

// pipeEnd is half of an in-memory rpc.Transport pair: the rpc layer
// with no transport under it.
type pipeEnd struct {
	id   ids.NodeID
	in   chan rpc.Datagram
	peer *pipeEnd
}

func newPipe() (*pipeEnd, *pipeEnd) {
	// Deep enough for the one call in flight plus retransmissions.
	a := &pipeEnd{id: ids.NewNodeID(), in: make(chan rpc.Datagram, 64)}
	b := &pipeEnd{id: ids.NewNodeID(), in: make(chan rpc.Datagram, 64)}
	a.peer, b.peer = b, a
	return a, b
}

func (p *pipeEnd) ID() ids.NodeID { return p.id }

func (p *pipeEnd) Send(to ids.NodeID, payload []byte) error {
	d := rpc.Datagram{From: p.id, To: to, Payload: append([]byte(nil), payload...)}
	select {
	case p.peer.in <- d:
	default: // full: dropped, like any datagram
	}
	return nil
}

func (p *pipeEnd) Recv(ctx context.Context) (rpc.Datagram, error) {
	select {
	case d := <-p.in:
		return d, nil
	case <-ctx.Done():
		return rpc.Datagram{}, ctx.Err()
	}
}

// echoProbe times Peer.Call of a 64-byte body between two peers on the
// given transports, one caller.
func echoProbe(ctx context.Context, n int, client, server rpc.Transport) (ns, allocs float64, err error) {
	srv := rpc.NewPeerOn(server, rpc.Options{})
	srv.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) { return body, nil })
	srv.Start()
	defer srv.Stop()
	cli := rpc.NewPeerOn(client, rpc.Options{})
	cli.Start()
	defer cli.Stop()
	body := strings.Repeat("x", 64)
	var reply string
	call := func() error { return cli.Call(ctx, server.ID(), "echo", body, &reply) }
	if err := call(); err != nil { // connect, learn the peer's codec
		return 0, 0, err
	}
	return timeBatches(n, call)
}

// runProbes measures single layers in isolation, one goroutine, fixed
// counts. They do not depend on the workload.
func runProbes(ctx context.Context, quick bool, dataRoot string) (map[string]float64, error) {
	scale := func(n int) int {
		if quick {
			return n / 10
		}
		return n
	}
	m := make(map[string]float64)

	rt := core.NewRuntime()
	ns, _, err := timeBatches(scale(40000), func() error { return rt.Run(func(*core.Action) error { return nil }) })
	if err != nil {
		return nil, fmt.Errorf("action probe: %w", err)
	}
	m["action.empty_ns"] = ns

	locks := lock.NewManager(lock.AncestryFunc(func(a, b ids.ActionID) bool { return a == b }))
	req := lock.Request{Object: ids.NewObjectID(), Owner: ids.NewActionID(), Colour: colour.Fresh(), Mode: lock.Write}
	ns, _, err = timeBatches(scale(100000), func() error {
		if err := locks.Acquire(ctx, req); err != nil {
			return err
		}
		locks.ReleaseAll(req.Owner)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lock probe: %w", err)
	}
	m["lock.cycle_ns"] = ns

	obj := core.NewObject(0, core.WithStore(core.NewStableStore()))
	ns, _, err = timeBatches(scale(20000), func() error {
		return rt.Run(func(a *core.Action) error { return obj.Write(a, func(v *int) error { *v++; return nil }) })
	})
	if err != nil {
		return nil, fmt.Errorf("object probe: %w", err)
	}
	m["object.commit_us"] = ns / 1e3

	pa, pb := newPipe()
	ns, allocs, err := echoProbe(ctx, scale(4000), pa, pb)
	if err != nil {
		return nil, fmt.Errorf("rpc probe: %w", err)
	}
	m["rpc.call_us"], m["rpc.call_allocs"] = ns/1e3, allocs

	nw := tcpnet.NewNetwork()
	ta, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ta.Close()
	tb, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	ns, _, err = echoProbe(ctx, scale(4000), ta, tb)
	if err != nil {
		return nil, fmt.Errorf("tcpnet probe: %w", err)
	}
	m["tcpnet.call_us"] = ns / 1e3
	m["tcpnet.rtt_over_rpc_us"] = m["tcpnet.call_us"] - m["rpc.call_us"]

	intentions := store.NewStable().Intentions()
	in := store.Intention{Action: ids.NewActionID(), Status: store.IntentionPrepared,
		Writes: store.Batch{Writes: map[ids.ObjectID]store.State{ids.NewObjectID(): store.State(`{"exists":true,"value":1}`)}}}
	ns, _, err = timeBatches(scale(4000), func() error {
		if err := intentions.Record(in); err != nil {
			return err
		}
		return intentions.Forget(in.Action)
	})
	if err != nil {
		return nil, fmt.Errorf("wal probe: %w", err)
	}
	m["store.wal_record_us"] = ns / 1e3

	dir, err := os.MkdirTemp(dataRoot, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	stable, err := store.NewStableAt(dir)
	if err != nil {
		return nil, err
	}
	ns, _, err = timeBatches(scale(400), func() error { return stable.ApplyBatch(in.Writes) })
	if err != nil {
		return nil, fmt.Errorf("file store probe: %w", err)
	}
	m["store.file_batch_us"] = ns / 1e3
	return m, nil
}
