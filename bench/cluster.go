package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mca/internal/action"
	"mca/internal/clock"
	"mca/internal/dist"
	"mca/internal/ids"
	"mca/internal/node"
	"mca/internal/object"
	"mca/internal/rpc"
	"mca/internal/store"
	"mca/internal/tcpnet"
)

const registersResource = "registers"

// regArg is the argument of every register op. Req and Span carry the
// trace identity to the participant; both are 0 for an untraced op.
type regArg struct {
	Key  uint32 `json:"k"`
	D    int    `json:"d,omitempty"`
	Req  uint64 `json:"req,omitempty"`
	Span uint64 `json:"span,omitempty"` // the dist.invoke span that caused this op
}

// registers is one participant's share of the integer registers: a
// dist.Resource, and a node.Service so that a restart forgets every
// activated object. Set-up writes every register's initial state to
// the node's stable store; objects activate from there on first use
// after a (re)start — by then dist has resolved the node's in-doubt
// transactions, so the state read is the repaired one.
type registers struct {
	tr *tracer

	mu   sync.Mutex
	nd   *node.Node
	ids  map[uint32]ids.ObjectID
	live map[uint32]*object.Managed[int]
}

func (r *registers) Register(nd *node.Node, _ *rpc.Peer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nd = nd
	r.live = make(map[uint32]*object.Managed[int])
}

func (r *registers) Recover(context.Context, *node.Node) {}

func (r *registers) activate(key uint32) (*object.Managed[int], error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.live[key]; ok {
		return m, nil
	}
	id, ok := r.ids[key]
	if !ok {
		return nil, fmt.Errorf("bench: register %d is not hosted here", key)
	}
	m, err := object.Load[int](id, r.nd.Stable())
	if err != nil {
		return nil, err
	}
	r.live[key] = m
	return m, nil
}

// Invoke implements dist.Resource. The object.read/object.write spans
// cover exactly the Managed call: lock acquire, before-image, update.
func (r *registers) Invoke(a *action.Action, op string, arg []byte) ([]byte, error) {
	var in regArg
	if err := json.Unmarshal(arg, &in); err != nil {
		return nil, err
	}
	m, err := r.activate(in.Key)
	if err != nil {
		return nil, err
	}
	var t0 int64
	if in.Span != 0 {
		t0 = r.tr.now()
	}
	switch op {
	case "add":
		err = m.Write(a, func(v *int) error { *v += in.D; return nil })
		if in.Span != 0 {
			r.tr.record(spObjectWrite, in.Req, in.Span, t0)
		}
		return []byte("{}"), err
	case "get":
		var out int
		err = m.Read(a, func(v int) error { out = v; return nil })
		if in.Span != 0 {
			r.tr.record(spObjectRead, in.Req, in.Span, t0)
		}
		if err != nil {
			return nil, err
		}
		return json.Marshal(out)
	}
	return nil, fmt.Errorf("bench: unknown register op %q", op)
}

// countingEndpoint decorates a node's transport attachment: it counts
// every datagram the node sends and, while tracing, times the Send.
type countingEndpoint struct {
	node.Endpoint
	c *cluster
}

func (e countingEndpoint) Send(to ids.NodeID, payload []byte) error {
	e.c.msgs.Add(1)
	e.c.msgBytes.Add(uint64(len(payload)))
	if !e.c.tr.on.Load() {
		return e.Endpoint.Send(to, payload)
	}
	t0 := e.c.tr.now()
	err := e.Endpoint.Send(to, payload)
	e.c.tr.record(spSend, 0, 0, t0)
	return err
}

// cluster is a tcp system under test: one coordinator and three
// participants, each on its own loopback TCP endpoint, built from the
// public constructors only.
type cluster struct {
	spec    *workloadSpec
	tr      *tracer
	dataDir string // "" when the stable stores are in memory

	nodes []*node.Node // coordinator first, then the participants
	coord *dist.Manager

	msgs, msgBytes atomic.Uint64
	// acked counts committed register increments; unknown counts write
	// attempts that failed, whose increment may or may not be durable.
	acked, unknown atomic.Int64
}

func newCluster(spec *workloadSpec, tr *tracer, dataRoot string) (*cluster, error) {
	c := &cluster{spec: spec, tr: tr}
	if spec.durable {
		dir, err := os.MkdirTemp(dataRoot, "nodes-")
		if err != nil {
			return nil, err
		}
		c.dataDir = dir
	}
	nw := tcpnet.NewNetwork()
	newNode := func(name string) (*node.Node, error) {
		ep, err := nw.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		opts := []node.Option{node.WithRPCOptions(rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: time.Second})}
		if spec.durable {
			opts = append(opts, node.WithStableDir(filepath.Join(c.dataDir, name)))
		}
		nd, err := node.NewOn(countingEndpoint{Endpoint: ep, c: c}, opts...)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
		nd.Stable().WAL().SetFlushObserver(func(fi store.FlushInfo) {
			if tr.on.Load() {
				tr.record(spFlush, 0, 0, tr.now()-int64(fi.Duration))
			}
		})
		return nd, nil
	}
	zero, err := object.New(0).CaptureState()
	if err != nil {
		return nil, err
	}
	coordNode, err := newNode("coordinator")
	if err != nil {
		c.close()
		return nil, err
	}
	c.coord = dist.NewManager(coordNode)
	for p := 0; p < participants; p++ {
		nd, err := newNode(fmt.Sprintf("participant%d", p))
		if err != nil {
			c.close()
			return nil, err
		}
		regs := &registers{tr: tr, ids: make(map[uint32]ids.ObjectID)}
		initial := store.Batch{Writes: make(map[ids.ObjectID]store.State)}
		for k := p; k < spec.keys; k += participants {
			id := ids.NewObjectID()
			regs.ids[uint32(k)] = id
			initial.Writes[id] = zero
		}
		if err := nd.Stable().ApplyBatch(initial); err != nil {
			c.close()
			return nil, err
		}
		mgr := dist.NewManager(nd)
		nd.Host(regs)
		mgr.RegisterResource(registersResource, regs)
	}
	return c, nil
}

func (c *cluster) close() {
	for _, nd := range c.nodes {
		nd.Stop()
	}
	if c.dataDir != "" {
		os.RemoveAll(c.dataDir)
	}
}

func (c *cluster) participant(p int) *node.Node { return c.nodes[1+p] }

func (c *cluster) host(key uint32) ids.NodeID { return c.participant(int(key) % participants).ID() }

// invoke runs one register op of txn t inside a dist.invoke span.
func (c *cluster) invoke(ctx context.Context, t *dist.Txn, tc opTrace, key uint32, op string, d int, out any) error {
	arg := regArg{Key: key, D: d}
	var t0 int64
	if tc.traced {
		arg.Req, arg.Span = tc.req, c.tr.newID()
		t0 = c.tr.now()
	}
	err := t.Invoke(ctx, c.host(key), registersResource, op, arg, out)
	if tc.traced {
		tc.child(c.tr, spInvoke, arg.Span, t0)
	}
	return err
}

// txn runs the invocations of fn and commits them as one distributed
// transaction, with spans around Begin, each Invoke and Commit. The
// invocations run on a per-attempt context. Commit runs on the op's
// whole budget instead: dist broadcasts an abort on the context Commit
// was given, so an attempt context expiring mid-prepare would leave
// prepared participants holding their locks until their next restart.
func (c *cluster) txn(tc opTrace, deadline time.Time, fn func(ctx context.Context, t *dist.Txn) error) error {
	var t0 int64
	if tc.traced {
		t0 = c.tr.now()
	}
	t, err := c.coord.Begin()
	if tc.traced {
		tc.child(c.tr, spBegin, c.tr.newID(), t0)
	}
	if err != nil {
		return err
	}
	attemptEnd := time.Now().Add(attemptTimeout)
	if attemptEnd.After(deadline) {
		attemptEnd = deadline
	}
	actx, cancel := context.WithDeadline(context.Background(), attemptEnd)
	err = fn(actx, t)
	cancel()
	cctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	if err != nil {
		_ = t.Abort(cctx)
		return err
	}
	if tc.traced {
		t0 = c.tr.now()
	}
	err = t.Commit(cctx)
	if tc.traced {
		tc.child(c.tr, spCommit, c.tr.newID(), t0)
	}
	return err
}

// attempt runs one try of the op as one distributed transaction.
func (c *cluster) attempt(o op, tc opTrace, deadline time.Time) error {
	switch o.class {
	case clsRead:
		return c.txn(tc, deadline, func(ctx context.Context, t *dist.Txn) error {
			var v int
			return c.invoke(ctx, t, tc, o.key, "get", 0, &v)
		})
	case clsWrite:
		return c.write(o.key, tc, deadline)
	case clsTransfer:
		to := (o.key + 1) % uint32(c.spec.keys)
		return c.txn(tc, deadline, func(ctx context.Context, t *dist.Txn) error {
			if err := c.invoke(ctx, t, tc, o.key, "add", -1, nil); err != nil {
				return err
			}
			return c.invoke(ctx, t, tc, to, "add", 1, nil)
		})
	}
	return fmt.Errorf("bench: class %s is not a tcp op", classNames[o.class])
}

// write increments one register and keeps the conservation books.
func (c *cluster) write(key uint32, tc opTrace, deadline time.Time) error {
	err := c.txn(tc, deadline, func(ctx context.Context, t *dist.Txn) error {
		return c.invoke(ctx, t, tc, key, "add", 1, nil)
	})
	if err != nil {
		c.unknown.Add(1)
		return err
	}
	c.acked.Add(1)
	return nil
}

// retry runs attempt until it succeeds or the budget, counted from the
// first attempt, is spent. It returns the number of failed attempts.
func retry(attempt func(deadline time.Time) error) (retries int, err error) {
	deadline := time.Now().Add(opBudget)
	for {
		if err = attempt(deadline); err == nil {
			return retries, nil
		}
		retries++
		if time.Now().Add(retryBackoff).After(deadline) {
			return retries, fmt.Errorf("retry budget spent: %w", err)
		}
		time.Sleep(retryBackoff)
	}
}

// faultCycle is one crash/restart of one participant.
type faultCycle struct {
	done        int64 // tracer clock at the first commit after the restart
	restart     time.Duration
	recovery    time.Duration // start of Restart to the first committed write
	downToServe time.Duration // Crash to the first committed write
}

// runFaults is the fault controller: every faultUp after the previous
// recovery it crashes one seeded participant, holds it down for
// faultDown, restarts it and writes to one of its registers until the
// write commits. It is asleep between events, so the load is still the
// clients'. A cycle in progress when stop closes is completed, so the
// cluster is whole for the correctness gate.
func (c *cluster) runFaults(seed uint64, stop <-chan struct{}) []faultCycle {
	r := clock.NewRand(seed ^ 0xFA17FA17FA17FA17)
	var cycles []faultCycle
	for {
		select {
		case <-stop:
			return cycles
		case <-time.After(faultUp):
		}
		p := r.Intn(participants)
		key := uint32(r.Intn(c.spec.keys/participants)*participants + p)
		nd := c.participant(p)
		crashed := time.Now()
		nd.Crash()
		time.Sleep(faultDown)
		restarting := time.Now()
		nd.Restart()
		restarted := time.Now()
		if _, err := retry(func(deadline time.Time) error { return c.write(key, opTrace{}, deadline) }); err != nil {
			fmt.Fprintf(os.Stderr, "bench: no commit on restarted participant %d: %v\n", p, err)
			continue
		}
		served := time.Now()
		cycles = append(cycles, faultCycle{
			done:        c.tr.now(),
			restart:     restarted.Sub(restarting),
			recovery:    served.Sub(restarting),
			downToServe: served.Sub(crashed),
		})
	}
}

// verify is the conservation gate. It crashes and restarts every
// participant, so state that was never forced is discarded and every
// register reloads from stable storage, then reads each register in a
// transaction of its own. Transfers conserve the sum, so it must equal
// the acknowledged increments, give or take the increments of failed
// attempts whose outcome the client never learned.
func (c *cluster) verify() error {
	for _, nd := range c.nodes[1:] {
		nd.Crash()
		nd.Restart()
	}
	ctx, cancel := context.WithTimeout(context.Background(), opBudget)
	defer cancel()
	for {
		pending, err := c.coord.RecoverPending(ctx)
		if err == nil && pending == 0 {
			break
		}
		if ctx.Err() != nil {
			return fmt.Errorf("coordinator still holds %d undelivered decisions (%v)", pending, err)
		}
		time.Sleep(retryBackoff)
	}
	var sum int64
	for k := 0; k < c.spec.keys; k++ {
		var v int
		_, err := retry(func(deadline time.Time) error {
			return c.txn(opTrace{}, deadline, func(ctx context.Context, t *dist.Txn) error {
				return c.invoke(ctx, t, opTrace{}, uint32(k), "get", 0, &v)
			})
		})
		if err != nil {
			return fmt.Errorf("read register %d: %w", k, err)
		}
		sum += int64(v)
	}
	acked, unknown := c.acked.Load(), c.unknown.Load()
	if sum < acked || sum > acked+unknown {
		return fmt.Errorf("conservation: registers sum to %d, want %d..%d (acked..acked+unknown)", sum, acked, acked+unknown)
	}
	return nil
}
