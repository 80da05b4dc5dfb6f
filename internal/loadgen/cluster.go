// Package loadgen drives real mca clusters — simulated (netsim) or on
// TCP sockets (tcpnet) — with the open-loop workload generator, and
// searches for capacity-at-SLO: the highest offered transaction rate
// whose coordinated-omission-free latency quantile still meets a
// target. cmd/loadgen is the CLI; `cmd/experiments -run E25
// -capacityjson` writes the trajectory to BENCH_capacity.json.
package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mca/internal/action"
	"mca/internal/dist"
	"mca/internal/ids"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/object"
	"mca/internal/rpc"
	"mca/internal/tcpnet"
	"mca/internal/trace"
)

// Backend selects the transport a cluster runs on.
type Backend string

const (
	// BackendNetsim runs every node on the in-process simulated
	// network: no sockets, optional virtual time.
	BackendNetsim Backend = "netsim"
	// BackendTCP runs every node on a real loopback TCP socket.
	BackendTCP Backend = "tcpnet"
)

// ClusterConfig sizes the system under test.
type ClusterConfig struct {
	Backend Backend
	// Participants is the number of resource-hosting nodes (the
	// coordinator is separate). Default 2.
	Participants int
	// Registers is the number of integer registers spread round-robin
	// across participants. Default 64, minimum 2 (transfers span two).
	Registers int
	// RPC overrides the per-node RPC options; the zero value picks
	// backend-appropriate retry/timeout defaults.
	RPC rpc.Options
	// Netsim configures the simulated network (BackendNetsim only).
	Netsim netsim.Config
	// Trace, when non-nil, gives every node a trace recorder sharing
	// one tail-based sampler with this configuration; SlowTxns then
	// harvests the kept transactions, and a failed SLO probe during
	// SearchCapacity captures them automatically (LastCapture). Nil
	// runs the cluster untraced.
	Trace *trace.SamplerConfig
}

// Register is one transactional integer cell, durable via the node's
// stable store: a dist.Resource with ops "add" (argument Delta) and
// "get". The load generator's clusters and the 2PC experiments host it.
type Register struct {
	objID ids.ObjectID
	reg   atomic.Pointer[object.Registry[int]] // this incarnation's activated cell
}

// NewRegister builds a register with a fresh object identity.
func NewRegister() *Register { return &Register{objID: ids.NewObjectID()} }

// Register implements node.Service: the cell activated before a crash
// died with it.
func (k *Register) Register(nd *node.Node, _ *rpc.Peer) {
	k.reg.Store(object.NewRegistry[int](nd.Stable(), nil))
}

// Recover implements node.Service. The cell activates on first use.
func (k *Register) Recover(context.Context, *node.Node) {}

// Value returns the register's object, activating it from the node's
// stable store on first use — at 0 when the store has no state for it.
// It fails while a transaction in doubt at the node's restart writes the
// cell (store.ErrUnresolved).
func (k *Register) Value() (*object.Managed[int], error) {
	return k.reg.Load().Get(k.objID)
}

// Delta is the argument of a register's "add".
type Delta struct {
	Delta int `json:"delta"`
}

// Invoke implements dist.Resource.
func (k *Register) Invoke(a *action.Action, op string, arg []byte) ([]byte, error) {
	m, err := k.Value()
	if err != nil {
		return nil, err
	}
	switch op {
	case "add":
		var in Delta
		if err := json.Unmarshal(arg, &in); err != nil {
			return nil, err
		}
		if err := m.Write(a, func(v *int) error { *v += in.Delta; return nil }); err != nil {
			return nil, err
		}
		return []byte("{}"), nil
	case "get":
		var out int
		if err := m.Read(a, func(v int) error { out = v; return nil }); err != nil {
			return nil, err
		}
		return json.Marshal(out)
	default:
		return nil, errors.New("unknown op")
	}
}

// Cluster is a running system under test: one coordinator plus
// Participants resource nodes, each hosting a share of the registers.
type Cluster struct {
	cfg   ClusterConfig
	nw    *netsim.Network
	tn    *tcpnet.Network
	nodes []*node.Node
	coord *dist.Manager
	hosts []ids.NodeID // hosts[i] owns register i

	// Tracing state (ClusterConfig.Trace): one recorder per node, one
	// shared sampler deciding which transactions' spans survive.
	sampler *trace.Sampler
	recs    []*trace.Recorder

	mu      sync.Mutex
	capture *SlowTxnsReport // latest failed-probe capture
}

// NewCluster builds and starts a cluster. Close releases it.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Participants <= 0 {
		cfg.Participants = 2
	}
	if cfg.Registers <= 0 {
		cfg.Registers = 64
	}
	if cfg.Registers < 2 {
		cfg.Registers = 2
	}
	if cfg.RPC.RetryInterval <= 0 {
		cfg.RPC.RetryInterval = 5 * time.Millisecond
	}
	if cfg.RPC.CallTimeout <= 0 {
		cfg.RPC.CallTimeout = 5 * time.Second
	}
	c := &Cluster{cfg: cfg}
	if cfg.Trace != nil {
		c.sampler = trace.NewSampler(*cfg.Trace)
	}

	nodeOpts := func() []node.Option {
		opts := []node.Option{node.WithRPCOptions(cfg.RPC)}
		if c.sampler != nil {
			rec := trace.NewRecorder()
			rec.SetSampler(c.sampler)
			c.recs = append(c.recs, rec)
			opts = append(opts, node.WithTracer(rec))
		}
		return opts
	}
	newNode := func() (*node.Node, error) {
		switch cfg.Backend {
		case BackendNetsim, "":
			if c.nw == nil {
				c.nw = netsim.New(cfg.Netsim)
			}
			return node.New(c.nw, nodeOpts()...)
		case BackendTCP:
			if c.tn == nil {
				// One shared network: it carries the ID-to-address
				// registry the nodes resolve each other through.
				c.tn = tcpnet.NewNetwork()
			}
			ep, err := c.tn.Listen("127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			nd, err := node.NewOn(ep, nodeOpts()...)
			if err != nil {
				ep.Close()
				return nil, err
			}
			return nd, nil
		default:
			return nil, fmt.Errorf("loadgen: unknown backend %q", cfg.Backend)
		}
	}

	coordNode, err := newNode()
	if err != nil {
		c.Close()
		return nil, err
	}
	c.nodes = append(c.nodes, coordNode)
	c.coord = dist.NewManager(coordNode)

	parts := make([]ids.NodeID, 0, cfg.Participants)
	mgrs := make([]*dist.Manager, 0, cfg.Participants)
	for i := 0; i < cfg.Participants; i++ {
		nd, err := newNode()
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
		mgrs = append(mgrs, dist.NewManager(nd))
		parts = append(parts, nd.ID())
	}
	c.hosts = make([]ids.NodeID, cfg.Registers)
	for i := 0; i < cfg.Registers; i++ {
		p := i % cfg.Participants
		r := NewRegister()
		c.nodes[p+1].Host(r)
		mgrs[p].RegisterResource(regName(i), r)
		c.hosts[i] = parts[p]
	}
	return c, nil
}

func regName(i int) string { return fmt.Sprintf("reg%d", i) }

// Close stops every node and the simulated network.
func (c *Cluster) Close() {
	for _, nd := range c.nodes {
		nd.Stop()
	}
	if c.nw != nil {
		c.nw.Close()
	}
}

// Config returns the (defaulted) configuration the cluster runs with.
func (c *Cluster) Config() ClusterConfig { return c.cfg }

// SetForceDelay installs a simulated per-force latency on every node's
// WAL — the storage-fault injection knob of the attribution experiment
// (E26): a slow disk shows up as the traces' wal.force spans.
func (c *Cluster) SetForceDelay(d time.Duration) {
	for _, nd := range c.nodes {
		nd.Stable().WAL().SetForceDelay(d)
	}
}

// Netsim returns the simulated network for fault injection — per-node
// link delay, partitions, loss. Nil on BackendTCP.
func (c *Cluster) Netsim() *netsim.Network { return c.nw }

// ParticipantID returns the node ID of participant i (0-based, in
// register round-robin order).
func (c *Cluster) ParticipantID(i int) ids.NodeID { return c.nodes[i+1].ID() }

// Read runs a single-register read transaction on the register the key
// maps to.
func (c *Cluster) Read(ctx context.Context, key uint64) error {
	i := int(key) % len(c.hosts)
	return c.coord.Run(ctx, func(txn *dist.Txn) error {
		var out int
		return txn.Invoke(ctx, c.hosts[i], regName(i), "get", struct{}{}, &out)
	})
}

// Write runs a single-register increment transaction.
func (c *Cluster) Write(ctx context.Context, key uint64) error {
	i := int(key) % len(c.hosts)
	return c.coord.Run(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, c.hosts[i], regName(i), "add", Delta{Delta: 1}, nil)
	})
}

// SlowTraces drains every recorder and returns the traces the tail
// sampler kept whose root has ended, each with its spans from every
// node, slowest root first, at most k (k <= 0 means all). Nil when the
// cluster is untraced.
func (c *Cluster) SlowTraces(k int) [][]trace.Span {
	if c.sampler == nil {
		return nil
	}
	var all []trace.Span
	for _, rec := range c.recs {
		all = append(all, rec.Spans()...)
	}
	type slow struct {
		root  trace.Span
		spans []trace.Span
	}
	var found []slow
	for _, spans := range trace.ByTrace(all) {
		if root, ok := trace.Root(spans); ok && !root.End.IsZero() {
			found = append(found, slow{root, spans})
		}
	}
	sort.Slice(found, func(i, j int) bool {
		ri, rj := found[i].root, found[j].root
		if di, dj := ri.End.Sub(ri.Begin), rj.End.Sub(rj.Begin); di != dj {
			return di > dj
		}
		return ri.TraceID < rj.TraceID
	})
	if k > 0 && len(found) > k {
		found = found[:k]
	}
	out := make([][]trace.Span, len(found))
	for i, f := range found {
		out[i] = f.spans
	}
	return out
}

// LastCapture returns the slow-transaction capture taken at the most
// recent failed SLO probe (nil when none failed or the cluster is
// untraced).
func (c *Cluster) LastCapture() *SlowTxnsReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capture
}

// Transfer runs a two-register transaction moving one unit from the
// key's register to its neighbour — adjacent registers live on
// different participants, so this is a genuinely distributed 2PC.
func (c *Cluster) Transfer(ctx context.Context, key uint64) error {
	i := int(key) % len(c.hosts)
	j := (i + 1) % len(c.hosts)
	return c.coord.Run(ctx, func(txn *dist.Txn) error {
		if err := txn.Invoke(ctx, c.hosts[i], regName(i), "add", Delta{Delta: -1}, nil); err != nil {
			return err
		}
		return txn.Invoke(ctx, c.hosts[j], regName(j), "add", Delta{Delta: 1}, nil)
	})
}
