// Package node models the workstations of paper §2: fail-silent nodes
// with stable storage, attached to the simulated network or real TCP.
// A node hosts an action runtime, an RPC peer and application services.
// Each incarnation — a start or Restart to the next Crash — has its own
// runtime, peer, lifetime context and stable-store handle, and Crash ends
// all four for good: what outlives it (a handler, a goroutine, a
// transaction) changes nothing. Restart builds the next incarnation over
// the same stable store so services (internal/dist) can recover.
package node

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"mca/internal/action"
	"mca/internal/clock"
	"mca/internal/flightrec"
	"mca/internal/ids"
	"mca/internal/netsim"
	"mca/internal/rpc"
	"mca/internal/store"
	"mca/internal/trace"
)

// Service is an application component hosted on a node. Register hooks
// the service's RPC handlers on the peer; it runs once at startup and
// again after every restart (handlers are volatile). Recover runs after
// the node restarts, before the node is considered up, so services can
// resolve in-doubt state from the stable store; ctx is the node's
// lifetime context (see Node.Context), so recovery work started in the
// background dies with the node instead of outliving it.
type Service interface {
	Register(n *Node, p *rpc.Peer)
	Recover(ctx context.Context, n *Node)
}

// Endpoint is the transport attachment a node runs on: the datagram
// surface the RPC peer uses, the push delivery its dispatch attaches to
// (SetDeliver, see rpc.Transport), plus the failure-model hooks (Crash
// makes the endpoint fail-silent, Restart brings it back). Both the
// simulated LAN (netsim, via New) and real TCP (tcpnet, via NewOn)
// satisfy it, so the same node — and everything hosted on it, 2PC
// included — runs over either.
type Endpoint interface {
	rpc.Transport
	SetDeliver(func(rpc.Datagram))
	Crash()
	Restart()
	Close()
}

// Node is one simulated workstation.
type Node struct {
	endpoint Endpoint
	stable   atomic.Pointer[store.Stable] // the current incarnation's
	rpcOpts  rpc.Options
	// clk is the node's time source, handed down to the action
	// runtime, lock manager, RPC peer, WAL and hosted services so a
	// whole node runs on one (possibly virtual) timeline.
	clk clock.Clock

	restarting sync.Mutex // one Restart at a time: services register on its parts
	mu         sync.Mutex
	peer       *rpc.Peer
	runtime    *action.Runtime
	services   []Service
	crashed    bool
	// life is cancelled when the node crashes or stops, so goroutines
	// working on the node's behalf (recovery retry loops, in-flight
	// calls) terminate with it. Restart installs a fresh context.
	life     context.Context
	stopLife context.CancelFunc
	// crashes counts Crash calls, exposed for experiment reporting.
	crashes int
	// debug is the optional metrics HTTP endpoint (WithDebugAddr). It
	// lives outside the failure model: Crash leaves it serving, Stop
	// closes it.
	debug *debugServer
	// tracer is the optional distributed-trace recorder (WithTracer).
	// Like the debug endpoint it lives outside the failure model, so
	// traces recorded before a crash survive for export; the runtime
	// observer and RPC hookup are re-wired on Restart.
	tracer *trace.Recorder
}

// Option configures a node.
type Option interface{ apply(*nodeOptions) }

type nodeOptions struct {
	rpcOpts   rpc.Options
	debugAddr string
	tracer    *trace.Recorder
	stableDir string
	clk       clock.Clock
}

type clockOption struct{ c clock.Clock }

func (o clockOption) apply(opts *nodeOptions) { opts.clk = o.c }

// WithClock substitutes the node's time source. Everything the node
// hosts — action runtime, lock manager, RPC retry timers, WAL
// group-commit window, services registered on it — inherits this
// clock, so a clock.Fake puts the node's entire timeline under test
// control. The default is clock.Real().
func WithClock(c clock.Clock) Option { return clockOption{c} }

type stableDirOption string

func (o stableDirOption) apply(opts *nodeOptions) { opts.stableDir = string(o) }

// WithStableDir backs the node's stable store with the log in dir
// (store.NewStableAt): object installs and the commit protocol's
// intention records are checksummed records of one append-only file,
// each commit step one append and one fsync, and Restart recovers by
// replaying that file.
func WithStableDir(dir string) Option { return stableDirOption(dir) }

type tracerOption struct{ rec *trace.Recorder }

func (o tracerOption) apply(opts *nodeOptions) { opts.tracer = o.rec }

// WithTracer installs a distributed-trace recorder: the action runtime
// reports begin/commit/abort events to it, the RPC peer records
// client/server spans and propagates trace contexts on the wire, and
// hosted services (dist.Manager) pick it up for round spans. The
// recorder survives crashes — export its spans any time with
// Recorder.WriteSpans.
func WithTracer(rec *trace.Recorder) Option { return tracerOption{rec} }

type rpcOptsOption rpc.Options

func (o rpcOptsOption) apply(opts *nodeOptions) { opts.rpcOpts = rpc.Options(o) }

// WithRPCOptions tunes the node's RPC behaviour.
func WithRPCOptions(o rpc.Options) Option { return rpcOptsOption(o) }

// New attaches a fresh node to the simulated network and starts it.
func New(net *netsim.Network, opts ...Option) (*Node, error) {
	ep, err := net.NewEndpoint()
	if err != nil {
		return nil, err
	}
	return NewOn(ep, opts...)
}

// NewOn starts a node over an already-attached transport endpoint —
// the way to host a node (and its services, 2PC included) on real TCP:
//
//	ep, _ := tcpNet.Listen("127.0.0.1:0")
//	n, _ := node.NewOn(ep, node.WithStableDir(dir))
func NewOn(ep Endpoint, opts ...Option) (*Node, error) {
	var no nodeOptions
	for _, opt := range opts {
		opt.apply(&no)
	}
	if no.clk == nil {
		no.clk = clock.Real()
	}
	if no.rpcOpts.Clock == nil {
		no.rpcOpts.Clock = no.clk
	}
	stable := store.NewStable()
	var err error
	if no.stableDir != "" {
		stable, err = store.NewStableAt(no.stableDir)
		if err != nil {
			ep.Close()
			return nil, err
		}
	}
	n := &Node{
		endpoint: ep,
		rpcOpts:  no.rpcOpts,
		clk:      no.clk,
		tracer:   no.tracer,
	}
	n.stable.Store(stable)
	stable.WAL().SetNodeID(uint64(ep.ID()))
	stable.WAL().SetClock(no.clk)
	if n.tracer != nil {
		// Export every WAL group-commit flush as an untraced root span
		// (a flush serves records from many transactions, so it belongs
		// to no single distributed trace), showing the amortised force
		// the commit path now rides on.
		rec := n.tracer
		nodeID := ep.ID()
		clk := n.clk
		stable.WAL().SetFlushObserver(func(fi store.FlushInfo) {
			outcome := trace.OutcomeOK
			if fi.Err != nil {
				outcome = trace.OutcomeError
			}
			end := clk.Now()
			rec.AddSpan(trace.Span{
				Kind:    "wal.flush",
				Node:    nodeID,
				Label:   fmt.Sprintf("wal.flush records=%d", fi.Records),
				Outcome: outcome,
				Begin:   end.Add(-fi.Duration),
				End:     end,
			})
		})
	}
	if n.tracer != nil {
		n.tracer.SetNode(ep.ID())
	}
	n.start()
	if no.debugAddr != "" {
		d, err := startDebugServer(no.debugAddr, n)
		if err != nil {
			ep.Close()
			return nil, err
		}
		n.debug = d
	}
	n.peer.Start()
	return n, nil
}

// start builds what a crash discards — the action runtime, the RPC peer
// and the lifetime context — for a node starting or restarting. The peer
// is not started. Called with mu held, or before the node is shared.
func (n *Node) start() {
	opts := []action.Option{action.WithClock(n.clk)}
	if n.tracer != nil {
		opts = append(opts, action.WithObserver(n.tracer.Observe))
	}
	n.runtime = action.NewRuntime(opts...)
	n.peer = rpc.NewPeerOn(n.endpoint, n.rpcOpts)
	n.peer.SetTracer(n.tracer)
	n.life, n.stopLife = context.WithCancel(context.Background())
}

// Context returns the node's lifetime context: cancelled when the node
// crashes or stops, replaced by Restart. Goroutines doing work on the
// node's behalf should watch it so they die with the node.
func (n *Node) Context() context.Context {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.life
}

// ID returns the node identifier.
func (n *Node) ID() ids.NodeID { return n.endpoint.ID() }

// Stable returns the current incarnation's handle on the node's stable
// store: Crash closes it for good, and Restart opens the next.
func (n *Node) Stable() *store.Stable { return n.stable.Load() }

// Runtime returns the node's action runtime. After a crash/restart it is
// a fresh runtime: in-flight actions and their locks died with the
// volatile memory.
func (n *Node) Runtime() *action.Runtime {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.runtime
}

// Tracer returns the node's distributed-trace recorder, or nil when
// the node was built without WithTracer.
func (n *Node) Tracer() *trace.Recorder { return n.tracer }

// Clock returns the node's time source (WithClock; clock.Real() by
// default). Hosted services use it for their own timers so the whole
// node shares one timeline.
func (n *Node) Clock() clock.Clock { return n.clk }

// Peer returns the node's RPC peer.
func (n *Node) Peer() *rpc.Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peer
}

// Host installs a service on the node and registers its handlers.
func (n *Node) Host(s Service) {
	n.mu.Lock()
	n.services = append(n.services, s)
	peer := n.peer
	n.mu.Unlock()
	s.Register(n, peer)
}

// Crash makes the node fail silently and ends its incarnation: the RPC
// engine stops, queued and future messages are dropped, the action
// runtime closes with its in-flight actions, which take no lock any more,
// and the store handle closes for good. Crashing a crashed node is a no-op.
func (n *Node) Crash() {
	n.mu.Lock()
	if n.crashed {
		n.mu.Unlock()
		return
	}
	n.crashed = true
	n.crashes++
	peer, rt := n.peer, n.runtime
	stopLife := n.stopLife
	n.mu.Unlock()

	stopLife()
	peer.Stop()
	n.endpoint.Crash()
	n.Stable().Crash()
	rt.Close()
	flightrec.Record(flightrec.Event{Kind: flightrec.KindCrash, Node: uint64(n.ID())})
	flightrec.AutoDump("crash")
}

// Restart repairs the node as its next incarnation: a new store handle
// (a file-backed store replays its log), an empty runtime and RPC peer,
// and services re-registering and running their recovery hooks. Restart
// returns once every service's Recover has: dist's first recovery pass
// asks the coordinator of each record in doubt, so a coordinator that
// does not answer holds Restart for one RPC call timeout per such record,
// while the node already serves. When the store does not recover, Restart
// returns the error and the node stays crashed — endpoint down, no
// service registered — for a later Restart to try again. Restarting a
// node that is up does nothing.
func (n *Node) Restart() error {
	n.restarting.Lock()
	defer n.restarting.Unlock()
	n.mu.Lock()
	if !n.crashed {
		n.mu.Unlock()
		return nil
	}
	stable, err := n.Stable().Restart()
	if err != nil {
		n.mu.Unlock()
		return fmt.Errorf("restart node %v: %w", n.ID(), err)
	}
	n.stable.Store(stable)
	n.crashed = false
	n.endpoint.Restart()
	n.start()
	services := slices.Clone(n.services)
	peer, life := n.peer, n.life
	n.mu.Unlock()

	for _, s := range services {
		s.Register(n, peer)
	}
	peer.Start()
	for _, s := range services {
		s.Recover(life, n)
	}
	return nil
}

// Crashed reports whether the node is currently crashed.
func (n *Node) Crashed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed
}

// Crashes returns how many times the node has crashed.
func (n *Node) Crashes() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashes
}

// Stop shuts the node down permanently. Unlike Crash it is clean: the
// stable store forces what it holds unforced and closes its file, so a
// node opened on the same directory finds everything this one did.
func (n *Node) Stop() {
	n.mu.Lock()
	peer := n.peer
	stopLife := n.stopLife
	n.mu.Unlock()
	stopLife()
	peer.Stop()
	n.endpoint.Close()
	//mcalint:ignore errdrop a stop has nobody to report a failed final force to; the log is as a crash would have left it
	_ = n.Stable().Close()
	n.debug.close()
}
