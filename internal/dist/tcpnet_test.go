package dist_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mca/internal/clock"
	"mca/internal/dist"
	"mca/internal/ids"
	"mca/internal/metrics"
	"mca/internal/node"
	"mca/internal/object"
	"mca/internal/rpc"
	"mca/internal/store"
	"mca/internal/tcpnet"
	"mca/internal/workload"
)

// tcpCluster hosts a coordinator and two participants on real loopback
// sockets via node.NewOn: the full 2PC stack — WAL, locks, recovery —
// unchanged, only the transport swapped.
func tcpCluster(t *testing.T, workers int) (*dist.Manager, [2]*node.Node, [][2]*bank) {
	t.Helper()
	nw := tcpnet.NewNetwork()
	rpcOpts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 2 * time.Second}

	newNode := func() *node.Node {
		ep, err := nw.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nd, err := node.NewOn(ep, node.WithRPCOptions(rpcOpts))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		return nd
	}

	cn := newNode()
	coord := dist.NewManager(cn)

	var parts [2]*node.Node
	banks := make([][2]*bank, workers)
	for i := 0; i < 2; i++ {
		pn := newNode()
		mgr := dist.NewManager(pn)
		for w := 0; w < workers; w++ {
			b := newBank(100)
			pn.Host(b)
			mgr.RegisterResource(fmt.Sprintf("bank%d", w), b)
			banks[w][i] = b
		}
		parts[i] = pn
	}
	return coord, parts, banks
}

// TestCommitOverTCP runs concurrent two-phase commits over real TCP
// sockets with the binary codec and coalescing writer on the path: all
// transfers must commit and conserve every account pair, exactly as
// over the simulated LAN.
func TestCommitOverTCP(t *testing.T) {
	const (
		workers = 8
		txns    = 5
	)
	coord, parts, banks := tcpCluster(t, workers)
	ctx := context.Background()

	res := workload.Run(clock.Real(), workers, txns, func(w, _ int) error {
		resource := fmt.Sprintf("bank%d", w)
		return coord.Run(ctx, func(txn *dist.Txn) error {
			if err := txn.Invoke(ctx, parts[0].ID(), resource, "add", addArg{Delta: -1}, nil); err != nil {
				return err
			}
			return txn.Invoke(ctx, parts[1].ID(), resource, "add", addArg{Delta: 1}, nil)
		})
	})
	if res.Errors != 0 {
		t.Fatalf("2PC over TCP: %d/%d transactions failed: %v", res.Errors, res.Ops, res.ErrKinds)
	}
	for w := 0; w < workers; w++ {
		a, b := banks[w][0].balance(), banks[w][1].balance()
		if a != 100-txns || b != 100+txns {
			t.Fatalf("worker %d balances = %d/%d, want %d/%d", w, a, b, 100-txns, 100+txns)
		}
	}
}

// TestCommitOverTCPSurvivesParticipantCrash: crash a participant mid
// workload, restart it, and the cluster must keep committing — the
// recovery protocol rides the TCP endpoint's Crash/Restart exactly as
// it rides netsim's.
func TestCommitOverTCPSurvivesParticipantCrash(t *testing.T) {
	coord, parts, banks := tcpCluster(t, 1)
	ctx := context.Background()

	transfer := func() error {
		return coord.Run(ctx, func(txn *dist.Txn) error {
			if err := txn.Invoke(ctx, parts[0].ID(), "bank0", "add", addArg{Delta: -1}, nil); err != nil {
				return err
			}
			return txn.Invoke(ctx, parts[1].ID(), "bank0", "add", addArg{Delta: 1}, nil)
		})
	}
	if err := transfer(); err != nil {
		t.Fatalf("transfer before crash: %v", err)
	}

	parts[1].Crash()
	// With a participant down the transfer cannot prepare; it must fail
	// cleanly (abort), not hang or corrupt balances.
	cctx, cancel := context.WithTimeout(ctx, 3*time.Second)
	err := coord.Run(cctx, func(txn *dist.Txn) error {
		if err := txn.Invoke(cctx, parts[0].ID(), "bank0", "add", addArg{Delta: -1}, nil); err != nil {
			return err
		}
		return txn.Invoke(cctx, parts[1].ID(), "bank0", "add", addArg{Delta: 1}, nil)
	})
	cancel()
	if err == nil {
		t.Fatal("transfer succeeded against a crashed participant")
	}

	parts[1].Restart()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := transfer(); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("transfer still failing after restart: %v", err)
		}
	}
	a, b := banks[0][0].balance(), banks[0][1].balance()
	if a+b != 200 {
		t.Fatalf("balances %d+%d do not conserve 200", a, b)
	}
}

// lossyEndpoint is a TCP endpoint that, while told to, loses what its
// node sends to peer (mute) and the calls it receives from peer (deaf),
// though not peer's replies to its own calls.
type lossyEndpoint struct {
	*tcpnet.Endpoint
	peer       ids.NodeID
	mute, deaf atomic.Bool
}

func (e *lossyEndpoint) Send(to ids.NodeID, payload []byte) error {
	if to == e.peer && e.mute.Load() {
		return nil
	}
	return e.Endpoint.Send(to, payload)
}

func (e *lossyEndpoint) SetDeliver(fn func(rpc.Datagram)) {
	if fn == nil {
		e.Endpoint.SetDeliver(nil)
		return
	}
	e.Endpoint.SetDeliver(func(d rpc.Datagram) {
		// An RPC frame is a CRC32, the envelope's magic and version bytes,
		// then its kind: 1 for a call, 2 for a reply.
		call := len(d.Payload) > 6 && d.Payload[6] == 1
		if d.From != e.peer || !call || !e.deaf.Load() {
			fn(d)
		}
	})
}

// TestRetransmittedCallReachesRestartedParticipant is the crash-matrix
// cell of a call still retransmitting over TCP when its participant
// restarts. A transfer's second participant P runs its first invoke and
// votes in the reply, the reply is lost, and P crashes. The coordinator's
// RPC layer goes on retransmitting the call, and the retransmission
// reaches P's next incarnation, which knows nothing of the call and takes
// it for a first contact. That is safe while the old incarnation's
// prepared record, loaded at the restart, fences the account: readers are
// refused, the invoke is not run a second time, and the transfer's abort
// lifts the fence with no money made or lost. The coordinator's
// retransmissions dial P while it is down and P's recovery dials back, yet
// every node pair ends on one connection.
func TestRetransmittedCallReachesRestartedParticipant(t *testing.T) {
	for _, backing := range []string{"memory", "file"} {
		t.Run(backing, func(t *testing.T) {
			open0 := tcpConnections(t)
			nw := tcpnet.NewNetwork()
			newNode := func(wrap func(*tcpnet.Endpoint) node.Endpoint) *node.Node {
				ep, err := nw.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				opts := []node.Option{node.WithRPCOptions(rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 5 * time.Second})}
				if backing == "file" {
					opts = append(opts, node.WithStableDir(t.TempDir()))
				}
				nd, err := node.NewOn(wrap(ep), opts...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(nd.Stop)
				return nd
			}
			plain := func(ep *tcpnet.Endpoint) node.Endpoint { return ep }
			cn := newNode(plain)
			coord := dist.NewManager(cn)
			var lossy *lossyEndpoint
			nodes := [2]*node.Node{newNode(plain), newNode(func(ep *tcpnet.Endpoint) node.Endpoint {
				lossy = &lossyEndpoint{Endpoint: ep, peer: cn.ID()}
				return lossy
			})}
			var (
				mgrs  [2]*dist.Manager
				banks [2]*bank
			)
			for i, nd := range nodes {
				mgrs[i], banks[i] = dist.NewManager(nd), newBank(100)
				nd.Host(banks[i])
				mgrs[i].RegisterResource("bank", banks[i])
			}
			q, p := nodes[0], nodes[1]
			pending := func(nd *node.Node) int {
				in, err := nd.Stable().Intentions().Pending()
				if err != nil {
					t.Fatal(err)
				}
				return len(in)
			}
			ctx := context.Background()

			txn, err := coord.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := txn.Invoke(ctx, q.ID(), "bank", "add", addArg{Delta: 10}, nil); err != nil {
				t.Fatal(err)
			}
			lossy.mute.Store(true)
			invoked := make(chan error, 1)
			go func() { invoked <- txn.Invoke(ctx, p.ID(), "bank", "add", addArg{Delta: -10}, nil) }()
			if err := waitUntil(func() bool { return pending(p) == 1 }); err != nil {
				t.Fatal("P never voted in its invoke's reply")
			}
			lossy.deaf.Store(true) // the retransmissions wait for the fence to be checked
			p.Crash()
			lossy.mute.Store(false)
			if err := p.Restart(); err != nil {
				t.Fatal(err)
			}
			if _, err := readAt(ctx, mgrs[0], p.ID()); err == nil || !strings.Contains(err.Error(), store.ErrUnresolved.Error()) {
				t.Fatalf("a read of P's account in doubt = %v, want %v", err, store.ErrUnresolved)
			}
			lossy.deaf.Store(false)
			if err := <-invoked; err == nil || !strings.Contains(err.Error(), dist.ErrPrepared.Error()) {
				t.Fatalf("the retransmitted invoke = %v, want %v: P's next incarnation must not run it again", err, dist.ErrPrepared)
			}
			if err := txn.Abort(ctx); err != nil {
				t.Fatal(err)
			}
			if err := waitUntil(func() bool {
				_, err := readAt(ctx, mgrs[0], p.ID())
				return err == nil && pending(p) == 0 && pending(q) == 0
			}); err != nil {
				t.Fatalf("the abort left P's account fenced (%d records at P, %d at Q)", pending(p), pending(q))
			}
			for i, nd := range nodes {
				stable := 100
				if m, err := object.Load[int](banks[i].acctID, nd.Stable()); err == nil {
					stable = m.Peek()
				} else if !errors.Is(err, store.ErrNotFound) {
					t.Fatal(err)
				}
				if got := banks[i].balance(); got != 100 || stable != 100 {
					t.Fatalf("account %d reads %d in memory and %d in the store after the abort, want 100", i, got, stable)
				}
			}
			// Three pairs talked — the coordinator with Q and with P, and Q
			// with P for its reads — each counted at both of its ends.
			if err := waitUntil(func() bool { return tcpConnections(t)-open0 == 6 }); err != nil {
				t.Fatalf("%d connections open for three node pairs, want 6: a pair is on two", tcpConnections(t)-open0)
			}
		})
	}
}

// tcpConnections reads the open TCP connections of every endpoint in the
// process, as mca_tcpnet_connections counts them.
func tcpConnections(t *testing.T) int {
	t.Helper()
	fam, ok := metrics.Default().Find("mca_tcpnet_connections")
	if !ok || len(fam.Samples) != 1 {
		t.Fatal("mca_tcpnet_connections not registered as one gauge")
	}
	return int(fam.Samples[0].Value)
}
