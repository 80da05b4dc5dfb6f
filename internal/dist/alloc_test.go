package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/ids"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/object"
	"mca/internal/rpc"
	"mca/internal/testenv"
)

// allocFixture is a coordinator and two participants on an in-memory
// network, each participant hosting one integer register and an RPC echo
// method, so that whole transactions and single layers can be driven
// from one place.
type allocFixture struct {
	coord *Manager
	nodes [3]*node.Node // coordinator first
}

// echoService registers the bare RPC method the rpc-layer measurement
// calls.
type echoService struct{}

func (echoService) Register(_ *node.Node, p *rpc.Peer) {
	p.Handle("alloc.echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		return body, nil
	})
}

func (echoService) Recover(context.Context, *node.Node) {}

type regArg struct {
	D int `json:"d"`
}

func newAllocFixture(t *testing.T) *allocFixture {
	t.Helper()
	nw := netsim.New(netsim.Config{})
	t.Cleanup(nw.Close)
	opts := rpc.Options{RetryInterval: time.Second, CallTimeout: 30 * time.Second}
	f := &allocFixture{}
	for i := range f.nodes {
		nd, err := node.New(nw, node.WithRPCOptions(opts))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		f.nodes[i] = nd
		mgr := NewManager(nd)
		if i == 0 {
			f.coord = mgr
			continue
		}
		nd.Host(echoService{})
		reg := object.New(0, object.WithStore(nd.Stable()))
		mgr.RegisterResource("reg", ResourceFunc(func(a *action.Action, op string, arg []byte) ([]byte, error) {
			switch op {
			case "get":
				var out int
				if err := reg.Read(a, func(v int) error { out = v; return nil }); err != nil {
					return nil, err
				}
				return json.Marshal(out)
			case "add":
				var in regArg
				if err := json.Unmarshal(arg, &in); err != nil {
					return nil, err
				}
				return []byte("{}"), reg.Write(a, func(v *int) error { *v += in.D; return nil })
			}
			return nil, fmt.Errorf("unknown op %q", op)
		}))
	}
	return f
}

func (f *allocFixture) read(ctx context.Context) error {
	return f.coord.Run(ctx, func(txn *Txn) error {
		var v int
		return txn.Invoke(ctx, f.nodes[1].ID(), "reg", "get", regArg{}, &v)
	})
}

func (f *allocFixture) write(ctx context.Context) error {
	return f.coord.Run(ctx, func(txn *Txn) error {
		return txn.Invoke(ctx, f.nodes[1].ID(), "reg", "add", regArg{D: 1}, nil)
	})
}

func (f *allocFixture) transfer(ctx context.Context) error {
	return f.coord.Run(ctx, func(txn *Txn) error {
		if err := txn.Invoke(ctx, f.nodes[1].ID(), "reg", "add", regArg{D: -1}, nil); err != nil {
			return err
		}
		return txn.Invoke(ctx, f.nodes[2].ID(), "reg", "add", regArg{D: 1}, nil)
	})
}

// TestTxnAllocBudget is the allocation budget of the transaction path:
// heap objects per operation, for the three layers the path crosses and
// for the three transaction shapes the benchmark runs, each under a
// ceiling. The counts are process-wide, so a transaction's figure
// includes its participants' side and the in-memory network's datagram
// copies. A ceiling sits a few objects above today's count: re-deriving
// a context or re-making a timer per call, a map per colour set or a
// JSON pass over a protocol body each cost more than that slack and
// fail here before they show in the benchmark. The transaction rows run
// back to back, so every read carries its predecessor's release and every
// write its predecessor's commit: a goroutine, closure, context or timer
// per transaction on the delivery path would show in them, and the
// releases and commits are checked to have ridden an invoke rather than
// the flusher. Run with -v for the table.
func TestTxnAllocBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not meaningful under -race")
	}
	f := newAllocFixture(t)
	ctx := context.Background()
	rt := f.nodes[0].Runtime()
	peer, target := f.nodes[0].Peer(), f.nodes[1].ID()

	// The bodies of one read — an invoke with the previous read's release
	// on board, and its reply — and of a prepare round.
	invoke := invokeReq{Txn: 1 << 20, Resource: "reg", Op: "get", Arg: []byte(`{"d":0}`)}
	bodies := func() error {
		var scratch [bodyScratch]byte
		var owed, committed [owedScratch]byte
		invoke := invoke // the closure's copy lives on the heap, and would take the buffer there
		invoke.Release = txnList{ids: owed[:0]}.add(invoke.Txn - 1)
		invoke.Commit = txnList{ids: committed[:0]}.add(invoke.Txn - 2)
		// Nothing decoded may reach an interface here: the decoded
		// argument aliases scratch, and escape analysis would move the
		// buffer to the heap with it.
		q, err := decodeInvokeReq(appendInvokeReq(scratch[:0], &invoke))
		if err != nil {
			return err
		}
		if q.Op != invoke.Op || q.Resource != invoke.Resource || q.Txn != invoke.Txn || q.Release.n != 1 || q.Commit.n != 1 {
			return errMalformedBody
		}
		if _, _, _, err := decodeInvokeReply(appendInvokeReply(scratch[:0], replyNothingWritten, []byte("7"), invoke.Commit)); err != nil {
			return err
		}
		if _, err := decodePrepareReq(appendPrepareReq(scratch[:0], prepareReq{Txn: invoke.Txn, Coordinator: 1})); err != nil {
			return err
		}
		_, err = decodeVote(voteYesReadBody)
		return err
	}
	// The coordinator's side of lazy delivery: a release and a commit
	// owed at Commit, taken by the next invoke at that node, and the
	// commit's ack counted when it comes back.
	owedAndTaken := func() error {
		f.coord.cur.Load().owed.owe(target, invoke.Txn)
		f.coord.cur.Load().owed.await(invoke.Txn+1, []ids.NodeID{target}, f.coord.clk.Now())
		var owed, committed [owedScratch]byte
		l := f.coord.cur.Load().owed.take(owedList{node: target, rel: txnList{ids: owed[:0]}, com: txnList{ids: committed[:0]}})
		if l.rel.n != 1 || l.com.n != 1 {
			return fmt.Errorf("took %d releases and %d commits, want 1 and 1", l.rel.n, l.com.n)
		}
		if !f.coord.cur.Load().owed.acked(target, invoke.Txn+1) {
			return errors.New("the one writer's ack did not complete the decision")
		}
		return nil
	}

	rows := []struct {
		name    string
		ceiling float64
		run     func() error
	}{
		{"action: begin + commit, top level", 1, func() error {
			a, err := rt.Begin()
			if err != nil {
				return err
			}
			return a.Commit()
		}},
		{"rpc: CallRaw round trip", 6, func() error {
			_, err := peer.CallRaw(ctx, target, "alloc.echo", []byte{1, 2, 3})
			return err
		}},
		{"dist: bodies of a read and a prepare", 0, bodies},
		{"dist: a release and a commit owed, taken, acked", 0, owedAndTaken},
		{"txn: read + piggybacked release", 15, func() error { return f.read(ctx) }},
		{"txn: write (1 participant)", 26, func() error { return f.write(ctx) }},
		{"txn: transfer (2 participants)", 49, func() error { return f.transfer(ctx) }},
	}
	// A collection would empty the sync.Pools the path leans on and bill
	// their refill to whichever row runs next.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	flushed := releasesFlushed.Value() + phase2Flushed.Value()
	defer func() {
		// A few may, when the test is descheduled for a flush interval.
		if n := releasesFlushed.Value() + phase2Flushed.Value() - flushed; n > 50 {
			t.Errorf("%d releases and commits went out in end messages of their own: the rows did not measure the piggybacked path", n)
		}
	}()
	for _, row := range rows {
		for i := 0; i < 50; i++ { // warm pools, intern tables, reply caches
			if err := row.run(); err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
		}
		var runErr error
		allocs := testing.AllocsPerRun(200, func() {
			if err := row.run(); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatalf("%s: %v", row.name, runErr)
		}
		t.Logf("%-36s %6.1f allocs/op (ceiling %3.0f)", row.name, allocs, row.ceiling)
		if allocs > row.ceiling {
			t.Errorf("%s: %.1f allocs/op, over its ceiling of %.0f", row.name, allocs, row.ceiling)
		}
	}
}
