package dist_test

import (
	"context"
	"fmt"
	"maps"
	"strings"
	"testing"
	"time"

	"mca/internal/dist"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/rpc"
	"mca/internal/trace"
)

// fanoutCluster builds a coordinator, with coordOpts, and n bank
// participants on a fresh fault-free simulated LAN.
func fanoutCluster(t *testing.T, n int, opts rpc.Options, coordOpts ...node.Option) (*dist.Manager, []*node.Node) {
	t.Helper()
	nw := netsim.New(netsim.Config{})
	t.Cleanup(nw.Close)
	coordNode, err := node.New(nw, append(coordOpts, node.WithRPCOptions(opts))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coordNode.Stop)
	coord := dist.NewManager(coordNode)
	nodes := make([]*node.Node, n)
	for i := 0; i < n; i++ {
		nd, err := node.New(nw, node.WithRPCOptions(opts))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		mgr := dist.NewManager(nd)
		b := newBank(100)
		nd.Host(b)
		mgr.RegisterResource("bank", b)
		nodes[i] = nd
	}
	return coord, nodes
}

// roundOf parses a round span: its kind, and how many of how many
// participants answered; ok is false for any other span.
func roundOf(s trace.Span) (kind dist.RoundKind, answered, participants int, ok bool) {
	k, ok := strings.CutPrefix(s.Kind, "round.")
	if !ok {
		return "", 0, 0, false
	}
	if _, err := fmt.Sscanf(s.Label, k+" %d/%d", &answered, &participants); err != nil {
		return "", 0, 0, false
	}
	return dist.RoundKind(k), answered, participants, true
}

// callsUnder counts the RPC client spans under a span.
func callsUnder(spans []trace.Span, parent trace.Span) int {
	n := 0
	for _, s := range spans {
		if s.Kind == "rpc.client" && s.TraceID == parent.TraceID && s.ParentSpanID == parent.SpanID {
			n++
		}
	}
	return n
}

// TestRoundSpansRecordFanoutRounds records commit-protocol rounds
// as spans of the coordinator's tracer: a plain two-participant read and
// a structure constituent's read each run one prepare round and nothing
// more — its readers commit at it — and the structure's end is a round
// too. A traced round is a child of its transaction's root
// span and calls each of its participants once; the structure's rounds
// (its constituent runs untraced) are root spans.
func TestRoundSpansRecordFanoutRounds(t *testing.T) {
	opts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 2 * time.Second}
	ctx := context.Background()

	rec := trace.NewRecorder()
	coord, nodes := fanoutCluster(t, 2, opts, node.WithTracer(rec))

	err := coord.Run(ctx, func(txn *dist.Txn) error {
		for _, nd := range nodes {
			if err := txn.Invoke(ctx, nd.ID(), "bank", "get", struct{}{}, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run = %v", err)
	}

	s, err := coord.BeginRemoteSerializing()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunConstituent(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, nodes[0].ID(), "bank", "get", struct{}{}, nil)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.End(ctx); err != nil {
		t.Fatal(err)
	}

	spans := rec.Spans()
	roots := make(map[uint64]trace.Span) // action spans by span id
	for _, s := range spans {
		if s.ID != 0 && s.SpanID != 0 {
			roots[s.SpanID] = s
		}
	}
	sum, untraced := make(map[dist.RoundKind]int), make(map[dist.RoundKind]int)
	for _, s := range spans {
		kind, answered, participants, ok := roundOf(s)
		if !ok {
			continue
		}
		sum[kind]++
		if kind == dist.RoundRelease {
			continue // the flusher, should it find anything owed
		}
		if s.Outcome != trace.OutcomeCommitted {
			t.Fatalf("round %q failed", s.Label)
		}
		if participants == 0 || answered != participants {
			t.Fatalf("round %v: %d/%d participants ok", kind, answered, participants)
		}
		if s.TraceID == 0 {
			untraced[kind]++
			continue
		}
		root, ok := roots[s.ParentSpanID]
		if !ok || root.ID == 0 || root.ParentSpanID != 0 {
			t.Fatalf("round %v is not a child of its transaction's root span", kind)
		}
		if got := callsUnder(spans, s); got != participants {
			t.Fatalf("round %v over %d participants made %d calls", kind, participants, got)
		}
	}
	if sum[dist.RoundPrepare] != 2 || sum[dist.RoundStructure] != 1 || len(sum)-min(sum[dist.RoundRelease], 1) != 2 {
		t.Fatalf("rounds %v, want 2 prepare, 1 structure and the flusher's", sum)
	}
	if want := map[dist.RoundKind]int{dist.RoundPrepare: 1, dist.RoundStructure: 1}; !maps.Equal(untraced, want) {
		t.Fatalf("untraced rounds %v, want the structure's: %v", untraced, want)
	}
}

// TestAbortRoundObserved checks that an explicit Abort broadcasts one
// abort round over every participant, under the transaction's root span.
func TestAbortRoundObserved(t *testing.T) {
	opts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 2 * time.Second}
	ctx := context.Background()
	rec := trace.NewRecorder()
	coord, nodes := fanoutCluster(t, 3, opts, node.WithTracer(rec))

	txn, err := coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		if err := txn.Invoke(ctx, nd.ID(), "bank", "add", addArg{Delta: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	spans := rec.Spans()
	var root, abort trace.Span
	aborts := 0
	for _, s := range spans {
		if s.ID == txn.ID() {
			root = s
		}
		if kind, answered, participants, ok := roundOf(s); ok && kind == dist.RoundAbort {
			aborts++
			abort = s
			if participants != 3 || answered != 3 || s.Outcome != trace.OutcomeCommitted {
				t.Fatalf("abort round %q %s, want 3/3 ok", s.Label, s.Outcome)
			}
		}
	}
	if aborts != 1 {
		t.Fatalf("%d abort rounds recorded, want 1", aborts)
	}
	if root.SpanID == 0 || abort.TraceID != root.TraceID || abort.ParentSpanID != root.SpanID {
		t.Fatalf("abort round %+v is not a child of the transaction's root %+v", abort, root)
	}
	if got := callsUnder(spans, abort); got != 3 {
		t.Fatalf("abort round made %d calls, want 3", got)
	}
}

// TestCommitAtOneToFourParticipants runs transactions that write at each
// of 1 to 4 participants: every one commits, and every participant
// applies every one.
func TestCommitAtOneToFourParticipants(t *testing.T) {
	opts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 500 * time.Millisecond}
	ctx := context.Background()
	const txns = 10
	for n := 1; n <= 4; n++ {
		t.Run(fmt.Sprintf("participants=%d", n), func(t *testing.T) {
			coord, nodes := fanoutCluster(t, n, opts)
			for i := range txns {
				if err := coord.Run(ctx, func(txn *dist.Txn) error {
					for _, nd := range nodes {
						if err := txn.Invoke(ctx, nd.ID(), "bank", "add", addArg{Delta: 1}, nil); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Fatalf("transaction %d: %v", i, err)
				}
			}
			for _, nd := range nodes {
				var out balanceResp
				if err := coord.Run(ctx, func(txn *dist.Txn) error {
					return txn.Invoke(ctx, nd.ID(), "bank", "get", struct{}{}, &out)
				}); err != nil || out.Balance != 100+txns {
					t.Fatalf("balance at %v = %d, %v; want %d", nd.ID(), out.Balance, err, 100+txns)
				}
			}
		})
	}
}
