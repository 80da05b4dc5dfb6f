package dist_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mca/internal/clock"
	"mca/internal/dist"
	"mca/internal/flightrec"
	"mca/internal/ids"
	"mca/internal/metrics"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/rpc"
	"mca/internal/trace"
)

// tracedCluster is the 3-node fixture with a trace recorder on every
// node, as an application deployment using node.WithTracer would run.
type tracedCluster struct {
	*cluster
	recs [3]*trace.Recorder
}

func newTracedCluster(t *testing.T, cfg netsim.Config) *tracedCluster {
	t.Helper()
	nw := netsim.New(cfg)
	t.Cleanup(nw.Close)

	rpcOpts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 300 * time.Millisecond}
	tc := &tracedCluster{cluster: &cluster{net: nw}}
	for i := 0; i < 3; i++ {
		tc.recs[i] = trace.NewRecorder()
		opts := []node.Option{node.WithRPCOptions(rpcOpts), node.WithTracer(tc.recs[i])}
		if cfg.Clock != nil {
			opts = append(opts, node.WithClock(cfg.Clock))
		}
		nd, err := node.New(nw, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		tc.nodes[i] = nd
		mgr := dist.NewManager(nd)
		tc.banks[i] = newBank(100)
		nd.Host(tc.banks[i])
		mgr.RegisterResource("bank", tc.banks[i])
		if i == 0 {
			tc.coord = mgr
		} else {
			tc.parts[i-1] = mgr
		}
	}
	return tc
}

// mergedSpans exports every node's spans (per-node, as separate
// deployments would) and merges them.
func (tc *tracedCluster) mergedSpans() []trace.Span {
	var all []trace.Span
	for _, rec := range tc.recs {
		all = append(all, rec.Spans()...)
	}
	return all
}

func TestTracedCommitMergesToOneTreeWithoutOrphans(t *testing.T) {
	tc := newTracedCluster(t, netsim.Config{})
	ctx := context.Background()

	if err := transfer(ctx, tc.cluster, 1, 2, 30); err != nil {
		t.Fatalf("transfer: %v", err)
	}

	all := tc.mergedSpans()
	tree := trace.Merge(all)
	if len(tree.Orphans) != 0 {
		t.Fatalf("merged tree has %d orphan spans:\n%s", len(tree.Orphans), tree.Render(60))
	}

	// Exactly one distributed trace: every traced span shares the
	// transaction's TraceID.
	traceIDs := map[uint64]bool{}
	for _, s := range all {
		if s.TraceID != 0 {
			traceIDs[s.TraceID] = true
		}
	}
	if len(traceIDs) != 1 {
		t.Fatalf("spans carry %d distinct trace ids, want 1", len(traceIDs))
	}

	// The traced root must causally contain the RPC spans and participant
	// actions at both remote nodes — and no round: both participants voted
	// in their invoke replies, and phase 2 travels after Commit returned,
	// outside the trace.
	var root *trace.TreeNode
	for _, r := range tree.Roots {
		if r.Span.TraceID != 0 {
			root = r
			break
		}
	}
	if root == nil {
		t.Fatalf("no traced root in merged tree:\n%s", tree.Render(60))
	}
	kinds := map[string]int{}
	nodesSeen := map[string]bool{}
	root.Walk(func(n *trace.TreeNode, _ int) {
		kinds[n.Span.Kind]++
		nodesSeen[n.Span.Node.String()] = true
	})
	for kind, n := range kinds {
		if strings.HasPrefix(kind, "round.") {
			t.Fatalf("%d %s spans under root, want no round (kinds: %v)", n, kind, kinds)
		}
	}
	// 2 invokes = 2 client/server pairs.
	if kinds["rpc.client"] != 2 || kinds["rpc.server"] != 2 {
		t.Fatalf("rpc spans under root: client=%d server=%d, want 2/2", kinds["rpc.client"], kinds["rpc.server"])
	}
	for i := 0; i < 3; i++ {
		if id := tc.nodes[i].ID().String(); !nodesSeen[id] {
			t.Fatalf("trace tree has no span from %s (seen: %v)", id, nodesSeen)
		}
	}

	// The critical path of a committed 2PC runs from the transaction
	// root through one of its invocations.
	path := trace.CriticalPath(root)
	if len(path) < 2 {
		t.Fatalf("critical path too short: %d spans", len(path))
	}
}

// TestAttributionAcrossNodeFiles: a transfer waits for a lock and for a
// slowed force at the participants, and its breakdown, computed from
// each node's spans written to its own file and read back, is the one
// computed in process — each wait charged where it happened.
func TestAttributionAcrossNodeFiles(t *testing.T) {
	tc := newTracedCluster(t, netsim.Config{})
	ctx := context.Background()
	const slow = 5 * time.Millisecond
	tc.nodes[1].Stable().WAL().SetForceDelay(slow)

	// A transaction holds P2's account while the transfer reaches it.
	blocker, err := tc.coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := blocker.Invoke(ctx, tc.nodes[2].ID(), "bank", "add", addArg{Delta: 1}, nil); err != nil {
		t.Fatal(err)
	}
	txn, err := tc.coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	parked := lockWaiters()
	done := make(chan error, 1)
	go func() {
		if err := txn.Invoke(ctx, tc.nodes[1].ID(), "bank", "add", addArg{Delta: -10}, nil); err != nil {
			done <- err
			return
		}
		if err := txn.Invoke(ctx, tc.nodes[2].ID(), "bank", "add", addArg{Delta: 10}, nil); err != nil {
			done <- err
			return
		}
		done <- txn.Commit(ctx)
	}()
	if err := waitUntil(func() bool { return lockWaiters() > parked }); err != nil {
		t.Fatalf("the transfer never waited for P2's lock: %v", err)
	}
	time.Sleep(slow)
	if err := blocker.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("transfer: %v", err)
	}

	dir := t.TempDir()
	var inProcess, fromFiles []trace.Span
	for i, rec := range tc.recs {
		spans := rec.Spans()
		inProcess = append(inProcess, spans...)
		path := filepath.Join(dir, fmt.Sprintf("node%d.jsonl", i))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteSpans(f, spans); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		f, err = os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		read, err := trace.ReadSpans(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		fromFiles = append(fromFiles, read...)
	}
	var tid uint64
	for _, s := range inProcess {
		if s.ID == txn.ID() && s.IsRoot() {
			tid = s.TraceID
		}
	}
	spans := trace.ByTrace(inProcess)[tid]
	want := trace.Attribute(spans)
	if got := trace.Attribute(trace.ByTrace(fromFiles)[tid]); got != want {
		t.Fatalf("breakdown from the files %+v, in process %+v", got, want)
	}

	// Each wait is a span of the node it happened at.
	waited := map[string]map[ids.NodeID]time.Duration{}
	for _, s := range spans {
		if s.Kind == trace.KindLockWait || s.Kind == trace.KindForce {
			if waited[s.Kind] == nil {
				waited[s.Kind] = map[ids.NodeID]time.Duration{}
			}
			waited[s.Kind][s.Node] += s.End.Sub(s.Begin)
		}
	}
	p1, p2 := tc.nodes[1].ID(), tc.nodes[2].ID()
	if got := waited[trace.KindLockWait][p2]; got < slow || time.Duration(want.Lock) != got {
		t.Fatalf("lock waits by node %v (breakdown %+v), want P2's alone, at least %v", waited[trace.KindLockWait], want, slow)
	}
	if got := waited[trace.KindForce][p1]; got < slow || time.Duration(want.Force) < got {
		t.Fatalf("forces by node %v (breakdown %+v), want P1's at least %v", waited[trace.KindForce], want, slow)
	}
	if want.Queue <= 0 || want.Net <= 0 {
		t.Fatalf("breakdown %+v has no serve-pool queueing or no wire time", want)
	}
	if want.Total < want.Lock+want.Force {
		t.Fatalf("breakdown %+v charges more waiting than the transaction took", want)
	}
}

// lockWaiters reads how many lock requests are parked in the process.
func lockWaiters() float64 {
	f, _ := metrics.Default().Find("mca_lock_waiters")
	return f.Samples[0].Value
}

// TestPiggybackedPhase2IsItsOwnSpan: a transfer's commit rides the next
// transfer's invoke at each writer, and the writer's work on it is a span
// of its own under that invoke's server span, in the carrying trace —
// not part of the carried operation. The clock stands still, so nothing
// is flushed on its own.
func TestPiggybackedPhase2IsItsOwnSpan(t *testing.T) {
	tc := newTracedCluster(t, netsim.Config{Clock: clock.NewFake()})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := transfer(ctx, tc.cluster, 1, 2, 10); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
	spans := tc.mergedSpans()
	byID := make(map[uint64]trace.Span, len(spans))
	for _, s := range spans {
		byID[s.SpanID] = s
	}
	found := 0
	for _, s := range spans {
		if s.Kind != "dist.phase2" {
			continue
		}
		if parent := byID[s.ParentSpanID]; parent.Kind != "rpc.server" || parent.TraceID != s.TraceID {
			t.Fatalf("phase-2 span %q hangs under %q of trace %x, want the carrying request's server span in trace %x",
				s.Label, parent.Kind, parent.TraceID, s.TraceID)
		}
		found++
	}
	if found != 2 {
		t.Fatalf("%d phase-2 spans, want one at each writer", found)
	}
}

func TestTracedAbortRecordsAbortRound(t *testing.T) {
	tc := newTracedCluster(t, netsim.Config{})
	ctx := context.Background()

	txn, err := tc.coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Invoke(ctx, tc.nodes[1].ID(), "bank", "add", addArg{Delta: -5}, nil); err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(ctx); err != nil {
		t.Fatal(err)
	}

	tree := trace.Merge(tc.mergedSpans())
	if len(tree.Orphans) != 0 {
		t.Fatalf("merged tree has %d orphan spans", len(tree.Orphans))
	}
	found := false
	for _, r := range tree.Roots {
		r.Walk(func(n *trace.TreeNode, _ int) {
			if n.Span.Kind == "round.abort" {
				found = true
			}
		})
	}
	if !found {
		t.Fatal("no round.abort span in merged tree")
	}
}

// TestEveryRoundIsOneSpan: every fan-out round a traced node runs — a
// two-site read's prepare, an abort, the flusher's end messages — is
// exactly one round.<kind> span in the node's recorder: as many as the
// flight recorder logged rounds for the node, a traced one under the span
// the flight recorder names.
func TestEveryRoundIsOneSpan(t *testing.T) {
	tc := newTracedCluster(t, netsim.Config{})
	ctx := context.Background()
	p1, p2 := tc.nodes[1].ID(), tc.nodes[2].ID()

	if err := transfer(ctx, tc.cluster, 1, 2, 10); err != nil {
		t.Fatalf("transfer: %v", err)
	}
	txn, err := tc.coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []ids.NodeID{p1, p2} {
		if err := txn.Invoke(ctx, p, "bank", "add", addArg{Delta: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tc.coord.Run(ctx, func(txn *dist.Txn) error {
		var out balanceResp
		for _, p := range []ids.NodeID{p1, p2} {
			if err := txn.Invoke(ctx, p, "bank", "get", struct{}{}, &out); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("two-site read: %v", err)
	}
	if err := tc.coord.Run(ctx, func(txn *dist.Txn) error {
		var out balanceResp
		return txn.Invoke(ctx, p2, "bank", "get", struct{}{}, &out)
	}); err != nil {
		t.Fatalf("read: %v", err)
	}

	// The flusher's rounds end after the operations return.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		logged := make(map[uint64]int) // flight-recorder rounds by node
		tracedLogged := make(map[uint64]bool)
		for _, ev := range flightrec.Snapshot() {
			if ev.Kind == flightrec.KindRound {
				logged[ev.Node]++
				tracedLogged[ev.Span] = ev.Span != 0
			}
		}
		kinds := make(map[dist.RoundKind]int)
		mismatch := ""
		for i, rec := range tc.recs {
			spans := 0
			for _, s := range rec.Spans() {
				kind, _, _, ok := roundOf(s)
				if !ok {
					continue
				}
				spans++
				kinds[kind]++
				if s.SpanID != 0 && !tracedLogged[s.SpanID] {
					t.Fatalf("round span %q has span id %x, which no logged round has", s.Label, s.SpanID)
				}
			}
			if n := logged[uint64(tc.nodes[i].ID())]; n != spans {
				mismatch = fmt.Sprintf("node %d: %d rounds logged, %d round spans", i, n, spans)
			}
		}
		done := kinds[dist.RoundPrepare] > 0 && kinds[dist.RoundAbort] > 0 && kinds[dist.RoundRelease] > 0
		if mismatch == "" && done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s; round spans by kind: %v", mismatch, kinds)
		}
	}
}
