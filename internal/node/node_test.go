package node_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mca/internal/ids"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/rpc"
	"mca/internal/store"
)

// probe is a service counting Register/Recover invocations and serving a
// ping method.
type probe struct {
	mu        sync.Mutex
	registers int
	recovers  int
}

func (p *probe) Register(_ *node.Node, peer *rpc.Peer) {
	p.mu.Lock()
	p.registers++
	p.mu.Unlock()
	peer.Handle("ping", func(context.Context, ids.NodeID, []byte) ([]byte, error) {
		return []byte(`{"ok":true}`), nil
	})
}

func (p *probe) Recover(context.Context, *node.Node) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.recovers++
}

func (p *probe) counts() (int, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.registers, p.recovers
}

func newTestNode(t *testing.T, nw *netsim.Network) *node.Node {
	t.Helper()
	nd, err := node.New(nw, node.WithRPCOptions(rpc.Options{
		RetryInterval: 5 * time.Millisecond,
		CallTimeout:   200 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Stop)
	return nd
}

func TestServiceLifecycleAcrossCrash(t *testing.T) {
	nw := netsim.New(netsim.Config{})
	t.Cleanup(nw.Close)
	a := newTestNode(t, nw)
	b := newTestNode(t, nw)

	p := &probe{}
	b.Host(p)
	if reg, rec := p.counts(); reg != 1 || rec != 0 {
		t.Fatalf("after Host: registers=%d recovers=%d", reg, rec)
	}

	if err := a.Peer().Call(context.Background(), b.ID(), "ping", struct{}{}, nil); err != nil {
		t.Fatalf("ping: %v", err)
	}

	b.Crash()
	if !b.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
	if err := a.Peer().Call(context.Background(), b.ID(), "ping", struct{}{}, nil); !errors.Is(err, rpc.ErrTimeout) {
		t.Fatalf("ping to crashed node = %v, want ErrTimeout", err)
	}

	b.Restart()
	if reg, rec := p.counts(); reg != 2 || rec != 1 {
		t.Fatalf("after Restart: registers=%d recovers=%d", reg, rec)
	}
	if err := a.Peer().Call(context.Background(), b.ID(), "ping", struct{}{}, nil); err != nil {
		t.Fatalf("ping after restart: %v", err)
	}
}

func TestCrashSemanticsOfStores(t *testing.T) {
	nw := netsim.New(netsim.Config{})
	t.Cleanup(nw.Close)
	nd := newTestNode(t, nw)

	oid := ids.NewObjectID()
	if err := nd.Stable().ApplyBatch(store.Batch{Writes: map[ids.ObjectID]store.State{oid: store.State("durable")}}); err != nil {
		t.Fatal(err)
	}
	rtBefore := nd.Runtime()

	nd.Crash()
	if _, err := nd.Stable().Read(oid); !errors.Is(err, store.ErrCrashed) {
		t.Fatalf("stable read while crashed = %v", err)
	}
	if err := nd.Restart(); err != nil {
		t.Fatal(err)
	}

	got, err := nd.Stable().Read(oid)
	if err != nil || string(got) != "durable" {
		t.Fatalf("stable after restart = %q, %v", got, err)
	}
	if nd.Runtime() == rtBefore {
		t.Fatal("runtime must be fresh after restart (locks died with RAM)")
	}
}

// TestRestartOverAnUnreadableLog: a node whose log does not replay stays
// crashed — its store down, its endpoint deaf, no service re-registered —
// and Restart says why; once the log is repaired, the next Restart brings
// the node up with its state.
func TestRestartOverAnUnreadableLog(t *testing.T) {
	nw := netsim.New(netsim.Config{})
	t.Cleanup(nw.Close)
	dir := t.TempDir()
	nd, err := node.New(nw, node.WithStableDir(dir), node.WithRPCOptions(rpc.Options{
		RetryInterval: 5 * time.Millisecond,
		CallTimeout:   200 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Stop)
	caller := newTestNode(t, nw)
	p := &probe{}
	nd.Host(p)
	ping := func() error {
		return caller.Peer().Call(context.Background(), nd.ID(), "ping", struct{}{}, nil)
	}

	// Two records: damage in the first, with a whole one after it, is
	// damage in the middle of the log, which replay refuses.
	oid := ids.NewObjectID()
	for _, v := range []string{"v1", "v2"} {
		if err := nd.Stable().ApplyBatch(store.Batch{Writes: map[ids.ObjectID]store.State{oid: store.State(v)}}); err != nil {
			t.Fatal(err)
		}
	}
	nd.Crash()
	path := filepath.Join(dir, "wal.log")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(good)
	bad[10] ^= 0xff // the version byte, the first frame's 8-byte header, its kind byte, then its body
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := nd.Restart(); err == nil {
		t.Fatal("Restart over a log that does not replay succeeded")
	}
	if !nd.Crashed() || !nd.Stable().Crashed() {
		t.Fatalf("after a failed Restart: node crashed %v, store crashed %v; want both down", nd.Crashed(), nd.Stable().Crashed())
	}
	if reg, rec := p.counts(); reg != 1 || rec != 0 {
		t.Fatalf("after a failed Restart: registers=%d recovers=%d, want 1 and 0", reg, rec)
	}
	if err := ping(); !errors.Is(err, rpc.ErrTimeout) {
		t.Fatalf("ping to a node whose Restart failed = %v, want ErrTimeout", err)
	}

	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := nd.Restart(); err != nil {
		t.Fatalf("Restart over the repaired log: %v", err)
	}
	if nd.Crashed() {
		t.Fatal("node still down after a successful Restart")
	}
	if got, err := nd.Stable().Read(oid); err != nil || string(got) != "v2" {
		t.Fatalf("state after the second Restart = %q, %v; want v2", got, err)
	}
	if reg, rec := p.counts(); reg != 2 || rec != 1 {
		t.Fatalf("after the second Restart: registers=%d recovers=%d, want 2 and 1", reg, rec)
	}
	if err := ping(); err != nil {
		t.Fatalf("ping after the second Restart: %v", err)
	}
}

func TestCrashIdempotent(t *testing.T) {
	nw := netsim.New(netsim.Config{})
	t.Cleanup(nw.Close)
	nd := newTestNode(t, nw)

	nd.Crash()
	nd.Crash()
	if got := nd.Crashes(); got != 1 {
		t.Fatalf("Crashes = %d, want 1", got)
	}
	nd.Restart()
	nd.Restart()
	if nd.Crashed() {
		t.Fatal("node must be up")
	}
	nd.Crash()
	if got := nd.Crashes(); got != 2 {
		t.Fatalf("Crashes = %d, want 2", got)
	}
}

// TestStopClosesStableStore: a node on a stable directory, started and
// stopped over and over, holds no more file descriptors than it began
// with — Stop closes the log rather than leaving it to a finalizer, which
// the collector, held off here, would otherwise be the one to run.
func TestStopClosesStableStore(t *testing.T) {
	fds := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("descriptors cannot be counted here: %v", err)
		}
		return len(entries)
	}
	nw := netsim.New(netsim.Config{})
	t.Cleanup(nw.Close)
	dir := t.TempDir()
	cycle := func() {
		nd, err := node.New(nw, node.WithStableDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		nd.Stop()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cycle() // the first open creates the log
	before := fds()
	const cycles = 50
	for range cycles {
		cycle()
	}
	if after := fds(); after > before+2 {
		t.Fatalf("%d start/stop cycles left %d more descriptors open", cycles, after-before)
	}
}

// TestStopIsNotACrash: what a node appended without forcing — a write
// set installed lazily and the forget of its prepared record, as a
// participant's phase 2 leaves them — is on disk after Stop: a node
// opened on the same directory finds the install and nothing in doubt.
func TestStopIsNotACrash(t *testing.T) {
	nw := netsim.New(netsim.Config{})
	t.Cleanup(nw.Close)
	dir := t.TempDir()
	nd, err := node.New(nw, node.WithStableDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	txn, obj := ids.NewActionID(), ids.NewObjectID()
	writes := store.Batch{Writes: map[ids.ObjectID]store.State{obj: store.State("v")}}
	st := nd.Stable()
	if err := st.Intentions().Record(store.Intention{Action: txn, Status: store.IntentionPrepared, Writes: writes}); err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyBatchLazy(writes); err != nil {
		t.Fatal(err)
	}
	if err := st.Intentions().Forget(txn); err != nil {
		t.Fatal(err)
	}
	nd.Stop()

	reopened, err := node.New(nw, node.WithStableDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reopened.Stop)
	if got, err := reopened.Stable().Read(obj); err != nil || string(got) != "v" {
		t.Fatalf("install after Stop and reopen = %q, %v", got, err)
	}
	if pending, err := reopened.Stable().Intentions().Pending(); err != nil || len(pending) != 0 {
		t.Fatalf("in doubt after Stop and reopen: %v, %v", pending, err)
	}
}

// counter is a service whose handler counts the executions it starts.
type counter struct{ started atomic.Int64 }

func (c *counter) Register(_ *node.Node, peer *rpc.Peer) {
	peer.Handle("count", func(context.Context, ids.NodeID, []byte) ([]byte, error) {
		c.started.Add(1)
		return nil, nil
	})
}

func (c *counter) Recover(context.Context, *node.Node) {}

// TestCrashRacesInboundDatagrams crashes a node while callers keep
// retransmitting to it and netsim's delivery goroutines are calling its
// peer's dispatch. No send on a closed channel may follow (the race
// detector and the runtime would report one), and once a grace period
// has let handlers dispatched before the crash show, no handler of the
// crashed incarnation starts while datagrams keep arriving. Restart
// serves again.
func TestCrashRacesInboundDatagrams(t *testing.T) {
	nw := netsim.New(netsim.Config{MaxDelay: time.Millisecond})
	t.Cleanup(nw.Close)
	a := newTestNode(t, nw)
	b := newTestNode(t, nw)
	c := &counter{}
	b.Host(c)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				// Calls time out while b is down: only b's side is checked.
				_, _ = a.Peer().CallRaw(ctx, b.ID(), "count", nil)
			}
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
	}()

	for cycle := range 3 {
		before := c.started.Load()
		time.Sleep(30 * time.Millisecond)
		if c.started.Load() == before {
			t.Fatalf("cycle %d: no handler ran while the node was up", cycle)
		}
		b.Crash()
		time.Sleep(30 * time.Millisecond) // grace for handlers dispatched before the crash
		settled := c.started.Load()
		time.Sleep(50 * time.Millisecond)
		if now := c.started.Load(); now != settled {
			t.Fatalf("cycle %d: %d handlers started after Crash returned", cycle, now-settled)
		}
		if err := b.Restart(); err != nil {
			t.Fatal(err)
		}
	}
}
