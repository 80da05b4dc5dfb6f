package node_test

import (
	"context"
	"errors"
	"os"
	"runtime/debug"
	"sync"
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
	if err := nd.Stable().Write(oid, store.State("durable")); err != nil {
		t.Fatal(err)
	}
	if err := nd.Volatile().Write(oid, store.State("ram")); err != nil {
		t.Fatal(err)
	}
	rtBefore := nd.Runtime()

	nd.Crash()
	if _, err := nd.Stable().Read(oid); !errors.Is(err, store.ErrCrashed) {
		t.Fatalf("stable read while crashed = %v", err)
	}
	nd.Restart()

	got, err := nd.Stable().Read(oid)
	if err != nil || string(got) != "durable" {
		t.Fatalf("stable after restart = %q, %v", got, err)
	}
	if _, err := nd.Volatile().Read(oid); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("volatile after restart = %v, want ErrNotFound", err)
	}
	if nd.Runtime() == rtBefore {
		t.Fatal("runtime must be fresh after restart (locks died with RAM)")
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
