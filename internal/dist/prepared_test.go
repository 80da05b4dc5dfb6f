package dist

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/colour"
	"mca/internal/ids"
	"mca/internal/lock"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/rpc"
	"mca/internal/store"
)

// countedCell is a persistent integer, and a resource whose every
// operation adds one to it, that counts how often its state is captured.
type countedCell struct {
	id       ids.ObjectID
	st       *store.Stable
	captures atomic.Int64

	mu  sync.Mutex
	val int
}

func (c *countedCell) ObjectID() ids.ObjectID      { return c.id }
func (c *countedCell) Persister() action.Persister { return c.st }

func (c *countedCell) CaptureState() (store.State, error) {
	c.captures.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	return store.State(strconv.Itoa(c.val)), nil
}

// cellImage is a countedCell's before-image.
type cellImage struct {
	c   *countedCell
	val int
}

func (im cellImage) Restore() error {
	im.c.mu.Lock()
	defer im.c.mu.Unlock()
	im.c.val = im.val
	return nil
}

func (c *countedCell) Invoke(a *action.Action, _ string, _ []byte) ([]byte, error) {
	err := a.Step(c, lock.Write, colour.None, func(first bool) (action.Image, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		var im action.Image
		if first {
			im = cellImage{c: c, val: c.val}
		}
		c.val++
		return im, nil
	})
	if err != nil {
		return nil, err
	}
	return []byte("{}"), nil
}

// cellCluster is a coordinator and one participant per cell, each hosting
// its cell as resource "cell", on a fault-free simulated LAN.
func cellCluster(t *testing.T, cells int, opts rpc.Options) (*Manager, []*node.Node, []*countedCell) {
	t.Helper()
	nw := netsim.New(netsim.Config{})
	t.Cleanup(nw.Close)
	newNode := func() *node.Node {
		nd, err := node.New(nw, node.WithRPCOptions(opts))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		return nd
	}
	coord := NewManager(newNode())
	nodes := make([]*node.Node, cells)
	cs := make([]*countedCell, cells)
	for i := range cs {
		nodes[i] = newNode()
		cs[i] = &countedCell{id: ids.NewObjectID(), st: nodes[i].Stable()}
		NewManager(nodes[i]).RegisterResource("cell", cs[i])
	}
	return coord, nodes, cs
}

// TestPlainTransferCapturesEachWriteSetOnce: a participant of a plain
// two-site transaction captures its write set once, at prepare, and its
// phase-2 commit installs the batch the prepared record holds.
func TestPlainTransferCapturesEachWriteSetOnce(t *testing.T) {
	coord, nodes, cells := cellCluster(t, 2, rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 2 * time.Second})
	ctx := context.Background()
	if err := coord.Run(ctx, func(txn *Txn) error {
		for _, nd := range nodes {
			if err := txn.Invoke(ctx, nd.ID(), "cell", "add", nil, nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		// Phase 2 reaches the participant after Commit returned.
		eventually(t, "the commit installed at participant "+strconv.Itoa(i), func() bool {
			st, err := c.st.Read(c.id)
			return err == nil && string(st) == "1"
		})
		if n := c.captures.Load(); n != 1 {
			t.Errorf("participant %d captured its state %d times, want once", i, n)
		}
	}
}

// TestOnePhaseWriterCommitWaitIsBounded: a single-participant writer —
// once committed in one phase, with a bounded wait for its participant's
// answer — now votes in its invoke reply, so a participant that crashed
// since costs Commit no wait at all: it forces the decision and returns.
// The participant, restarted, learns the commit from recovery.
func TestOnePhaseWriterCommitWaitIsBounded(t *testing.T) {
	const callTimeout = 100 * time.Millisecond
	coord, nodes, cells := cellCluster(t, 1, rpc.Options{RetryInterval: 10 * time.Millisecond, CallTimeout: callTimeout})
	ctx := context.Background()
	txn, err := coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Invoke(ctx, nodes[0].ID(), "cell", "add", nil, nil); err != nil {
		t.Fatal(err)
	}
	nodes[0].Crash()
	start := time.Now()
	if err := txn.Commit(ctx); err != nil {
		t.Fatalf("Commit = %v, want committed: the participant voted before it crashed", err)
	}
	if took := time.Since(start); took >= callTimeout {
		t.Fatalf("Commit took %v with its participant down, a call timeout or more", took)
	}
	if err := nodes[0].Restart(); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the restarted participant to install the commit", func() bool {
		st, err := nodes[0].Stable().Read(cells[0].id)
		return err == nil && string(st) == "1"
	})
}
