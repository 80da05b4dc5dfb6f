package dist_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/dist"
	"mca/internal/ids"
	"mca/internal/lock"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/object"
	"mca/internal/rpc"
)

// slotsResource hosts a small array of independently lockable integer
// slots and supports retaining individual slots for the next glued
// stage ("hold"), via the manager's pass colour.
type slotsResource struct {
	mgr *dist.Manager

	mu    sync.Mutex
	nd    *node.Node
	slots []*object.Managed[int]
}

func newSlotsResource(n int) *slotsResource {
	return &slotsResource{slots: make([]*object.Managed[int], n)}
}

func (s *slotsResource) Register(nd *node.Node, _ *rpc.Peer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nd = nd
	for i := range s.slots {
		if s.slots[i] == nil {
			s.slots[i] = object.New(0)
		}
	}
}

func (s *slotsResource) Recover(context.Context, *node.Node) {}

func (s *slotsResource) slot(i int) (*object.Managed[int], error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.slots) {
		return nil, fmt.Errorf("slot %d out of range", i)
	}
	return s.slots[i], nil
}

type slotArg struct {
	Slot  int `json:"slot"`
	Value int `json:"value"`
}

func (s *slotsResource) Invoke(a *action.Action, op string, arg []byte) ([]byte, error) {
	var in slotArg
	if err := json.Unmarshal(arg, &in); err != nil {
		return nil, err
	}
	m, err := s.slot(in.Slot)
	if err != nil {
		return nil, err
	}
	switch op {
	case "set":
		if err := m.Write(a, func(v *int) error { *v = in.Value; return nil }); err != nil {
			return nil, err
		}
		return []byte("{}"), nil
	case "hold":
		// Retain the slot for the next stage of the glued chain.
		pass, ok := s.mgr.PassColour(a)
		if !ok {
			return nil, errors.New("hold outside a structured transaction")
		}
		if err := a.Lock(m.ObjectID(), lock.ExclusiveRead, pass); err != nil {
			return nil, err
		}
		return []byte("{}"), nil
	default:
		return nil, errors.New("unknown op " + op)
	}
}

type chainFixture struct {
	net   *netsim.Network
	coord *dist.Manager
	nd    *node.Node
	res   *slotsResource
}

func newChainFixture(t *testing.T) *chainFixture {
	t.Helper()
	nw := netsim.New(netsim.Config{})
	t.Cleanup(nw.Close)
	opts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 300 * time.Millisecond}

	coordNode, err := node.New(nw, node.WithRPCOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coordNode.Stop)
	coord := dist.NewManager(coordNode)

	nd, err := node.New(nw, node.WithRPCOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Stop)
	mgr := dist.NewManager(nd)
	res := newSlotsResource(3)
	res.mgr = mgr
	nd.Host(res)
	mgr.RegisterResource("slots", res)

	return &chainFixture{net: nw, coord: coord, nd: nd, res: res}
}

// outsiderCanWrite probes whether an unrelated transaction can write
// the slot.
func (f *chainFixture) outsiderCanWrite(ctx context.Context, slot int) bool {
	err := f.coord.Run(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, f.nd.ID(), "slots", "set", slotArg{Slot: slot, Value: 99}, nil)
	})
	return err == nil
}

func TestRemoteChainPassesExactlyTheHeldSubset(t *testing.T) {
	f := newChainFixture(t)
	ctx := context.Background()

	chain := f.coord.BeginRemoteChain()

	// Stage A writes slots 0 and 1, holds only slot 0.
	err := chain.RunStage(ctx, func(txn *dist.Txn) error {
		for i := 0; i < 2; i++ {
			if err := txn.Invoke(ctx, f.nd.ID(), "slots", "set", slotArg{Slot: i, Value: 1}, nil); err != nil {
				return err
			}
		}
		return txn.Invoke(ctx, f.nd.ID(), "slots", "hold", slotArg{Slot: 0}, nil)
	})
	if err != nil {
		t.Fatalf("stage A: %v", err)
	}

	// Slot 1 free, slot 0 protected.
	if !f.outsiderCanWrite(ctx, 1) {
		t.Fatal("unheld slot must be free after stage A commits")
	}
	if f.outsiderCanWrite(ctx, 0) {
		t.Fatal("held slot must stay locked for stage B")
	}

	// Stage B writes the passed slot.
	err = chain.RunStage(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, f.nd.ID(), "slots", "set", slotArg{Slot: 0, Value: 2}, nil)
	})
	if err != nil {
		t.Fatalf("stage B over passed lock: %v", err)
	}
	if err := chain.End(ctx); err != nil {
		t.Fatal(err)
	}

	if !f.outsiderCanWrite(ctx, 0) {
		t.Fatal("slot must be free after the chain ends")
	}
	m, _ := f.res.slot(0)
	if got := m.Peek(); got != 99 { // the outsider's write above
		t.Fatalf("slot 0 = %d", got)
	}
}

func TestRemoteChainNarrowsAcrossRounds(t *testing.T) {
	// A holds 0,1,2; B holds only 0; once B commits the joint for
	// (A,B) ends and slots 1,2 free while 0 stays held for C.
	f := newChainFixture(t)
	ctx := context.Background()

	chain := f.coord.BeginRemoteChain()
	err := chain.RunStage(ctx, func(txn *dist.Txn) error {
		for i := 0; i < 3; i++ {
			if err := txn.Invoke(ctx, f.nd.ID(), "slots", "hold", slotArg{Slot: i}, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.outsiderCanWrite(ctx, 1) {
		t.Fatal("slot 1 must be held after round 1")
	}

	err = chain.RunStage(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, f.nd.ID(), "slots", "hold", slotArg{Slot: 0}, nil)
	})
	if err != nil {
		t.Fatal(err)
	}

	if !f.outsiderCanWrite(ctx, 1) {
		t.Fatal("slot 1 (dropped in round 2) must be free")
	}
	if !f.outsiderCanWrite(ctx, 2) {
		t.Fatal("slot 2 (dropped in round 2) must be free")
	}
	if f.outsiderCanWrite(ctx, 0) {
		t.Fatal("slot 0 must still be held for round 3")
	}

	if err := chain.End(ctx); err != nil {
		t.Fatal(err)
	}
	if !f.outsiderCanWrite(ctx, 0) {
		t.Fatal("slot 0 must be free after End")
	}
}

func TestRemoteChainFailedStageKeepsPreviousJoint(t *testing.T) {
	f := newChainFixture(t)
	ctx := context.Background()

	chain := f.coord.BeginRemoteChain()
	if err := chain.RunStage(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, f.nd.ID(), "slots", "hold", slotArg{Slot: 0}, nil)
	}); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	if err := chain.RunStage(ctx, func(*dist.Txn) error { return boom }); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	// Still held for the retry.
	if f.outsiderCanWrite(ctx, 0) {
		t.Fatal("held slot released by a failed stage")
	}
	// Retry consumes it.
	if err := chain.RunStage(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, f.nd.ID(), "slots", "set", slotArg{Slot: 0, Value: 7}, nil)
	}); err != nil {
		t.Fatalf("retry stage: %v", err)
	}
	if err := chain.End(ctx); err != nil {
		t.Fatal(err)
	}
	m, _ := f.res.slot(0)
	if got := m.Peek(); got != 7 {
		t.Fatalf("slot 0 = %d", got)
	}
}

func TestRemoteChainStageEffectsSurviveLaterFailureAndCancel(t *testing.T) {
	f := newChainFixture(t)
	ctx := context.Background()

	chain := f.coord.BeginRemoteChain()
	if err := chain.RunStage(ctx, func(txn *dist.Txn) error {
		if err := txn.Invoke(ctx, f.nd.ID(), "slots", "set", slotArg{Slot: 2, Value: 42}, nil); err != nil {
			return err
		}
		return txn.Invoke(ctx, f.nd.ID(), "slots", "hold", slotArg{Slot: 2}, nil)
	}); err != nil {
		t.Fatal(err)
	}
	// Stage B modifies and fails: its own write is undone, A's stays.
	boom := errors.New("boom")
	err := chain.RunStage(ctx, func(txn *dist.Txn) error {
		if err := txn.Invoke(ctx, f.nd.ID(), "slots", "set", slotArg{Slot: 2, Value: 0}, nil); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if err := chain.Cancel(ctx); err != nil {
		t.Fatal(err)
	}
	m, _ := f.res.slot(2)
	if got := m.Peek(); got != 42 {
		t.Fatalf("slot 2 = %d, want A's committed 42", got)
	}
	if !f.outsiderCanWrite(ctx, 2) {
		t.Fatal("slot must be free after Cancel")
	}
}

func TestRemoteChainLifecycle(t *testing.T) {
	f := newChainFixture(t)
	ctx := context.Background()

	chain := f.coord.BeginRemoteChain()
	if got := chain.Stages(); got != 0 {
		t.Fatalf("Stages = %d", got)
	}
	if err := chain.RunStage(ctx, func(txn *dist.Txn) error {
		if txn.PassColour() == 0 {
			t.Error("stage txn must expose its pass colour")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := chain.Stages(); got != 1 {
		t.Fatalf("Stages = %d", got)
	}
	if err := chain.End(ctx); err != nil {
		t.Fatal(err)
	}
	if err := chain.End(ctx); !errors.Is(err, dist.ErrStructureEnded) {
		t.Fatalf("double End = %v", err)
	}
	err := chain.RunStage(ctx, func(*dist.Txn) error { return nil })
	if !errors.Is(err, dist.ErrStructureEnded) {
		t.Fatalf("RunStage after End = %v", err)
	}
}

func TestPlainTxnHasNoPassColour(t *testing.T) {
	f := newChainFixture(t)
	txn, err := f.coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if txn.PassColour() != 0 {
		t.Fatal("plain transactions have no pass colour")
	}
	_ = txn.Abort(context.Background())
	_ = ids.NodeID(0)
}
