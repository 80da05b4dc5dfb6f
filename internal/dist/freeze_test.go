package dist

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/ids"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/object"
	"mca/internal/rpc"
)

// freezeFixture is a minimal internal-package fixture: a coordinator and
// one participant hosting a single integer register, with direct access
// to the participant manager's RPC handlers so tests can deliver the
// late, re-ordered messages the transport layer would normally carry.
type freezeFixture struct {
	coord, part *Manager
	coordNode   *node.Node
	partNode    *node.Node
	regID       ids.ObjectID
	reg         *object.Managed[int]
}

func newFreezeFixture(t *testing.T) *freezeFixture {
	t.Helper()
	nw := netsim.New(netsim.Config{})
	t.Cleanup(nw.Close)
	opts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 300 * time.Millisecond}

	cn, err := node.New(nw, node.WithRPCOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cn.Stop)
	pn, err := node.New(nw, node.WithRPCOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pn.Stop)

	f := &freezeFixture{
		coord:     NewManager(cn),
		part:      NewManager(pn),
		coordNode: cn,
		partNode:  pn,
		regID:     ids.NewObjectID(),
	}
	f.reg = object.New(0, object.WithStore(pn.Stable()), object.WithID(f.regID))
	f.part.RegisterResource("reg", ResourceFunc(func(a *action.Action, op string, arg []byte) ([]byte, error) {
		var in struct {
			Delta int `json:"delta"`
		}
		if err := json.Unmarshal(arg, &in); err != nil {
			return nil, err
		}
		if err := f.reg.Write(a, func(v *int) error { *v += in.Delta; return nil }); err != nil {
			return nil, err
		}
		return []byte("{}"), nil
	}))
	return f
}

// invokeDirect delivers an invoke to the participant's handler as the
// transport would, bypassing the coordinator's Txn bookkeeping — the
// shape of a delayed or retransmitted message arriving out of order.
func (f *freezeFixture) invokeDirect(txn ids.ActionID, delta int) error {
	body := appendInvokeReq(nil, &invokeReq{
		Txn:      txn,
		Resource: "reg",
		Op:       "add",
		Arg:      []byte(`{"delta":` + jsonInt(delta) + `}`),
	})
	_, err := f.part.cur.Load().handleInvoke(context.Background(), f.coordNode.ID(), body)
	return err
}

func jsonInt(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestPrepareFreezesParticipant drives the participant handlers directly:
// once a node votes yes its write set is frozen — late invokes are
// rejected, and a duplicate prepare re-derives the same yes vote from the
// log instead of re-logging.
func TestPrepareFreezesParticipant(t *testing.T) {
	f := newFreezeFixture(t)
	txn := ids.NewActionID()

	if err := f.invokeDirect(txn, 5); err != nil {
		t.Fatalf("invoke: %v", err)
	}

	prepare := appendPrepareReq(nil, prepareReq{Txn: txn, Coordinator: f.coordNode.ID()})
	vote := func() voteResp {
		t.Helper()
		raw, err := f.part.cur.Load().handlePrepare(context.Background(), f.coordNode.ID(), prepare)
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		v, err := decodeVote(raw)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	if v := vote(); !v.OK {
		t.Fatal("first prepare must vote yes")
	}
	if err := f.invokeDirect(txn, 100); !errors.Is(err, ErrPrepared) {
		t.Fatalf("late invoke after prepare = %v, want ErrPrepared", err)
	}
	// A duplicate prepare (retransmission) re-derives yes from the log.
	if v := vote(); !v.OK {
		t.Fatal("duplicate prepare must re-derive the yes vote")
	}

	if _, err := f.part.cur.Load().handleEnd(context.Background(), f.coordNode.ID(), appendEndReq(nil, &endReq{Commit: txnList{}.add(txn)})); err != nil {
		t.Fatalf("commit: %v", err)
	}
	m, err := object.Load[int](f.regID, f.partNode.Stable())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(); got != 5 {
		t.Fatalf("committed value = %d, want 5 (the frozen write set)", got)
	}
}

// TestLateInvokeCannotDivergeFromLoggedWrites is the satellite-bug
// regression in its end-to-end form: before the fix, an invoke landing
// between the participant's yes vote and the coordinator's phase-2
// commit joined the still-Active action, so the live-commit path applied
// a write the logged (frozen) write set did not contain — a crashed
// participant replaying the log would then disagree with one that
// stayed up. The late invoke must be rejected and the committed state
// must equal the logged write set exactly.
func TestLateInvokeCannotDivergeFromLoggedWrites(t *testing.T) {
	f := newFreezeFixture(t)
	ctx := context.Background()

	txn, err := f.coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Invoke(ctx, f.partNode.ID(), "reg", "add", map[string]int{"delta": 5}, nil); err != nil {
		t.Fatal(err)
	}
	// A write at the coordinator too, so that the transaction has a
	// prepare/commit window at all: with the one remote writer alone it
	// would commit in one step.
	local := object.New(0, object.WithStore(f.coordNode.Stable()))
	if err := local.Write(txn.Action(), func(v *int) error { *v = 1; return nil }); err != nil {
		t.Fatal(err)
	}

	var lateErr error
	f.coord.TestHooks = Hooks{AfterPrepare: func() {
		// The participant has voted yes; the decision is not yet made.
		lateErr = f.invokeDirect(txn.ID(), 100)
	}}
	if err := txn.Commit(ctx); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if !errors.Is(lateErr, ErrPrepared) {
		t.Fatalf("late invoke in the prepare/commit window = %v, want ErrPrepared", lateErr)
	}

	// The live-commit result must equal the logged write set: +5, not
	// +105 — once phase 2 has reached the participant.
	var m *object.Managed[int]
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if m, err = object.Load[int](f.regID, f.partNode.Stable()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("phase 2 never installed the write set: %v", err)
		}
	}
	if got := m.Peek(); got != 5 {
		t.Fatalf("committed value = %d, want 5: live commit diverged from the logged write set", got)
	}
}
