package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"mca/internal/action"
	"mca/internal/object"
)

// decisionAsked is what the coordinator answers a participant of txn that
// asks for the decision: "committed", "aborted", or the error's text.
func (f *allocFixture) decisionAsked(t *testing.T, txn *Txn) string {
	t.Helper()
	var scratch [bodyScratch]byte
	body, err := f.coord.cur.Load().handleDecision(context.Background(), f.nodes[1].ID(), appendTxnReq(scratch[:0], txn.ID()))
	switch {
	case err != nil:
		return err.Error()
	case bytes.Equal(body, committedBody):
		return "committed"
	case bytes.Equal(body, abortedBody):
		return "aborted"
	}
	t.Fatalf("decision body %x", body)
	return ""
}

// TestRemoteOnlyTxnOwnsNoActionAtItsCoordinator: a transfer between two
// participants begins, registers and commits no action at its
// coordinator, from Begin to Commit. The decision table answers for it
// instead: a participant asking before the decision is forced is told it
// is not taken yet, and after Commit that it committed.
func TestRemoteOnlyTxnOwnsNoActionAtItsCoordinator(t *testing.T) {
	f := newAllocFixture(t)
	ctx := context.Background()
	rt := f.nodes[0].Runtime()
	txn, err := f.coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	none := func(when string) {
		t.Helper()
		if n := rt.ActiveActions(); n != 0 {
			t.Fatalf("%d actions active at the coordinator %s, want none", n, when)
		}
	}
	undecided := func(when string) {
		t.Helper()
		if got := f.decisionAsked(t, txn); !strings.Contains(got, "not taken yet") {
			t.Fatalf("the decision asked for %s: %q, want not taken yet", when, got)
		}
	}
	none("after Begin")
	undecided("after Begin")
	for i, d := range []int{-1, 1} {
		if err := txn.Invoke(ctx, f.nodes[1+i].ID(), "reg", "add", regArg{D: d}, nil); err != nil {
			t.Fatal(err)
		}
		none("after an invoke")
	}
	f.coord.TestHooks = Hooks{AfterPrepare: func() {
		none("before the decision")
		undecided("before the decision is forced")
	}}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	none("after Commit")
	if got := f.decisionAsked(t, txn); got != "committed" {
		t.Fatalf("the decision asked for after Commit: %q, want committed", got)
	}
	if a := txn.Action(); a != nil {
		t.Fatalf("Action after a Commit without one = %v, want nil", a.ID())
	}
	none("after Action on an ended transaction")

	aborted, err := f.coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := aborted.Invoke(ctx, f.nodes[1].ID(), "reg", "add", regArg{D: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := aborted.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	none("after Abort")
	if got := f.decisionAsked(t, aborted); got != "aborted" {
		t.Fatalf("the decision asked for after Abort: %q, want aborted", got)
	}
}

// TestLocalActionEndsWithItsTxn: a transaction that invokes a resource at
// its coordinator, or calls Action, owns one coordinator-local action,
// which commits with its Commit and aborts with its Abort.
func TestLocalActionEndsWithItsTxn(t *testing.T) {
	f := newAllocFixture(t)
	ctx := context.Background()
	rt := f.nodes[0].Runtime()
	reg := object.New(0, object.WithStore(f.nodes[0].Stable()))
	f.coord.RegisterResource("local", ResourceFunc(func(a *action.Action, _ string, arg []byte) ([]byte, error) {
		var in regArg
		if err := json.Unmarshal(arg, &in); err != nil {
			return nil, err
		}
		return nil, reg.Write(a, func(v *int) error { *v += in.D; return nil })
	}))
	self := f.nodes[0].ID()

	for _, tc := range []struct {
		name   string
		commit bool
	}{{"commit", true}, {"abort", false}} {
		t.Run(tc.name, func(t *testing.T) {
			txn, err := f.coord.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := txn.Invoke(ctx, self, "local", "add", regArg{D: 2}, nil); err != nil {
				t.Fatal(err)
			}
			a := txn.Action()
			if a == nil || a.Status() != action.Active || rt.ActiveActions() != 1 {
				t.Fatalf("after a local invoke: Action %v, %d active, want the one action active", a, rt.ActiveActions())
			}
			if err := reg.Write(a, func(v *int) error { *v += 3; return nil }); err != nil {
				t.Fatal(err)
			}
			if err := txn.Invoke(ctx, f.nodes[1].ID(), "reg", "add", regArg{D: 1}, nil); err != nil {
				t.Fatal(err)
			}
			want := action.Committed
			if tc.commit {
				err = txn.Commit(ctx)
			} else {
				err, want = txn.Abort(ctx), action.Aborted
			}
			if err != nil {
				t.Fatal(err)
			}
			if a.Status() != want || rt.ActiveActions() != 0 || txn.Action() != a {
				t.Fatalf("the local action is %v with %d active after the transaction ended, want %v and none", a.Status(), rt.ActiveActions(), want)
			}
		})
	}
	if got := reg.Peek(); got != 5 {
		t.Fatalf("the local register reads %d, want the committed transaction's 5", got)
	}

	// Action alone begins it too, and an abort undoes what was done in it.
	txn, err := f.coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	a := txn.Action()
	if a == nil || txn.Action() != a {
		t.Fatal("Action must return one action for the transaction")
	}
	if err := reg.Write(a, func(v *int) error { *v = 100; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if a.Status() != action.Aborted || reg.Peek() != 5 || rt.ActiveActions() != 0 {
		t.Fatalf("after Abort: action %v, register %d, %d active; want aborted, 5, none", a.Status(), reg.Peek(), rt.ActiveActions())
	}
}
