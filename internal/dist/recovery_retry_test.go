package dist_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"mca/internal/dist"
	"mca/internal/netsim"
	"mca/internal/store"
)

// TestRecoveryRetriesThroughStoreBlip is the regression for the stranded
// recovery loop: a participant restarts while its coordinator is down,
// so its background retry loop keeps re-asking for the decision. A blip
// of its stable store — a crash of the node's incarnation, since the
// store handle dies with it — ends that loop with the incarnation, and
// the next incarnation's recovery must take over: the fence stays across
// the blip, and the account the record writes comes back once the
// coordinator returns and the decision resolves.
func TestRecoveryRetriesThroughStoreBlip(t *testing.T) {
	c := newCluster(t, netsim.Config{})
	ctx := context.Background()

	// Leave the participants holding prepared records with no decision:
	// the coordinator's node dies right after the votes, so neither the
	// decision force nor the abort round happens.
	c.coord.TestHooks = dist.Hooks{AfterPrepare: func() { c.nodes[0].Crash() }}
	err := transfer(ctx, c, 1, 2, 10)
	if err == nil {
		t.Fatal("transfer must fail when the coordinator dies mid-commit")
	}
	c.coord.TestHooks = dist.Hooks{}

	// The participant restarts in doubt; the coordinator is down, so its
	// recovery pass leaves the record in doubt and the background retry
	// loop takes over.
	c.nodes[1].Crash()
	c.nodes[1].Restart()
	if _, err := readAt(ctx, c.parts[0], c.nodes[1].ID()); !errors.Is(err, store.ErrUnresolved) {
		t.Fatalf("read while in doubt = %v, want %v", err, store.ErrUnresolved)
	}

	// The store blip: the participant is down for a few retry ticks and
	// comes back as its next incarnation, still in doubt.
	c.nodes[1].Crash()
	time.Sleep(80 * time.Millisecond) // >= 3 retry ticks
	if err := c.nodes[1].Restart(); err != nil {
		t.Fatal(err)
	}
	if _, err := readAt(ctx, c.parts[0], c.nodes[1].ID()); !errors.Is(err, store.ErrUnresolved) {
		t.Fatalf("read after the store's recovery = %v, want %v", err, store.ErrUnresolved)
	}

	// The coordinator returns with no decision record: presumed abort
	// resolves the participant's doubt on its next successful retry.
	c.nodes[0].Restart()

	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := readAt(ctx, c.parts[0], c.nodes[1].ID())
		if err == nil {
			// Presumed abort: the half-done transfer left no trace.
			if got != 100 {
				t.Fatalf("P1 balance = %d, want 100 (aborted)", got)
			}
			return
		}
		if !errors.Is(err, store.ErrUnresolved) {
			t.Fatalf("read = %v, want nil or %v", err, store.ErrUnresolved)
		}
		if time.Now().After(deadline) {
			t.Fatal("the record stayed in doubt: the retry loop died on the store blip")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
