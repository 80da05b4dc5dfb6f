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
// so its background retry loop keeps re-asking for the decision. If the
// stable store then hiccups briefly (crashes and recovers while the node
// itself stays up), one recovery pass errors — and before the fix that
// error ended the retry loop, leaving the record in doubt forever even
// after the coordinator came back. The loop must instead keep asking, and
// the account the record writes must come back once the decision
// resolves; the store's own recovery must not lift the fence meanwhile.
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

	// The store blip: the stable store alone crashes for a few retry
	// ticks and recovers. Recovery passes fail during the window; the
	// loop must survive it.
	c.nodes[1].Stable().Crash()
	time.Sleep(80 * time.Millisecond) // >= 3 retry ticks hit the crashed store
	if err := c.nodes[1].Stable().Recover(); err != nil {
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
