package action_test

import (
	"errors"
	"testing"

	"mca/internal/action"
	"mca/internal/colour"
	"mca/internal/store"
)

// These tests pin down the all-or-nothing property of a top-level
// commit's permanence flush across node crashes, end to end through the
// store's batch: a crash before the batch is durable loses the whole
// write set (the action is effectively aborted); a crash after it yields
// the whole write set on recovery (effectively committed). Either way the
// stable state is never a partial mixture.
//
// Stable.Crash models a node crash: in-memory objects die with it and
// are re-activated from the store afterwards, which is how the runtime
// is used by internal/node.

func crashCommitFixture(t *testing.T, point store.CrashPoint) (st *store.Stable, regs []*reg) {
	t.Helper()
	rt := action.NewRuntime()
	st = store.NewStable()
	regs = []*reg{newReg("a0", st), newReg("b0", st), newReg("c0", st)}

	// Install a committed baseline.
	a, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		r.write(t, a, colour.None, r.get()+"-base")
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}

	// Second action crashes while flushing.
	b, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		r.write(t, b, colour.None, "NEW")
	}
	st.CrashDuringNextBatch(point)
	if err := b.Commit(); !errors.Is(err, action.ErrPermanence) {
		t.Fatalf("Commit during crash = %v, want ErrPermanence", err)
	}
	return st, regs
}

func TestCrashBeforeJournalLosesWholeWriteSet(t *testing.T) {
	st, regs := crashCommitFixture(t, store.CrashBeforeForce)
	st, err := st.Restart()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		got, err := st.Read(r.id)
		if err != nil {
			t.Fatalf("read %v: %v", r.id, err)
		}
		if string(got) != r.get() {
			t.Fatalf("stable state %q, want restored baseline %q", got, r.get())
		}
	}
}

func TestCrashAfterJournalYieldsWholeWriteSetOnRecovery(t *testing.T) {
	st, regs := crashCommitFixture(t, store.CrashAfterForce)
	st, err := st.Restart()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		got, err := st.Read(r.id)
		if err != nil {
			t.Fatalf("read %v: %v", r.id, err)
		}
		if string(got) != "NEW" {
			t.Fatalf("stable state = %q, want the full write set after recovery", got)
		}
	}
}

func TestColouredFlushAtomicPerColour(t *testing.T) {
	// Fig 10 pattern with a crash at the red flush: the red write set
	// is all-or-nothing independent of blue.
	rt := action.NewRuntime()
	st := store.NewStable()
	red, blue := colour.Fresh(), colour.Fresh()
	r1 := newReg("r1", st)
	r2 := newReg("r2", st)

	a, err := rt.Begin(action.WithColours(blue))
	if err != nil {
		t.Fatal(err)
	}
	b, err := a.Begin(action.WithColours(red, blue))
	if err != nil {
		t.Fatal(err)
	}
	r1.write(t, b, red, "R1")
	r2.write(t, b, red, "R2")

	st.CrashDuringNextBatch(store.CrashAfterForce)
	if err := b.Commit(); !errors.Is(err, action.ErrPermanence) {
		t.Fatalf("Commit = %v, want ErrPermanence", err)
	}
	_ = a.Abort()

	st, err = st.Restart()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*reg{r1, r2} {
		got, err := st.Read(r.id)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if string(got) != "R1" && string(got) != "R2" {
			t.Fatalf("red flush incomplete after recovery: %q", got)
		}
	}
}
