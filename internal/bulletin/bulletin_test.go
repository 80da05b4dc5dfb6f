package bulletin_test

import (
	"errors"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/bulletin"
	"mca/internal/colour"
	"mca/internal/lock"
	"mca/internal/object"
	"mca/internal/store"
)

func TestPostSurvivesInvokerAbort(t *testing.T) {
	rt := action.NewRuntime()
	st := store.NewStable()
	board := bulletin.New(rt, object.WithStore(st))

	invoker, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	id, err := board.Post(invoker, "ada", "for sale", "one abacus")
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	if err := invoker.Abort(); err != nil {
		t.Fatal(err)
	}

	postings, err := board.RetrieveAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(postings) != 1 || postings[0].ID != id || postings[0].Withdrawn {
		t.Fatalf("postings = %+v", postings)
	}
	// And it is stable.
	if _, err := st.Read(board.Object().ObjectID()); err != nil {
		t.Fatalf("board not persisted: %v", err)
	}
}

func TestPostDoesNotStayLockedByInvoker(t *testing.T) {
	// The motivation for independent actions: bulletin information
	// must not remain inaccessible while the application runs.
	rt := action.NewRuntime()
	board := bulletin.New(rt)

	invoker, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := board.Post(invoker, "bob", "s", "b"); err != nil {
		t.Fatal(err)
	}

	// A second, unrelated application can read and post while the
	// first is still active.
	other, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got, err := board.Retrieve(other)
	if err != nil {
		t.Fatalf("Retrieve while invoker active: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("postings = %+v", got)
	}
	if _, err := board.Post(other, "carol", "s2", "b2"); err != nil {
		t.Fatalf("Post while invoker active: %v", err)
	}
	_ = invoker.Abort()
	_ = other.Abort()
}

func TestNestedPostingWouldStayLocked(t *testing.T) {
	// Contrast: a posting nested inside the application action keeps
	// the board locked until the application ends. Bound lock waits
	// so the blocked reader times out instead of hanging.
	rt := action.NewRuntime(action.WithMaxLockWait(30 * time.Millisecond))
	board := bulletin.New(rt)

	invoker, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// A nested (non-independent) board operation holds the board's
	// write lock until the application completes.
	if err := invoker.Lock(board.Object().ObjectID(), lock.Write, colour.None); err != nil {
		t.Fatal(err)
	}

	other, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := board.Retrieve(other); err == nil {
		t.Fatal("board must be locked by the nesting application")
	}
	_ = other.Abort()
	_ = invoker.Abort()
}

func TestPostCompensatedWithdrawsOnAbort(t *testing.T) {
	rt := action.NewRuntime()
	board := bulletin.New(rt)

	invoker, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	id, err := board.PostCompensated(invoker, "ada", "tentative", "might retract")
	if err != nil {
		t.Fatal(err)
	}
	if err := invoker.Abort(); err != nil {
		t.Fatal(err)
	}

	all, err := board.RetrieveAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].ID != id {
		t.Fatalf("postings = %+v", all)
	}
	if !all[0].Withdrawn {
		t.Fatal("compensation must have withdrawn the posting")
	}

	// Visible view hides it.
	reader, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	visible, err := board.Retrieve(reader)
	if err != nil {
		t.Fatal(err)
	}
	if len(visible) != 0 {
		t.Fatalf("visible postings = %+v", visible)
	}
	_ = reader.Abort()
}

func TestPostCompensatedKeptOnCommit(t *testing.T) {
	rt := action.NewRuntime()
	board := bulletin.New(rt)

	invoker, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := board.PostCompensated(invoker, "ada", "final", "stays"); err != nil {
		t.Fatal(err)
	}
	if err := invoker.Commit(); err != nil {
		t.Fatal(err)
	}
	all, err := board.RetrieveAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].Withdrawn {
		t.Fatalf("postings = %+v", all)
	}
}

func TestPostAsync(t *testing.T) {
	rt := action.NewRuntime()
	board := bulletin.New(rt)

	invoker, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	h, err := board.PostAsync(invoker, "eve", "async", "posted in background")
	if err != nil {
		t.Fatal(err)
	}
	if err := invoker.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
		if err := h.Wait(); err != nil {
			t.Fatalf("async post: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("async post never completed")
	}
	all, err := board.RetrieveAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("postings = %+v", all)
	}
}

func TestWithdrawUnknown(t *testing.T) {
	rt := action.NewRuntime()
	board := bulletin.New(rt)
	invoker, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := board.Withdraw(invoker, 42); !errors.Is(err, bulletin.ErrNotFound) {
		t.Fatalf("Withdraw = %v, want ErrNotFound", err)
	}
	_ = invoker.Abort()
}

func TestPostIDsAreSequential(t *testing.T) {
	rt := action.NewRuntime()
	board := bulletin.New(rt)
	invoker, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for want := 1; want <= 3; want++ {
		id, err := board.Post(invoker, "a", "s", "b")
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Fatalf("id = %d, want %d", id, want)
		}
	}
	_ = invoker.Abort()
}

func TestBoardReloadsFromStableStore(t *testing.T) {
	rt := action.NewRuntime()
	st := store.NewStable()
	board := bulletin.New(rt, object.WithStore(st))

	invoker, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	id, err := board.Post(invoker, "ada", "durable", "survives crashes")
	if err != nil {
		t.Fatal(err)
	}
	_ = invoker.Commit()

	st.Crash()
	st, err = st.Restart()
	if err != nil {
		t.Fatal(err)
	}

	// A fresh board instance activated from the store sees the post.
	reloaded, err := object.Load[struct {
		NextID   int                `json:"nextId"`
		Postings []bulletin.Posting `json:"postings"`
	}](board.Object().ObjectID(), st)
	if err != nil {
		t.Fatal(err)
	}
	state := reloaded.Peek()
	if len(state.Postings) != 1 || state.Postings[0].ID != id {
		t.Fatalf("recovered board = %+v", state)
	}
	if state.NextID != id+1 {
		t.Fatalf("NextID = %d", state.NextID)
	}
}
