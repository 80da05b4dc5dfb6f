package object_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/colour"
	"mca/internal/ids"
	"mca/internal/lock"
	"mca/internal/object"
	"mca/internal/store"
)

type account struct {
	Owner   string `json:"owner"`
	Balance int    `json:"balance"`
}

func mustBegin(t *testing.T, rt *action.Runtime, opts ...action.BeginOption) *action.Action {
	t.Helper()
	a, err := rt.Begin(opts...)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	return a
}

func TestReadWriteRoundTrip(t *testing.T) {
	rt := action.NewRuntime()
	acc := object.New(account{Owner: "ada", Balance: 100})

	err := rt.Run(func(a *action.Action) error {
		return acc.Write(a, func(v *account) error {
			v.Balance += 50
			return nil
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	err = rt.Run(func(a *action.Action) error {
		return acc.Read(a, func(v account) error {
			if v.Balance != 150 {
				t.Errorf("balance = %d, want 150", v.Balance)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestAbortRestoresValue(t *testing.T) {
	rt := action.NewRuntime()
	acc := object.New(account{Owner: "ada", Balance: 100})

	boom := errors.New("boom")
	err := rt.Run(func(a *action.Action) error {
		if err := acc.Write(a, func(v *account) error {
			v.Balance = 0
			return nil
		}); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v", err)
	}
	if got := acc.Peek().Balance; got != 100 {
		t.Fatalf("balance after abort = %d, want 100", got)
	}
}

func TestMultipleWritesOneBeforeImage(t *testing.T) {
	rt := action.NewRuntime()
	acc := object.New(account{Balance: 1})

	a := mustBegin(t, rt)
	for i := 0; i < 5; i++ {
		if err := acc.Write(a, func(v *account) error {
			v.Balance *= 2
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := acc.Peek().Balance; got != 1 {
		t.Fatalf("balance = %d, want 1 (restore to first before-image)", got)
	}
}

func TestPersistenceOnTopLevelCommit(t *testing.T) {
	rt := action.NewRuntime()
	st := store.NewStable()
	acc := object.New(account{Owner: "ada", Balance: 7}, object.WithStore(st))

	if err := rt.Run(func(a *action.Action) error {
		return acc.Write(a, func(v *account) error {
			v.Balance = 8
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}

	// Activate a second in-memory instance from the store.
	loaded, err := object.Load[account](acc.ObjectID(), st)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := loaded.Peek(); got.Balance != 8 || got.Owner != "ada" {
		t.Fatalf("loaded = %+v", got)
	}
}

func TestLoadMissingObject(t *testing.T) {
	st := store.NewStable()
	if _, err := object.Load[account](ids.NewObjectID(), st); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Load = %v, want ErrNotFound", err)
	}
}

func TestNewInUndoneByAbort(t *testing.T) {
	rt := action.NewRuntime()
	a := mustBegin(t, rt)

	m, err := object.NewIn(a, colour.None, account{Owner: "eve"})
	if err != nil {
		t.Fatalf("NewIn: %v", err)
	}
	if !m.Exists() {
		t.Fatal("object must exist inside the creating action")
	}
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	if m.Exists() {
		t.Fatal("creation must be undone by abort")
	}

	// Reading a non-existent object fails.
	b := mustBegin(t, rt)
	err = m.Read(b, func(account) error { return nil })
	if !errors.Is(err, object.ErrNotExists) {
		t.Fatalf("Read = %v, want ErrNotExists", err)
	}
	_ = b.Abort()
}

func TestNewInSurvivesCommit(t *testing.T) {
	rt := action.NewRuntime()
	st := store.NewStable()
	var oid ids.ObjectID

	if err := rt.Run(func(a *action.Action) error {
		m, err := object.NewIn(a, colour.None, account{Owner: "eve", Balance: 3}, object.WithStore(st))
		if err != nil {
			return err
		}
		oid = m.ObjectID()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	loaded, err := object.Load[account](oid, st)
	if err != nil {
		t.Fatalf("Load created object: %v", err)
	}
	if got := loaded.Peek(); got.Owner != "eve" || got.Balance != 3 {
		t.Fatalf("loaded = %+v", got)
	}
}

func TestDeleteInUndoneByAbort(t *testing.T) {
	rt := action.NewRuntime()
	m := object.New(account{Owner: "bob", Balance: 42})

	a := mustBegin(t, rt)
	if err := m.DeleteIn(a, colour.None); err != nil {
		t.Fatal(err)
	}
	if m.Exists() {
		t.Fatal("object must be gone inside the deleting action")
	}
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	if !m.Exists() {
		t.Fatal("delete must be undone by abort")
	}
	if got := m.Peek(); got.Balance != 42 {
		t.Fatalf("restored value = %+v", got)
	}
}

func TestDeleteAbsentFails(t *testing.T) {
	rt := action.NewRuntime()
	m := object.New(account{})
	a := mustBegin(t, rt)
	if err := m.DeleteIn(a, colour.None); err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteIn(a, colour.None); !errors.Is(err, object.ErrNotExists) {
		t.Fatalf("double delete = %v, want ErrNotExists", err)
	}
	_ = a.Abort()
}

// A Write or Delete that fails because the object does not exist must
// leave no recovery record: the action stays a reader (HasWrites decides
// one-phase commit and the read-only vote), and its commit must not
// persist an "absent" state for an object it never changed.
func TestFailedWriteRecordsNothing(t *testing.T) {
	rt := action.NewRuntime()
	st := store.NewStable()

	// Deleted by an earlier action, and never existing (creation undone).
	deleted := object.New(account{Balance: 1}, object.WithStore(st))
	if err := rt.Run(func(a *action.Action) error { return deleted.DeleteIn(a, colour.None) }); err != nil {
		t.Fatal(err)
	}
	creator := mustBegin(t, rt)
	never, err := object.NewIn(creator, colour.None, account{}, object.WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if err := creator.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Read(never.ObjectID()); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("store read of a never-created object = %v, want ErrNotFound", err)
	}

	for name, m := range map[string]*object.Managed[account]{"deleted": deleted, "never created": never} {
		a := mustBegin(t, rt)
		if err := m.Write(a, func(*account) error { t.Error("fn ran on an absent object"); return nil }); !errors.Is(err, object.ErrNotExists) {
			t.Fatalf("%s: Write = %v, want ErrNotExists", name, err)
		}
		if err := m.DeleteIn(a, colour.None); !errors.Is(err, object.ErrNotExists) {
			t.Fatalf("%s: DeleteIn = %v, want ErrNotExists", name, err)
		}
		if a.HasWrites() {
			t.Fatalf("%s: a failed write left a recovery record", name)
		}
		if err := a.Commit(); err != nil {
			t.Fatalf("%s: commit: %v", name, err)
		}
	}
	if _, err := st.Read(never.ObjectID()); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("a reader's commit persisted a state for the never-created object (Read err = %v)", err)
	}
}

func TestIsolationReadersExcludeWriter(t *testing.T) {
	rt := action.NewRuntime()
	m := object.New(account{Balance: 5})

	reader := mustBegin(t, rt)
	if err := m.Read(reader, func(account) error { return nil }); err != nil {
		t.Fatal(err)
	}

	writer := mustBegin(t, rt)
	err := writer.TryLock(m.ObjectID(), lock.Write, colour.None)
	if !errors.Is(err, lock.ErrConflict) {
		t.Fatalf("TryLock = %v, want ErrConflict", err)
	}
	_ = reader.Abort()
	_ = writer.Abort()
}

func TestRetainBlocksStrangers(t *testing.T) {
	rt := action.NewRuntime()
	m := object.New(account{Balance: 5})
	c := colour.Fresh()

	holder := mustBegin(t, rt, action.WithColours(c))
	if err := m.Retain(holder, c); err != nil {
		t.Fatalf("Retain: %v", err)
	}

	stranger := mustBegin(t, rt)
	if err := stranger.TryLock(m.ObjectID(), lock.Read, colour.None); !errors.Is(err, lock.ErrConflict) {
		t.Fatalf("stranger read over exclusive-read = %v, want ErrConflict", err)
	}
	_ = holder.Abort()
	_ = stranger.Abort()
}

func TestWriteInExplicitColour(t *testing.T) {
	rt := action.NewRuntime()
	st := store.NewStable()
	red, blue := colour.Fresh(), colour.Fresh()
	m := object.New(account{Balance: 1}, object.WithStore(st))

	a := mustBegin(t, rt, action.WithColours(blue))
	b, err := a.Begin(action.WithColours(red, blue))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteIn(b, red, func(v *account) error {
		v.Balance = 2
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	// Red is outermost at B: permanence immediately.
	if _, err := st.Read(m.ObjectID()); err != nil {
		t.Fatalf("red write set not flushed: %v", err)
	}
	_ = a.Abort()
	if got := m.Peek().Balance; got != 2 {
		t.Fatalf("balance = %d, want 2 (red effects survive A's abort)", got)
	}
}

func TestConcurrentTransfersConserveTotal(t *testing.T) {
	rt := action.NewRuntime()
	accounts := make([]*object.Managed[account], 4)
	for i := range accounts {
		accounts[i] = object.New(account{Balance: 100})
	}

	const transfers = 32
	var wg sync.WaitGroup
	errs := make(chan error, transfers)
	for i := 0; i < transfers; i++ {
		from, to := accounts[i%4], accounts[(i+1)%4]
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- rt.Run(func(a *action.Action) error {
				if err := from.Write(a, func(v *account) error {
					v.Balance -= 10
					return nil
				}); err != nil {
					return err
				}
				return to.Write(a, func(v *account) error {
					v.Balance += 10
					return nil
				})
			})
		}()
	}
	wg.Wait()
	close(errs)
	failures := 0
	for err := range errs {
		if err != nil {
			// Deadlocks abort cleanly; the invariant must hold
			// regardless.
			if !errors.Is(err, lock.ErrDeadlock) && !errors.Is(err, action.ErrAborted) {
				t.Fatalf("transfer: %v", err)
			}
			failures++
		}
	}
	total := 0
	for _, acc := range accounts {
		total += acc.Peek().Balance
	}
	if total != 400 {
		t.Fatalf("total = %d, want 400 (failures=%d)", total, failures)
	}
}

func TestStateEnvelopeRoundTripThroughStore(t *testing.T) {
	rt := action.NewRuntime()
	st := store.NewStable()
	m := object.New(map[string]int{"x": 1}, object.WithStore(st))

	if err := rt.Run(func(a *action.Action) error {
		return m.Write(a, func(v *map[string]int) error {
			(*v)["y"] = 2
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	loaded, err := object.Load[map[string]int](m.ObjectID(), st)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Peek()
	if got["x"] != 1 || got["y"] != 2 {
		t.Fatalf("loaded = %v", got)
	}
}

func TestCrashLosesUncommittedSurvivesCommitted(t *testing.T) {
	// The permanence property end-to-end: committed state survives a
	// stable-store crash; uncommitted writes never reach it.
	rt := action.NewRuntime()
	st := store.NewStable()
	m := object.New(account{Balance: 10}, object.WithStore(st))

	if err := rt.Run(func(a *action.Action) error {
		return m.Write(a, func(v *account) error { v.Balance = 20; return nil })
	}); err != nil {
		t.Fatal(err)
	}

	a := mustBegin(t, rt)
	if err := m.Write(a, func(v *account) error { v.Balance = 99; return nil }); err != nil {
		t.Fatal(err)
	}
	// Node crashes before commit.
	st.Crash()
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	st, err := st.Restart()
	if err != nil {
		t.Fatal(err)
	}

	loaded, err := object.Load[account](m.ObjectID(), st)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Peek().Balance; got != 20 {
		t.Fatalf("recovered balance = %d, want 20", got)
	}
}

func TestUpdateWithRetrySucceedsFirstTry(t *testing.T) {
	rt := action.NewRuntime()
	m := object.New(1)
	if err := object.UpdateWithRetry(rt, m, 3, func(v *int) error {
		*v++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if m.Peek() != 2 {
		t.Fatalf("m = %d", m.Peek())
	}
}

func TestUpdateWithRetryPropagatesAppErrors(t *testing.T) {
	rt := action.NewRuntime()
	m := object.New(1)
	boom := errors.New("boom")
	err := object.UpdateWithRetry(rt, m, 3, func(*int) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if m.Peek() != 1 {
		t.Fatalf("m = %d", m.Peek())
	}
}

func TestUpdateWithRetryUnderContention(t *testing.T) {
	// Two rings of updates that can deadlock: with retries every
	// update eventually lands.
	rt := action.NewRuntime()
	x := object.New(0)
	y := object.New(0)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first, second := x, y
			if i%2 == 1 {
				first, second = y, x
			}
			// A two-object transaction retried on deadlock, with
			// jittered backoff so retries do not recreate the same
			// collision forever.
			rng := rand.New(rand.NewSource(int64(i + 1)))
			var lastErr error
			for attempt := 0; attempt < 50; attempt++ {
				lastErr = rt.Run(func(a *action.Action) error {
					if err := first.Write(a, func(v *int) error { *v++; return nil }); err != nil {
						return err
					}
					return second.Write(a, func(v *int) error { *v++; return nil })
				})
				if lastErr == nil {
					return
				}
				time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
			}
			errs <- lastErr
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("update never landed: %v", err)
	}
	if x.Peek() != 8 || y.Peek() != 8 {
		t.Fatalf("x=%d y=%d, want 8/8", x.Peek(), y.Peek())
	}
}
