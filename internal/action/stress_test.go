package action_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	"mca/internal/action"
	"mca/internal/colour"
	"mca/internal/lock"
)

// TestActionTreeStorm hammers one runtime with concurrent goroutines
// building random trees (nested, coloured, independent), committing and
// aborting at random, with shared objects in the mix. Invariants: no
// unexpected errors, the runtime drains (no leaked actions), and all
// locks are released.
func TestActionTreeStorm(t *testing.T) {
	rt := action.NewRuntime()
	shared := make([]*reg, 8)
	for i := range shared {
		shared[i] = newReg("s", nil)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*64)

	var build func(rng *rand.Rand, parent *action.Action, depth int) error
	build = func(rng *rand.Rand, parent *action.Action, depth int) error {
		var (
			a   *action.Action
			err error
		)
		switch rng.Intn(3) {
		case 0:
			a, err = parent.Begin()
		case 1:
			a, err = parent.Begin(action.WithExtraColours(colour.Fresh()))
		default:
			a, err = parent.Begin(action.WithColours(colour.Fresh())) // independent
		}
		if err != nil {
			return err
		}

		// Some writes: use TryLock-style short ops via writeErr;
		// conflicts/deadlocks surface as errors we translate to aborts.
		for i := 0; i < rng.Intn(3); i++ {
			r := shared[rng.Intn(len(shared))]
			if err := r.writeErr(a, colour.None, "w"); err != nil {
				_ = a.Abort()
				return nil // clean abort on contention
			}
		}
		if depth < 2 {
			for i := 0; i < rng.Intn(3); i++ {
				if err := build(rng, a, depth+1); err != nil {
					_ = a.Abort()
					return err
				}
			}
		}
		if rng.Intn(2) == 0 {
			return a.Abort()
		}
		if err := a.Commit(); err != nil {
			// Active independent children are legal at commit; other
			// errors are not expected.
			_ = a.Abort()
		}
		return nil
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for i := 0; i < 40; i++ {
				top, err := rt.Begin()
				if err != nil {
					errs <- err
					return
				}
				if err := build(rng, top, 0); err != nil {
					errs <- err
					_ = top.Abort()
					continue
				}
				if rng.Intn(2) == 0 {
					_ = top.Abort()
				} else if err := top.Commit(); err != nil {
					_ = top.Abort()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("storm worker: %v", err)
	}

	if n := rt.ActiveActions(); n != 0 {
		t.Fatalf("leaked %d actions after the storm", n)
	}
	if n := rt.Locks().LockCount(); n != 0 {
		t.Fatalf("leaked %d locks after the storm", n)
	}
}

// TestRegistryHammer runs concurrent families through one runtime: a
// top-level action, a nested child and an independent grandchild, each
// writing a few of four shared registers. Families conflict with each
// other and nest over their own locks, so every grant and wait asks the
// registry for ancestry and top-level actions, stripe by stripe, while
// other families begin and finish. Each member must be Active exactly
// while it runs, and the runtime must drain.
func TestRegistryHammer(t *testing.T) {
	rt := action.NewRuntime(action.WithMaxLockWait(50 * time.Millisecond))
	shared := make([]*reg, 4)
	for i := range shared {
		shared[i] = newReg("s", nil)
	}
	// write writes a random register, or two, and aborts a on contention.
	write := func(rng *rand.Rand, a *action.Action) bool {
		for range 1 + rng.Intn(2) {
			err := shared[rng.Intn(len(shared))].writeErr(a, colour.None, "w")
			switch {
			case err == nil:
			case errors.Is(err, lock.ErrDeadlock), errors.Is(err, lock.ErrTimeout), errors.Is(err, action.ErrAborted):
				_ = a.Abort()
				return false
			default:
				t.Errorf("write under %v: %v", a.ID(), err)
				_ = a.Abort()
				return false
			}
		}
		return true
	}
	// finish commits or aborts a and checks it left the registry.
	finish := func(rng *rand.Rand, a *action.Action) {
		if !rt.Active(a.ID()) {
			t.Errorf("%v is running but not Active", a.ID())
		}
		if rng.Intn(3) == 0 || a.Commit() != nil {
			_ = a.Abort()
		}
		if rt.Active(a.ID()) {
			t.Errorf("%v is %v but still Active", a.ID(), a.Status())
		}
	}

	const workers, families = 8, 150
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for range families {
				top, err := rt.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				if !write(rng, top) {
					continue
				}
				child, err := top.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				if write(rng, child) {
					independent, err := child.Begin(action.WithColours(colour.Fresh()))
					if err != nil {
						t.Error(err)
						return
					}
					if write(rng, independent) {
						finish(rng, independent)
					}
					finish(rng, child)
				}
				finish(rng, top)
			}
		}()
	}
	wg.Wait()
	if n := rt.ActiveActions(); n != 0 {
		t.Fatalf("%d actions still registered after the hammer", n)
	}
	if n := rt.Locks().LockCount(); n != 0 {
		t.Fatalf("%d locks still held after the hammer", n)
	}
}

// TestActionSize pins an Action at its 224-byte size class. One word
// more moves every action into the 240-byte class: PR 19 measured what a
// larger Action costs tcp-read-mostly (120 bytes per transaction when
// the first undo records sat inline), and a children list kept as a
// plain slice header, tried beside the binary states, cost that workload
// 1.6 % alloc_kb_per_txn. A field that has to grow the struct must pay
// for itself in the benchmark first.
func TestActionSize(t *testing.T) {
	if n := unsafe.Sizeof(action.Action{}); n > 224 {
		t.Fatalf("sizeof(Action) = %d bytes, over its 224-byte size class", n)
	}
}
