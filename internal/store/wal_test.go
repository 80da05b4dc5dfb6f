package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mca/internal/clock"
	"mca/internal/ids"
)

func testIntention(a ids.ActionID, payload string) Intention {
	obj := ids.NewObjectID()
	return Intention{
		Action: a,
		Status: IntentionPrepared,
		Writes: Batch{Writes: map[ids.ObjectID]State{obj: State(payload)}},
	}
}

func TestWALGroupCommitSharesForces(t *testing.T) {
	s := NewStable()
	s.WAL().SetForceDelay(2 * time.Millisecond)
	log := s.Intentions()

	const writers = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, writers)
	actions := make([]ids.ActionID, writers)
	for i := 0; i < writers; i++ {
		actions[i] = ids.NewActionID()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = log.Record(testIntention(actions[i], "w"))
		}(i)
	}
	close(start)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("Record %d: %v", i, err)
		}
	}
	for _, a := range actions {
		if _, ok, _ := log.Lookup(a); !ok {
			t.Fatalf("record %v missing after force", a)
		}
	}
	flushes, records := s.WAL().Stats()
	if records != writers {
		t.Fatalf("records = %d, want %d", records, writers)
	}
	// 16 concurrent appenders against a 2ms force must share batches:
	// the first force takes the early arrivals, everyone else piles into
	// the next batch. A per-record log would pay 16 forces.
	if flushes >= records {
		t.Fatalf("flushes = %d for %d records: group commit never batched", flushes, records)
	}
}

func TestWALFilePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	keep := ids.NewActionID()
	drop := ids.NewActionID()
	if err := s.Intentions().Record(testIntention(drop, "drop")); err != nil {
		t.Fatal(err)
	}
	if err := s.Intentions().Forget(drop); err != nil {
		t.Fatal(err)
	}
	// The forget is lazy; the next forced record carries it to disk.
	if err := s.Intentions().Record(testIntention(keep, "keep")); err != nil {
		t.Fatal(err)
	}

	// A different process opening the same directory must see exactly
	// the live records.
	s2, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	pending, err := s2.Intentions().Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].Action != keep {
		t.Fatalf("Pending after reopen = %+v, want just %v", pending, keep)
	}
}

func TestWALFileRecoverReloadsFromDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := ids.NewActionID()
	if err := s.Intentions().Record(testIntention(a, "w")); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if err := s.Intentions().Record(testIntention(ids.NewActionID(), "x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Record while crashed = %v, want ErrCrashed", err)
	}
	s = restart(t, s)
	in, ok, err := s.Intentions().Lookup(a)
	if err != nil || !ok {
		t.Fatalf("Lookup after recover = %v, %v", ok, err)
	}
	if in.Status != IntentionPrepared {
		t.Fatalf("Status after recover = %v", in.Status)
	}
}

func TestWALCrashDuringForceFailsWaiters(t *testing.T) {
	for _, backing := range []string{"memory", "file"} {
		t.Run(backing, func(t *testing.T) {
			var s *Stable
			var err error
			if backing == "file" {
				s, err = NewStableAt(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
			} else {
				s = NewStable()
			}
			a := ids.NewActionID()
			s.CrashDuringNextForce()
			if err := s.Intentions().Record(testIntention(a, "w")); !errors.Is(err, ErrCrashed) {
				t.Fatalf("Record through crashing force = %v, want ErrCrashed", err)
			}
			if !s.Crashed() {
				t.Fatal("store must be crashed after the injected force crash")
			}
			s = restart(t, s)
			// The batch never forced: the record must not exist after
			// recovery (presumed abort counts on exactly this).
			if _, ok, err := s.Intentions().Lookup(a); err != nil || ok {
				t.Fatalf("Lookup after recover = %v, %v; want absent", ok, err)
			}
		})
	}
}

func TestWALStaleBatchFailsAfterCrash(t *testing.T) {
	// A crash between append and force invalidates the open batch: the
	// force must report ErrCrashed instead of installing records on a
	// store that was down.
	s := NewStable()
	s.WAL().SetForceDelay(20 * time.Millisecond)
	a := ids.NewActionID()
	done := make(chan error, 1)
	go func() { done <- s.Intentions().Record(testIntention(a, "w")) }()
	time.Sleep(5 * time.Millisecond) // let the force begin
	s.Crash()
	if err := <-done; !errors.Is(err, ErrCrashed) {
		t.Fatalf("Record across crash = %v, want ErrCrashed", err)
	}
	s = restart(t, s)
	if _, ok, _ := s.Intentions().Lookup(a); ok {
		t.Fatal("record from invalidated batch must not survive")
	}
}

func TestWALFileCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	keeper := ids.NewActionID()
	if err := s.Intentions().Record(testIntention(keeper, "keeper")); err != nil {
		t.Fatal(err)
	}
	compactions, replayed, bytesBefore := logCompactions.Value(), logReplayRecords.Value(), logBytes.Value()

	// Churn record+forget pairs with the threshold lowered so the log
	// compacts repeatedly instead of growing without bound.
	payload := make([]byte, 200)
	for i := range payload {
		payload[i] = 'x'
	}
	for i := 0; i < 50; i++ {
		s.d.wal.file.compactAt = 1 << 10
		a := ids.NewActionID()
		if err := s.Intentions().Record(testIntention(a, string(payload))); err != nil {
			t.Fatal(err)
		}
		if err := s.Intentions().Forget(a); err != nil {
			t.Fatal(err)
		}
	}
	// The last forget is still lazy: any forced record carries it.
	if err := put(s, ids.NewObjectID(), State("tail")); err != nil {
		t.Fatal(err)
	}
	// Without compaction the churn leaves ~17KB of dead entries behind;
	// with it the log holds little more than the one live record.
	if s.d.wal.file.size > 4<<10 {
		t.Fatalf("log size %d still unbounded after churn", s.d.wal.file.size)
	}

	// Compaction must preserve exactly the live records, durably.
	s2, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	pending, err := s2.Intentions().Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].Action != keeper {
		t.Fatalf("Pending after compaction+reopen = %+v, want just %v", pending, keeper)
	}

	// Telemetry: compactions counted, the reopen's replay counted, and
	// the bytes gauge tracking the two open logs rather than the churn.
	if logCompactions.Value() == compactions {
		t.Fatal("mca_store_compactions_total did not move")
	}
	if logReplayRecords.Value() == replayed {
		t.Fatal("mca_store_replay_records_total did not move on reopen")
	}
	if grew := logBytes.Value() - bytesBefore; grew <= 0 || grew > 2*(4<<10) {
		t.Fatalf("mca_store_log_bytes grew by %d over the test, want about two compacted logs", grew)
	}
}

func TestWALDiscardsTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := ids.NewActionID()
	if err := s.Intentions().Record(testIntention(a, "w")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage after the last whole record.
	f, err := os.OpenFile(filepath.Join(dir, walFilename), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{40, 0, 0, 0, 1, 2, 3, 4, byte(kindIntention), 99}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	pending, err := s2.Intentions().Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].Action != a {
		t.Fatalf("Pending with torn tail = %+v, want just %v", pending, a)
	}
}

// TestCommitStepSyscallShape pins what a participant's commit steps cost
// on the file backing: one append and one fsync for the prepare record,
// nothing for the phase-2 install and the forget, which ride the next
// force, and no file created, renamed or directory synced along the way.
// Only compaction, which replaces the log, renames — and it must pin the
// rename with a directory fsync.
func TestCommitStepSyscallShape(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	txn, obj := ids.NewActionID(), ids.NewObjectID()
	writes := Batch{Writes: map[ids.ObjectID]State{obj: State("v")}}

	step := func(name string, wantFsyncs uint64, fn func() error) {
		t.Helper()
		files, dirs := fileSyncs.Load(), dirSyncs.Load()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := fileSyncs.Load() - files; got != wantFsyncs {
			t.Fatalf("%s: %d fsyncs, want %d", name, got, wantFsyncs)
		}
		if got := dirSyncs.Load() - dirs; got != 0 {
			t.Fatalf("%s: %d directory fsyncs, want none outside compaction", name, got)
		}
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) != 1 || entries[0].Name() != walFilename {
			t.Fatalf("%s: directory = %v, %v; want just %s", name, entries, err, walFilename)
		}
	}
	step("prepare", 1, func() error {
		return s.Intentions().Record(Intention{Action: txn, Status: IntentionPrepared, Writes: writes})
	})
	step("phase-2 install", 0, func() error { return s.ApplyBatchLazy(writes) })
	step("forget", 0, func() error { return s.Intentions().Forget(txn) })
	flushes, records := s.WAL().Stats()
	if flushes != 1 || records != 1 {
		t.Fatalf("Stats = %d flushes, %d records; want the one forced step", flushes, records)
	}

	// The next force carries the install and the forget, and with the
	// threshold lowered compacts: a rename, so a directory fsync.
	s.d.wal.file.compactAt = 0
	dirs := dirSyncs.Load()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if dirSyncs.Load() == dirs {
		t.Fatal("compaction renamed the checkpoint into place without a directory fsync")
	}
	if _, records := s.WAL().Stats(); records != 3 {
		t.Fatalf("records = %d, want 3: the install and the forget ride the next force", records)
	}
}

// TestApplyBatchLazyRidesNextForce: a lazy install is visible at once and
// durable only once a later force has carried it — which Durable reports
// — on both backings; a crash closes the handle it went through, whose
// Durable stays false even once the next incarnation forces records.
func TestApplyBatchLazyRidesNextForce(t *testing.T) {
	for _, backing := range []string{"memory", "file"} {
		t.Run(backing, func(t *testing.T) {
			s := NewStable()
			if backing == "file" {
				var err error
				if s, err = NewStableAt(t.TempDir()); err != nil {
					t.Fatal(err)
				}
			}
			// install applies a lazy install and a lazy forget, as a
			// participant's phase 2 does, and returns the mark after them.
			install := func(id ids.ObjectID) uint64 {
				t.Helper()
				txn := ids.NewActionID()
				if err := s.Intentions().Record(testIntention(txn, "prepared")); err != nil {
					t.Fatal(err)
				}
				if err := s.ApplyBatchLazy(Batch{Writes: map[ids.ObjectID]State{id: State("v")}}); err != nil {
					t.Fatal(err)
				}
				if err := s.Intentions().Forget(txn); err != nil {
					t.Fatal(err)
				}
				if got, err := s.Read(id); err != nil || string(got) != "v" {
					t.Fatalf("Read right after the lazy install = %q, %v", got, err)
				}
				return s.Mark()
			}
			force := func() {
				t.Helper()
				if err := s.Intentions().Record(testIntention(ids.NewActionID(), "carrier")); err != nil {
					t.Fatal(err)
				}
			}

			lost := ids.NewObjectID()
			to := install(lost)
			if s.Durable(to) {
				t.Fatal("an unforced install and forget reported durable")
			}
			old := s
			s.Crash()
			s = restart(t, s)
			if _, err := s.Read(lost); backing == "file" && !errors.Is(err, ErrNotFound) {
				t.Fatalf("an unforced lazy install survived a crash on the file backing: %v", err)
			}
			force()
			if old.Durable(to) {
				t.Fatal("a crashed handle reported its mark durable once the next incarnation forced a record")
			}

			kept := ids.NewObjectID()
			to = install(kept)
			force()
			if !s.Durable(to) {
				t.Fatal("an install and forget carried by a later force reported not durable")
			}
			s.Crash()
			s = restart(t, s)
			if got, err := s.Read(kept); err != nil || string(got) != "v" {
				t.Fatalf("install carried by a later force, after a crash: %q, %v", got, err)
			}
			// The two carriers, and on the file backing the prepare whose
			// forget the first crash lost (the in-memory index keeps no
			// forgotten record).
			want := map[string]int{"memory": 2, "file": 3}[backing]
			if pending, err := s.Intentions().Pending(); err != nil || len(pending) != want {
				t.Fatalf("records after the crash = %v, %v; want %d", pending, err, want)
			}
			if s.Sync() != nil {
				t.Fatal("Sync of a recovered log with nothing appended failed")
			}
		})
	}
}

// TestCloseForcesAndShuts: Close forces what was appended lazily, so a
// store opened on the directory afterwards finds it; the closed store
// refuses work, and closing again is harmless.
func TestCloseForcesAndShuts(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	txn, obj := ids.NewActionID(), ids.NewObjectID()
	if err := s.Intentions().Record(testIntention(txn, "prepared")); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatchLazy(Batch{Writes: map[ids.ObjectID]State{obj: State("v")}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Intentions().Forget(txn); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if err := put(s, ids.NewObjectID(), State("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Write after Close = %v, want ErrCrashed", err)
	}
	if next, err := s.Restart(); !errors.Is(err, ErrCrashed) || next != nil || !s.Crashed() {
		t.Fatalf("Restart of a closed store = %v, %v; want ErrCrashed and no handle", next, err)
	}
	reopened, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := reopened.Read(obj); err != nil || string(got) != "v" {
		t.Fatalf("lazy install after Close and reopen = %q, %v", got, err)
	}
	if pending, err := reopened.Intentions().Pending(); err != nil || len(pending) != 0 {
		t.Fatalf("records after Close and reopen = %v, %v; want the forget durable", pending, err)
	}
}

// TestFileBackedStableCrashPoints: a file-backed store opened afresh on
// the directory of one that crashed at an injected point finds what the
// crashed store's Recover does (TestCrashModel pins that on both
// backings). The subtests keep the names the points had when the
// in-memory store journalled its batches.
func TestFileBackedStableCrashPoints(t *testing.T) {
	o1, o2 := ids.NewObjectID(), ids.NewObjectID()
	points := []struct {
		name      string
		point     CrashPoint
		committed bool // batch visible after recovery
	}{
		{"beforeJournal", CrashBeforeForce, false},
		{"afterJournal", CrashAfterForce, true},
	}
	for _, tt := range points {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewStableAt(dir)
			if err != nil {
				t.Fatal(err)
			}
			seed := Batch{Writes: map[ids.ObjectID]State{o1: State("old1"), o2: State("old2")}}
			if err := s.ApplyBatch(seed); err != nil {
				t.Fatal(err)
			}

			s.CrashDuringNextBatch(tt.point)
			next := Batch{Writes: map[ids.ObjectID]State{o1: State("new1"), o2: State("new2")}}
			if err := s.ApplyBatch(next); !errors.Is(err, ErrCrashed) {
				t.Fatalf("ApplyBatch at %s = %v, want ErrCrashed", tt.name, err)
			}
			s = restart(t, s)

			check := func(label string, st *Stable) {
				want := map[ids.ObjectID]string{o1: "old1", o2: "old2"}
				if tt.committed {
					want = map[ids.ObjectID]string{o1: "new1", o2: "new2"}
				}
				for id, w := range want {
					got, err := st.Read(id)
					if err != nil {
						t.Fatalf("%s: Read(%v): %v", label, id, err)
					}
					if string(got) != w {
						t.Fatalf("%s: %v = %q, want %q (all-or-nothing violated)", label, id, got, w)
					}
				}
			}
			check("recovered", s)

			// The same must hold for a fresh open of the directory.
			s2, err := NewStableAt(dir)
			if err != nil {
				t.Fatal(err)
			}
			check("reopened", s2)
		})
	}
}

func TestFileBackedStableWritesThrough(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := ids.NewObjectID()
	if err := put(s, id, State("v1")); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	s = restart(t, s)
	got, err := s.Read(id)
	if err != nil || string(got) != "v1" {
		t.Fatalf("Read after crash = %q, %v", got, err)
	}
	if err := del(s, id); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	s = restart(t, s)
	if _, err := s.Read(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read after delete+crash = %v, want ErrNotFound", err)
	}
}

func TestWALWindowHoldsBatchOpen(t *testing.T) {
	s := NewStable()
	s.WAL().SetWindow(25 * time.Millisecond)
	log := s.Intentions()

	// Two records arriving within the window must share one force.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := log.Record(testIntention(ids.NewActionID(), "w")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	flushes, records := s.WAL().Stats()
	if records != 2 {
		t.Fatalf("records = %d, want 2", records)
	}
	if flushes != 1 {
		t.Fatalf("flushes = %d, want 1 (window must batch near-simultaneous records)", flushes)
	}
}

// TestWALForgetIsLazy: a forget leaves the index at once, but reaches
// the disk only with the next forced record. A crash before then
// resurrects the intention (file backing); a crash after does not.
func TestWALForgetIsLazy(t *testing.T) {
	s, err := NewStableAt(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	log := s.Intentions()
	lost, carried := ids.NewActionID(), ids.NewActionID()
	for _, a := range []ids.ActionID{lost, carried} {
		if err := log.Record(testIntention(a, "w")); err != nil {
			t.Fatal(err)
		}
	}
	flushes, _ := s.WAL().Stats()

	if err := log.Forget(carried); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := log.Lookup(carried); ok {
		t.Fatal("forgotten record still in the index")
	}
	if now, _ := s.WAL().Stats(); now != flushes {
		t.Fatalf("Forget forced the log (%d -> %d flushes)", flushes, now)
	}
	if err := put(s, ids.NewObjectID(), State("later")); err != nil { // carries the forget
		t.Fatal(err)
	}
	if err := log.Forget(lost); err != nil {
		t.Fatal(err)
	}
	// Forgetting what was never recorded logs nothing at all.
	if err := log.Forget(ids.NewActionID()); err != nil {
		t.Fatal(err)
	}

	s.Crash()
	s = restart(t, s)
	log = s.Intentions()
	if _, ok, _ := log.Lookup(carried); ok {
		t.Fatal("forget followed by a forced record was not durable")
	}
	if _, ok, _ := log.Lookup(lost); !ok {
		t.Fatal("an unforced forget must be lost with the crash: the record is still on disk")
	}
	// Lost forgets leave nothing behind that a later record could trip on.
	if err := log.Record(testIntention(ids.NewActionID(), "after")); err != nil {
		t.Fatalf("Record after recovery: %v", err)
	}
}

// TestWALForgetRacingRecord: an abort's forget that overtakes the
// prepare record of the same action must still win once both are
// through — the record may not linger in the index waiting for some
// later force.
func TestWALForgetRacingRecord(t *testing.T) {
	s := NewStable()
	s.WAL().SetForceDelay(10 * time.Millisecond)
	log := s.Intentions()
	a := ids.NewActionID()
	recorded := make(chan error, 1)
	go func() { recorded <- log.Record(testIntention(a, "w")) }()
	for { // wait until the record is in the open batch or in flight
		s.d.wal.mu.Lock()
		queued := s.d.wal.cur.hasIntention(a) || s.d.wal.inflight.hasIntention(a)
		s.d.wal.mu.Unlock()
		if queued {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := log.Forget(a); err != nil {
		t.Fatal(err)
	}
	if err := <-recorded; err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok, _ := log.Lookup(a); !ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("record outlived the forget that raced it")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestApplyBatchSharesForces: concurrent object installs on the file
// backing join the same group commit the intention records use.
func TestApplyBatchSharesForces(t *testing.T) {
	s, err := NewStableAt(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := ids.NewObjectID()
			for i := 0; i < rounds; i++ {
				if err := s.ApplyBatch(Batch{Writes: map[ids.ObjectID]State{id: State(fmt.Sprint(i))}}); err != nil {
					t.Error(err)
					return
				}
				if got, err := s.Read(id); err != nil || string(got) != fmt.Sprint(i) {
					t.Errorf("Read after ApplyBatch = %q, %v; want %d", got, err, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	flushes, records := s.WAL().Stats()
	if records != writers*rounds {
		t.Fatalf("records = %d, want %d", records, writers*rounds)
	}
	if flushes >= records {
		t.Fatalf("flushes = %d for %d records: concurrent installs never shared a force", flushes, records)
	}
	t.Logf("records_per_force = %.2f", float64(records)/float64(flushes))
}

// TestRecordKeepsTheCallersBatch: the log owns the intention it is
// handed. The index holds the caller's write set itself — the same map
// and the same state bytes — and recording a large write set, forced in a
// batch the last one left, costs no object at all.
func TestRecordKeepsTheCallersBatch(t *testing.T) {
	s := NewStable()
	log := s.Intentions()
	const states = 64
	in := Intention{Action: ids.NewActionID(), Status: IntentionPrepared, Writes: Batch{Writes: make(map[ids.ObjectID]State, states)}}
	for i := range states {
		in.Writes.Writes[ids.NewObjectID()] = State(fmt.Sprintf("state %d", i))
	}
	if err := log.Record(in); err != nil {
		t.Fatal(err)
	}
	got, ok, err := log.Lookup(in.Action)
	if err != nil || !ok {
		t.Fatalf("Lookup = %v, %v", ok, err)
	}
	if reflect.ValueOf(got.Writes.Writes).UnsafePointer() != reflect.ValueOf(in.Writes.Writes).UnsafePointer() {
		t.Fatal("the index holds a copy of the recorded write set")
	}
	for id, st := range in.Writes.Writes {
		if &got.Writes.Writes[id][0] != &st[0] {
			t.Fatalf("the index holds a copy of state %v", id)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := log.Record(in); err != nil {
			t.Fatal(err)
		}
		if err := log.Forget(in.Action); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Record + Forget of a %d-state write set: %.1f allocs", states, allocs)
	if allocs > 0 {
		t.Fatalf("Record + Forget of a %d-state write set: %.1f allocs, want none — is the write set or the intention copied, or a batch made per force?", states, allocs)
	}
}

// waitUntil polls cond until it holds, failing the test after a while.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestWALAppenderForcesAndFollowersShareTheCrash: the appender that finds
// no flush running forces the log itself, and appenders joining its batch
// meanwhile wait for its outcome. Alone, the leader needs no wait channel.
// A crash injected into the force fails the leader and every follower,
// none hangs, and an appender that comes to the batch after its flush
// reads the outcome without waiting.
func TestWALAppenderForcesAndFollowersShareTheCrash(t *testing.T) {
	s := NewStable()
	w := s.WAL()
	clk := clock.NewFake()
	w.SetClock(clk)
	// The leader holds its batch open for the window, on the fake clock,
	// until the test has every follower in it.
	w.SetWindow(time.Millisecond)
	const appenders = 17
	errs := make(chan error, appenders) // one send per appender of a phase
	record := func() { errs <- s.Intentions().Record(testIntention(ids.NewActionID(), "w")) }
	// openBatch starts n appenders once the first sleeps in its window,
	// and returns their batch once all of them joined it.
	openBatch := func(n int) *walBatch {
		go record()
		waitUntil(t, "the leader holds its window", func() bool { return clk.Pending() == 1 })
		for range n - 1 {
			go record()
		}
		var b *walBatch
		waitUntil(t, "every appender joined the batch", func() bool {
			w.mu.Lock()
			defer w.mu.Unlock()
			b = w.cur
			return b != nil && len(b.entries) == n
		})
		return b
	}
	outcomes := func(n int, want error) {
		t.Helper()
		for range n {
			select {
			case err := <-errs:
				if !errors.Is(err, want) {
					t.Fatalf("Record = %v, want %v", err, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("an appender hangs")
			}
		}
	}

	solo := openBatch(1)
	clk.Advance(time.Millisecond)
	outcomes(1, nil)
	w.mu.Lock()
	made := solo.done != nil
	w.mu.Unlock()
	if made {
		t.Fatal("a leader alone made a wait channel")
	}

	b := openBatch(appenders)
	s.CrashDuringNextForce()
	clk.Advance(time.Millisecond)
	outcomes(appenders, ErrCrashed)

	late := make(chan error, 1)
	go func() {
		w.mu.Lock()
		late <- w.awaitLocked(b)
	}()
	select {
	case err := <-late:
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("a late appender read %v, want ErrCrashed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a late appender waits for a batch already flushed")
	}
}

// TestRestartClosesTheOldHandle: Restart hands out the next incarnation's
// handle, and the crashed one refuses every operation for good — writes,
// reads, intention records, force waits, Sync and Durable — so nothing
// done through it reaches the next incarnation's state. The log's own
// settings and counters belong to no incarnation: the flush observer, the
// force delay and Stats carry over.
func TestRestartClosesTheOldHandle(t *testing.T) {
	for _, backing := range []string{"memory", "file"} {
		t.Run(backing, func(t *testing.T) {
			s := NewStable()
			if backing == "file" {
				var err error
				if s, err = NewStableAt(t.TempDir()); err != nil {
					t.Fatal(err)
				}
			}
			const delay = 20 * time.Millisecond
			var observed atomic.Int64
			s.WAL().SetFlushObserver(func(FlushInfo) { observed.Add(1) })
			s.WAL().SetForceDelay(delay)
			kept := ids.NewActionID()
			if err := s.Intentions().Record(testIntention(kept, "prepared")); err != nil {
				t.Fatal(err)
			}
			flushes, _ := s.WAL().Stats()

			old := s
			mark := old.Mark()
			s = restart(t, old)
			if s == old || s.WAL() != old.WAL() {
				t.Fatal("Restart must return a new handle over the same log")
			}

			lost := ids.NewObjectID()
			batch := Batch{Writes: map[ids.ObjectID]State{lost: State("x")}}
			refused := map[string]error{
				"ApplyBatch":     old.ApplyBatch(batch),
				"ApplyBatchLazy": old.ApplyBatchLazy(batch),
				"Record":         old.Intentions().Record(testIntention(ids.NewActionID(), "late")),
				"Forget":         old.Intentions().Forget(kept),
				"Sync":           old.Sync(),
			}
			_, refused["Read"] = old.Read(lost)
			_, _, refused["Lookup"] = old.Intentions().Lookup(kept)
			_, refused["Pending"] = old.Intentions().Pending()
			_, refused["Restart"] = old.Restart()
			for op, err := range refused {
				if !errors.Is(err, ErrCrashed) {
					t.Errorf("%s through the crashed handle = %v, want ErrCrashed", op, err)
				}
			}
			if old.Durable(mark) || !old.Crashed() {
				t.Error("the crashed handle reports its marks durable, or itself open")
			}
			if _, err := s.Read(lost); !errors.Is(err, ErrNotFound) {
				t.Errorf("a write through the crashed handle reached the next incarnation: Read = %v", err)
			}
			if _, ok, err := s.Intentions().Lookup(kept); !ok || err != nil {
				t.Errorf("the next incarnation lost a forced record (%v), or the crashed handle forgot it", err)
			}

			// A force wait begun before the crash fails with it, and what
			// it appended does not reach the next incarnation either (on
			// the in-memory backing, whose simulated force can be held).
			if backing == "memory" {
				waiting := ids.NewActionID()
				done := make(chan error, 1)
				go func() { done <- s.Intentions().Record(testIntention(waiting, "in flight")) }()
				time.Sleep(5 * time.Millisecond)
				s = restart(t, s)
				if err := <-done; !errors.Is(err, ErrCrashed) {
					t.Errorf("a force wait across Crash and Restart = %v, want ErrCrashed", err)
				}
				if _, ok, _ := s.Intentions().Lookup(waiting); ok {
					t.Error("a record whose force a crash overtook reached the next incarnation")
				}
			}

			before := observed.Load()
			start := time.Now()
			if err := s.Intentions().Record(testIntention(ids.NewActionID(), "next")); err != nil {
				t.Fatal(err)
			}
			if backing == "memory" && time.Since(start) < delay {
				t.Error("the force delay did not carry over to the next incarnation")
			}
			if now, _ := s.WAL().Stats(); now <= flushes || observed.Load() <= before {
				t.Errorf("Stats (%d flushes, %d before) or the flush observer did not carry over", now, flushes)
			}
		})
	}
}
