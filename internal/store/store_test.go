package store

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"mca/internal/ids"
)

// put and del write one object through the store's one write path.
func put(s *Stable, id ids.ObjectID, st State) error {
	return s.ApplyBatch(Batch{Writes: map[ids.ObjectID]State{id: st}})
}

func del(s *Stable, id ids.ObjectID) error {
	return s.ApplyBatch(Batch{Deletes: []ids.ObjectID{id}})
}

// restart returns the next incarnation's handle on s's storage.
func restart(t *testing.T, s *Stable) *Stable {
	t.Helper()
	next, err := s.Restart()
	if err != nil {
		t.Fatal(err)
	}
	return next
}

func TestStableCrashPreservesData(t *testing.T) {
	s := NewStable()
	id := ids.NewObjectID()
	if err := put(s, id, State("durable")); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if _, err := s.Read(id); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Read while crashed = %v, want ErrCrashed", err)
	}
	s = restart(t, s)
	got, err := s.Read(id)
	if err != nil {
		t.Fatalf("Read after recover: %v", err)
	}
	if string(got) != "durable" {
		t.Fatalf("Read = %q, want %q", got, "durable")
	}
}

func TestStatesAreCopiedAtBoundaries(t *testing.T) {
	s := NewStable()
	id := ids.NewObjectID()
	if err := put(s, id, State("aaaa")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 'q' // caller mutates the returned state
	again, err := s.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != "aaaa" {
		t.Fatalf("store exposed internal state: %q", again)
	}
}

func TestApplyBatchAtomicHappyPath(t *testing.T) {
	s := NewStable()
	a, b, c := ids.NewObjectID(), ids.NewObjectID(), ids.NewObjectID()
	if err := put(s, c, State("old")); err != nil {
		t.Fatal(err)
	}
	err := s.ApplyBatch(Batch{
		Writes:  map[ids.ObjectID]State{a: State("1"), b: State("2")},
		Deletes: []ids.ObjectID{c},
	})
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	for id, want := range map[ids.ObjectID]string{a: "1", b: "2"} {
		got, err := s.Read(id)
		if err != nil || string(got) != want {
			t.Fatalf("Read(%v) = %q, %v; want %q", id, got, err, want)
		}
	}
	if _, err := s.Read(c); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted object still present: %v", err)
	}
}

func TestApplyBatchEmptyIsNoop(t *testing.T) {
	s := NewStable()
	if err := s.ApplyBatch(Batch{}); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestCrashModel pins the one crash model of both backings, through both
// write calls: a crash before the batch is durable loses all of it, a
// crash after leaves all of it once Recover returns. Either way the call
// reports ErrCrashed.
func TestCrashModel(t *testing.T) {
	points := map[CrashPoint]string{CrashBeforeForce: "beforeForce", CrashAfterForce: "afterForce"}
	for _, backing := range []string{"memory", "file"} {
		for _, lazy := range []bool{false, true} {
			for _, point := range []CrashPoint{CrashBeforeForce, CrashAfterForce} {
				call := map[bool]string{false: "ApplyBatch", true: "ApplyBatchLazy"}[lazy]
				t.Run(backing+"/"+call+"/"+points[point], func(t *testing.T) {
					s := NewStable()
					if backing == "file" {
						var err error
						if s, err = NewStableAt(t.TempDir()); err != nil {
							t.Fatal(err)
						}
					}
					keep, drop, add := ids.NewObjectID(), ids.NewObjectID(), ids.NewObjectID()
					if err := s.ApplyBatch(Batch{Writes: map[ids.ObjectID]State{keep: State("old"), drop: State("old")}}); err != nil {
						t.Fatal(err)
					}
					s.CrashDuringNextBatch(point)
					apply := s.ApplyBatch
					if lazy {
						apply = s.ApplyBatchLazy
					}
					next := Batch{Writes: map[ids.ObjectID]State{keep: State("new"), add: State("new")}, Deletes: []ids.ObjectID{drop}}
					if err := apply(next); !errors.Is(err, ErrCrashed) || !s.Crashed() {
						t.Fatalf("%s at %s = %v (crashed %v), want ErrCrashed", call, points[point], err, s.Crashed())
					}
					s = restart(t, s)
					want := map[ids.ObjectID]string{keep: "old", drop: "old"}
					if point == CrashAfterForce {
						want = map[ids.ObjectID]string{keep: "new", add: "new"}
					}
					for _, id := range []ids.ObjectID{keep, drop, add} {
						got, err := s.Read(id)
						if w, ok := want[id]; ok && (err != nil || string(got) != w) {
							t.Fatalf("Read(%v) = %q, %v; want %q: the batch is not all-or-nothing", id, got, err, w)
						} else if !ok && !errors.Is(err, ErrNotFound) {
							t.Fatalf("Read(%v) = %q, %v; want ErrNotFound: the batch is not all-or-nothing", id, got, err)
						}
					}
				})
			}
		}
	}
}

func TestIntentionLogBasics(t *testing.T) {
	s := NewStable()
	log := s.Intentions()
	action := ids.NewActionID()
	obj := ids.NewObjectID()

	in := Intention{
		Action: action,
		Status: IntentionPrepared,
		Writes: Batch{Writes: map[ids.ObjectID]State{obj: State("w")}},
	}
	if err := log.Record(in); err != nil {
		t.Fatal(err)
	}
	got, ok, err := log.Lookup(action)
	if err != nil || !ok {
		t.Fatalf("Lookup = %v, %v", ok, err)
	}
	if got.Status != IntentionPrepared {
		t.Fatalf("Status = %v", got.Status)
	}
	if string(got.Writes.Writes[obj]) != "w" {
		t.Fatalf("Writes = %q", got.Writes.Writes[obj])
	}

	// Overwrite with the decision.
	in.Status = IntentionCommitted
	if err := log.Record(in); err != nil {
		t.Fatal(err)
	}
	got, _, _ = log.Lookup(action)
	if got.Status != IntentionCommitted {
		t.Fatalf("Status after overwrite = %v", got.Status)
	}

	if err := log.Forget(action); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := log.Lookup(action); ok {
		t.Fatal("record must be gone after Forget")
	}
}

func TestIntentionLogSurvivesCrash(t *testing.T) {
	s := NewStable()
	log := s.Intentions()
	action := ids.NewActionID()
	if err := log.Record(Intention{Action: action, Status: IntentionPrepared}); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if err := log.Record(Intention{Action: action, Status: IntentionCommitted}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Record while crashed = %v, want ErrCrashed", err)
	}
	if _, _, err := log.Lookup(action); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Lookup while crashed = %v, want ErrCrashed", err)
	}
	if _, err := log.Pending(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Pending through the crashed handle = %v, want ErrCrashed", err)
	}
	s = restart(t, s)
	pending, err := s.Intentions().Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].Action != action || pending[0].Status != IntentionPrepared {
		t.Fatalf("Pending after recovery = %+v", pending)
	}
}

func TestIntentionStatusString(t *testing.T) {
	tests := []struct {
		st   IntentionStatus
		want string
	}{
		{IntentionPrepared, "prepared"},
		{IntentionCommitted, "committed"},
		{IntentionAborted, "aborted"},
		{IntentionStatus(9), "status(9)"},
	}
	for _, tt := range tests {
		if got := tt.st.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestStableReadBackProperty(t *testing.T) {
	// Property: for any sequence of writes, the last write per object
	// is what Read returns, before and after a crash/recover cycle.
	s := NewStable()
	f := func(keys []uint8, vals [][]byte) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		want := make(map[ids.ObjectID][]byte)
		for i := 0; i < n; i++ {
			id := ids.ObjectID(uint64(keys[i]) + 1)
			if err := put(s, id, vals[i]); err != nil {
				return false
			}
			want[id] = vals[i]
		}
		s.Crash()
		var err error
		if s, err = s.Restart(); err != nil {
			return false
		}
		for id, w := range want {
			got, err := s.Read(id)
			if err != nil {
				return false
			}
			if !bytes.Equal(got, w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchEmpty(t *testing.T) {
	if !(Batch{}).Empty() {
		t.Fatal("zero batch must be empty")
	}
	if (Batch{Deletes: []ids.ObjectID{1}}).Empty() {
		t.Fatal("batch with deletes must not be empty")
	}
	if (Batch{Writes: map[ids.ObjectID]State{1: nil}}).Empty() {
		t.Fatal("batch with writes must not be empty")
	}
}

func TestPendingSortedByAction(t *testing.T) {
	s := NewStable()
	log := s.Intentions()
	var want []ids.ActionID
	for i := 0; i < 5; i++ {
		a := ids.NewActionID()
		want = append(want, a)
		if err := log.Record(Intention{Action: a, Status: IntentionPrepared}); err != nil {
			t.Fatal(err)
		}
	}
	pending, err := log.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != len(want) {
		t.Fatalf("Pending len = %d, want %d", len(pending), len(want))
	}
	for i, in := range pending {
		if in.Action != want[i] {
			t.Fatalf("Pending[%d] = %v, want %v (%v)", i, in.Action, want[i], fmt.Sprint(pending))
		}
	}
}

func TestStableDelete(t *testing.T) {
	s := NewStable()
	id := ids.NewObjectID()
	if err := put(s, id, State("x")); err != nil {
		t.Fatal(err)
	}
	if err := del(s, id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read after delete = %v", err)
	}
	if err := del(s, id); err != nil {
		t.Fatalf("double delete = %v", err)
	}
	s.Crash()
	if err := del(s, id); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Delete while crashed = %v", err)
	}
	s = restart(t, s)
}

func TestApplyBatchWithDeletes(t *testing.T) {
	s := NewStable()
	keep, drop := ids.NewObjectID(), ids.NewObjectID()
	if err := put(s, keep, State("k")); err != nil {
		t.Fatal(err)
	}
	if err := put(s, drop, State("d")); err != nil {
		t.Fatal(err)
	}
	// An after-force crash: the delete is durable with the writes.
	s.CrashDuringNextBatch(CrashAfterForce)
	err := s.ApplyBatch(Batch{
		Writes:  map[ids.ObjectID]State{keep: State("k2")},
		Deletes: []ids.ObjectID{drop},
	})
	if !errors.Is(err, ErrCrashed) {
		t.Fatal(err)
	}
	s = restart(t, s)
	if got, _ := s.Read(keep); string(got) != "k2" {
		t.Fatalf("keep = %q", got)
	}
	if _, err := s.Read(drop); !errors.Is(err, ErrNotFound) {
		t.Fatalf("drop survived the replayed delete: %v", err)
	}
}

// TestDisarmCrashes: an injection disarmed before any operation reached
// it never fires — neither a batch crash point nor a kill inside the
// next force — so a fault schedule can drop what a step armed and did
// not use.
func TestDisarmCrashes(t *testing.T) {
	s := NewStable()
	s.CrashDuringNextBatch(CrashBeforeForce)
	s.CrashDuringNextForce()
	s.DisarmCrashes()
	id := ids.NewObjectID()
	if err := put(s, id, State("v")); err != nil {
		t.Fatalf("write after disarming: %v", err)
	}
	in := Intention{Action: ids.NewActionID(), Status: IntentionPrepared}
	if err := s.Intentions().Record(in); err != nil {
		t.Fatalf("forced record after disarming: %v", err)
	}
	if s.Crashed() {
		t.Fatal("a disarmed injection crashed the store")
	}
}
