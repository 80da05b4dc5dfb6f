package diary_test

import (
	"errors"
	"testing"

	"mca/internal/action"
	"mca/internal/colour"
	"mca/internal/diary"
	"mca/internal/lock"
	"mca/internal/object"
	"mca/internal/store"
)

func group(rt *action.Runtime, people int, slots int, opts ...object.Option) []*diary.Diary {
	names := []string{"ada", "bob", "carol", "dan", "erin", "frank"}
	out := make([]*diary.Diary, people)
	for i := range out {
		out[i] = diary.NewDiary(names[i%len(names)], slots, opts...)
	}
	return out
}

func TestArrangeSimple(t *testing.T) {
	rt := action.NewRuntime()
	diaries := group(rt, 3, 10)
	s := diary.NewScheduler(rt, diaries...)

	chosen, err := s.Arrange([]int{2, 4, 6, 8}, "design review")
	if err != nil {
		t.Fatalf("Arrange: %v", err)
	}
	if chosen != 2 {
		t.Fatalf("chosen = %d, want the smallest free slot 2", chosen)
	}
	for _, d := range diaries {
		slot := d.Peek(chosen)
		if !slot.Busy || slot.Note != "design review" {
			t.Fatalf("%s slot %d = %+v", d.Owner(), chosen, slot)
		}
	}
}

func TestArrangeRespectsBusySlots(t *testing.T) {
	rt := action.NewRuntime()
	diaries := group(rt, 3, 10)
	s := diary.NewScheduler(rt, diaries...)

	// Slot 2 busy for one attendee, slot 4 for another.
	if err := diaries[0].BookDirect(rt, 2, "dentist"); err != nil {
		t.Fatal(err)
	}
	if err := diaries[1].BookDirect(rt, 4, "travel"); err != nil {
		t.Fatal(err)
	}
	chosen, err := s.Arrange([]int{2, 4, 6}, "meeting")
	if err != nil {
		t.Fatal(err)
	}
	if chosen != 6 {
		t.Fatalf("chosen = %d, want 6", chosen)
	}
}

func TestArrangeNoCommonSlot(t *testing.T) {
	rt := action.NewRuntime()
	diaries := group(rt, 2, 4)
	s := diary.NewScheduler(rt, diaries...)

	if err := diaries[0].BookDirect(rt, 1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := diaries[1].BookDirect(rt, 3, "y"); err != nil {
		t.Fatal(err)
	}
	_, err := s.Arrange([]int{1, 3}, "meeting")
	if !errors.Is(err, diary.ErrNoCommonSlot) {
		t.Fatalf("Arrange = %v, want ErrNoCommonSlot", err)
	}
	// Nothing was booked.
	for _, d := range diaries {
		for i := 0; i < d.Slots(); i++ {
			if sl := d.Peek(i); sl.Busy && sl.Note == "meeting" {
				t.Fatalf("spurious booking at %s[%d]", d.Owner(), i)
			}
		}
	}
}

func TestArrangeNarrowingRounds(t *testing.T) {
	// Fig 9: I1 selects candidates, I2..In narrow. The candidate
	// counts must be non-increasing and match the narrowing.
	rt := action.NewRuntime()
	diaries := group(rt, 4, 16)
	s := diary.NewScheduler(rt, diaries...)

	keepEven := func(cs []int) []int {
		var out []int
		for _, c := range cs {
			if c%2 == 0 {
				out = append(out, c)
			}
		}
		return out
	}
	keepLast := func(cs []int) []int {
		if len(cs) == 0 {
			return nil
		}
		return cs[len(cs)-1:]
	}

	chosen, err := s.Arrange([]int{1, 2, 3, 4, 5, 6, 7, 8}, "offsite", keepEven, keepLast)
	if err != nil {
		t.Fatal(err)
	}
	if chosen != 8 {
		t.Fatalf("chosen = %d, want 8 (evens, then last)", chosen)
	}
	rounds := s.RoundCandidates()
	if len(rounds) != 3 {
		t.Fatalf("rounds = %v", rounds)
	}
	if rounds[0] != 8 || rounds[1] != 4 || rounds[2] != 1 {
		t.Fatalf("candidate narrowing = %v, want [8 4 1]", rounds)
	}
}

func TestDroppedSlotsReleasedBetweenRounds(t *testing.T) {
	// The point of gluing rather than one big action: dropped slots
	// become available to others while the negotiation continues.
	rt := action.NewRuntime()
	diaries := group(rt, 2, 8)
	s := diary.NewScheduler(rt, diaries...)

	probeResult := make(chan error, 1)
	narrowAndProbe := func(cs []int) []int {
		// Keep only the first candidate; after this round commits,
		// the dropped ones must be externally lockable.
		return cs[:1]
	}
	finalCheck := func(cs []int) []int {
		// Runs in round 3 (after round 2 committed): probe slot 5,
		// dropped in round 2.
		outsider, err := rt.Begin()
		if err != nil {
			probeResult <- err
			return cs
		}
		err = outsider.TryLock(diaries[0].SlotObject(5).ObjectID(), lock.Write, colour.None)
		probeResult <- err
		_ = outsider.Abort()
		return cs
	}

	chosen, err := s.Arrange([]int{1, 5, 7}, "standup", narrowAndProbe, finalCheck)
	if err != nil {
		t.Fatal(err)
	}
	if chosen != 1 {
		t.Fatalf("chosen = %d", chosen)
	}
	if err := <-probeResult; err != nil {
		t.Fatalf("slot dropped in round 2 still locked in round 3: %v", err)
	}
}

func TestSlotsLockedDuringNegotiation(t *testing.T) {
	rt := action.NewRuntime()
	diaries := group(rt, 2, 8)
	s := diary.NewScheduler(rt, diaries...)

	locked := make(chan error, 1)
	probe := func(cs []int) []int {
		outsider, err := rt.Begin()
		if err != nil {
			locked <- err
			return cs
		}
		// A surviving candidate must be locked against outsiders.
		err = outsider.TryLock(diaries[0].SlotObject(cs[0]).ObjectID(), lock.Write, colour.None)
		locked <- err
		_ = outsider.Abort()
		return cs
	}
	if _, err := s.Arrange([]int{3, 4}, "sync", probe); err != nil {
		t.Fatal(err)
	}
	if err := <-locked; !errors.Is(err, lock.ErrConflict) {
		t.Fatalf("candidate slot lock probe = %v, want ErrConflict", err)
	}
}

func TestCommittedRoundsSurviveLaterFailure(t *testing.T) {
	// A later round failing does not undo earlier rounds' committed
	// effects (here: rounds only lock; the property shows as "no
	// bookings" plus no deadlocked locks).
	rt := action.NewRuntime()
	diaries := group(rt, 2, 6)
	s := diary.NewScheduler(rt, diaries...)

	killRound := func(cs []int) []int { return nil } // eliminates everything
	_, err := s.Arrange([]int{1, 2}, "doomed", killRound)
	if !errors.Is(err, diary.ErrNoCommonSlot) {
		t.Fatalf("Arrange = %v", err)
	}
	// All slots free and unlocked afterwards.
	outsider, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diaries {
		for i := 0; i < d.Slots(); i++ {
			if err := outsider.TryLock(d.SlotObject(i).ObjectID(), lock.Write, colour.None); err != nil {
				t.Fatalf("slot %s[%d] left locked: %v", d.Owner(), i, err)
			}
		}
	}
	_ = outsider.Abort()
}

func TestArrangePersistsBookings(t *testing.T) {
	rt := action.NewRuntime()
	st := store.NewStable()
	diaries := group(rt, 2, 4, object.WithStore(st))
	s := diary.NewScheduler(rt, diaries...)

	chosen, err := s.Arrange([]int{0, 1, 2, 3}, "quarterly")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diaries {
		loaded, err := object.Load[diary.Slot](d.SlotObject(chosen).ObjectID(), st)
		if err != nil {
			t.Fatalf("booked slot not stable: %v", err)
		}
		if got := loaded.Peek(); !got.Busy || got.Note != "quarterly" {
			t.Fatalf("stable slot = %+v", got)
		}
	}
}

func TestBookConflict(t *testing.T) {
	rt := action.NewRuntime()
	d := diary.NewDiary("ada", 3)
	if err := d.BookDirect(rt, 1, "first"); err != nil {
		t.Fatal(err)
	}
	if err := d.BookDirect(rt, 1, "second"); err == nil {
		t.Fatal("double booking must fail")
	}
	if got := d.Peek(1); got.Note != "first" {
		t.Fatalf("slot = %+v", got)
	}
}

func TestUnknownSlot(t *testing.T) {
	rt := action.NewRuntime()
	d := diary.NewDiary("ada", 2)
	if err := d.BookDirect(rt, 7, "x"); !errors.Is(err, diary.ErrUnknownSlot) {
		t.Fatalf("BookDirect = %v, want ErrUnknownSlot", err)
	}
}

func TestConcurrentSchedulersNeverDoubleBook(t *testing.T) {
	// Several meetings negotiated concurrently over overlapping
	// groups: glued chains must serialize slot access so no slot is
	// ever double-booked.
	rt := action.NewRuntime()
	people := group(rt, 4, 12)

	type job struct {
		diaries []*diary.Diary
		note    string
	}
	jobs := []job{
		{[]*diary.Diary{people[0], people[1]}, "m01"},
		{[]*diary.Diary{people[1], people[2]}, "m12"},
		{[]*diary.Diary{people[2], people[3]}, "m23"},
		{[]*diary.Diary{people[3], people[0]}, "m30"},
	}

	candidates := []int{1, 2, 3, 4, 5, 6, 7, 8}
	results := make(chan error, len(jobs))
	for _, j := range jobs {
		go func() {
			s := diary.NewScheduler(rt, j.diaries...)
			_, err := s.Arrange(candidates, j.note)
			results <- err
		}()
	}
	booked := 0
	for range jobs {
		err := <-results
		switch {
		case err == nil:
			booked++
		case errors.Is(err, diary.ErrNoCommonSlot),
			errors.Is(err, lock.ErrDeadlock),
			errors.Is(err, action.ErrAborted):
			// Overlapping groups form a contention ring: a scheduler
			// may lose a slot race or be picked as a deadlock victim.
			// Both are clean aborts; bookings must stay consistent.
		default:
			t.Fatalf("scheduler: %v", err)
		}
	}
	if booked == 0 {
		t.Fatal("no meeting was ever booked")
	}
	// Each diary's slots carry at most one note, and both attendees
	// of a meeting agree on the slot.
	notes := make(map[string][]int) // note -> slots seen
	for _, d := range people {
		for i := 0; i < d.Slots(); i++ {
			s := d.Peek(i)
			if s.Busy {
				notes[s.Note] = append(notes[s.Note], i)
			}
		}
	}
	for note, slots := range notes {
		for i := 1; i < len(slots); i++ {
			if slots[i] != slots[0] {
				t.Fatalf("meeting %q booked on different days: %v", note, slots)
			}
		}
	}
}

func TestDiaryPersistenceAcrossCrash(t *testing.T) {
	rt := action.NewRuntime()
	st := store.NewStable()
	d := diary.NewDiary("ada", 4, object.WithStore(st))
	s := diary.NewScheduler(rt, d)

	chosen, err := s.Arrange([]int{0, 1, 2, 3}, "1:1")
	if err != nil {
		t.Fatal(err)
	}
	st.Crash()
	st, err = st.Restart()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := object.Load[diary.Slot](d.SlotObject(chosen).ObjectID(), st)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Peek(); !got.Busy || got.Note != "1:1" {
		t.Fatalf("recovered slot = %+v", got)
	}
}
