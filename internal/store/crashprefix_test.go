package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mca/internal/ids"
)

// prefixOp is one step of the crash-prefix differential test, applicable
// to any Stable.
type prefixOp struct {
	name  string
	apply func(*Stable) error
	// logged is false for a step that appends nothing to the log (a
	// forget of an action with no record).
	logged bool
}

// stableImage is everything a Stable durably holds, in comparable form.
type stableImage struct {
	Objects    map[ids.ObjectID]string
	Intentions []Intention
}

func imageOf(t *testing.T, s *Stable) stableImage {
	t.Helper()
	img := stableImage{Objects: make(map[ids.ObjectID]string)}
	// The cache, not Read: a replayed prepared record fences its objects.
	for id, st := range s.d.snapshot() {
		img.Objects[id] = string(st)
	}
	pending, err := s.Intentions().Pending()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range pending {
		// Nil and empty collections are the same intention.
		w, d := normBatch(in.Writes)
		in.Writes = Batch{Deletes: d, Writes: make(map[ids.ObjectID]State, len(w))}
		for id, st := range w {
			in.Writes.Writes[id] = State(st)
		}
		in.Participants = append([]ids.NodeID{}, in.Participants...)
		img.Intentions = append(img.Intentions, in)
	}
	return img
}

// modelAfter feeds the ops to a fresh in-memory Stable: the reference a
// replayed log prefix must equal.
func modelAfter(t *testing.T, ops []prefixOp) stableImage {
	t.Helper()
	m := NewStable()
	for _, op := range ops {
		if err := op.apply(m); err != nil {
			t.Fatalf("model %s: %v", op.name, err)
		}
	}
	return imageOf(t, m)
}

// frameEnds walks the frames of a log file and returns the offset at
// which each ends.
func frameEnds(t *testing.T, file []byte) []int {
	t.Helper()
	var ends []int
	for off := 1; off < len(file); {
		_, n, err := decodeLogRecord(file[off:])
		if err != nil {
			t.Fatalf("log unreadable at offset %d: %v", off, err)
		}
		off += n
		ends = append(ends, off)
	}
	return ends
}

// reopenedImage opens a copy of the log cut to the given bytes.
func reopenedImage(t *testing.T, cut []byte) (stableImage, int64) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, walFilename)
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewStableAt(dir)
	if err != nil {
		t.Fatalf("reopen of a %d byte prefix: %v", len(cut), err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return imageOf(t, s), st.Size()
}

// TestCrashPrefixDifferential drives seeded random sequences of object
// batches, intention records, forgets and compactions through a
// file-backed Stable, then replays every crash the log could have
// suffered: cut at each record boundary, and at random byte offsets
// inside the last record. After reopening, the object states and the
// intention index must equal an in-memory Stable fed exactly the
// operations whose records the cut kept — no more (a torn record
// installs nothing), no less (every whole record counts).
func TestCrashPrefixDifferential(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runCrashPrefix(t, seed) })
	}
}

func runCrashPrefix(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	path := filepath.Join(dir, walFilename)
	s, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}

	objects := make([]ids.ObjectID, 6)
	for i := range objects {
		objects[i] = ids.NewObjectID()
	}
	actions := make([]ids.ActionID, 4)
	for i := range actions {
		actions[i] = ids.NewActionID()
	}
	randBatch := func() Batch {
		b := Batch{Writes: make(map[ids.ObjectID]State)}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			b.Writes[objects[rng.Intn(len(objects))]] = State(fmt.Sprintf("v%d", rng.Intn(1000)))
		}
		if rng.Intn(3) == 0 {
			b.Deletes = append(b.Deletes, objects[rng.Intn(len(objects))])
		}
		return b
	}

	var (
		ops  []prefixOp // everything done so far, in order
		base int        // ops[:base] are inside the current checkpoint
		live = map[ids.ActionID]bool{}
	)
	// checkGeneration replays every crash of the current log file:
	// the checkpoint plus the records appended since.
	checkGeneration := func() {
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ends := frameEnds(t, file)
		frames := len(ends)
		// The frames after the checkpoint are the logged ops since, in
		// order — up to the last forced one: forgets after it are still
		// lazy, in memory, and have no frame.
		var tail []prefixOp
		for _, op := range ops[base:] {
			if op.logged {
				tail = append(tail, op)
			}
		}
		for len(tail) > 0 && tail[len(tail)-1].name == "forget" {
			tail = tail[:len(tail)-1]
		}
		checkpointFrames := frames - len(tail)
		if checkpointFrames < 0 {
			t.Fatalf("log holds %d frames for %d forced-or-carried ops", frames, len(tail))
		}
		for k := checkpointFrames; k <= frames; k++ {
			kept := tail[:k-checkpointFrames]
			want := modelAfter(t, append(append([]prefixOp{}, ops[:base]...), kept...))
			cutAt := 1
			if k > 0 {
				cutAt = ends[k-1]
			}
			got, _ := reopenedImage(t, file[:cutAt])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: cut after frame %d/%d (%d ops kept):\n got %+v\nwant %+v", seed, k, frames, base+len(kept), got, want)
			}
			if k == frames-1 && frames > checkpointFrames {
				// Torn last record: random offsets strictly inside it.
				for i := 0; i < 4; i++ {
					inside := cutAt + 1 + rng.Intn(ends[k]-cutAt-1)
					got, size := reopenedImage(t, file[:inside])
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d: cut at byte %d inside the last record:\n got %+v\nwant %+v", seed, inside, got, want)
					}
					if size != int64(cutAt) {
						t.Fatalf("seed %d: reopen left %d bytes, want the torn tail cut back to %d", seed, size, cutAt)
					}
				}
			}
		}
	}

	for step := 0; step < 60; step++ {
		var op prefixOp
		switch r := rng.Intn(10); {
		case r < 4:
			b := randBatch()
			op = prefixOp{name: "batch", logged: true, apply: func(s *Stable) error { return s.ApplyBatch(b) }}
		case r < 7:
			a := actions[rng.Intn(len(actions))]
			in := Intention{Action: a, Status: IntentionStatus(1 + rng.Intn(3)), Coordinator: ids.NodeID(rng.Intn(4)),
				Writes: randBatch()}
			if rng.Intn(2) == 0 {
				in.Participants = []ids.NodeID{1, 2}
			}
			live[a] = true
			op = prefixOp{name: "record", logged: true, apply: func(s *Stable) error { return s.Intentions().Record(in) }}
		case r < 9:
			a := actions[rng.Intn(len(actions))]
			op = prefixOp{name: "forget", logged: live[a], apply: func(s *Stable) error { return s.Intentions().Forget(a) }}
			delete(live, a)
		default:
			// Compaction: the next forced record rewrites the log as a
			// checkpoint. Check the file it is about to replace first.
			checkGeneration()
			s.d.wal.file.compactAt = 0
			id, st := objects[rng.Intn(len(objects))], State(fmt.Sprintf("c%d", step))
			op = prefixOp{name: "write+compact", logged: true, apply: func(s *Stable) error { return put(s, id, st) }}
		}
		if err := op.apply(s); err != nil {
			t.Fatalf("step %d %s: %v", step, op.name, err)
		}
		ops = append(ops, op)
		if op.name == "write+compact" {
			base = len(ops) // the checkpoint holds everything so far
		}
	}
	checkGeneration()
}
