package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mca/internal/ids"
	"mca/internal/testenv"
)

// sampleRecords is one record of each kind, with every field in use.
func sampleRecords() []logRecord {
	in := Intention{
		Action:       7,
		Status:       IntentionCommitted,
		Coordinator:  3,
		Participants: []ids.NodeID{4, 5},
		Writes:       Batch{Writes: map[ids.ObjectID]State{9: State("nine")}, Deletes: []ids.ObjectID{10}},
	}
	return []logRecord{
		{kind: kindIntention, action: in.Action, in: in},
		{kind: kindForget, action: 7},
		{kind: kindBatch, batch: Batch{Writes: map[ids.ObjectID]State{1: State("one"), 2: {}}, Deletes: []ids.ObjectID{3, 300}}},
	}
}

func mustFrame(t testing.TB, r logRecord) []byte {
	t.Helper()
	frame, err := appendLogRecord(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// normBatch maps a batch onto comparable values: nil and empty states,
// maps and slices are the same batch.
func normBatch(b Batch) (map[ids.ObjectID]string, []ids.ObjectID) {
	w := make(map[ids.ObjectID]string, len(b.Writes))
	for id, st := range b.Writes {
		w[id] = string(st)
	}
	return w, append([]ids.ObjectID{}, b.Deletes...)
}

func sameRecord(a, b logRecord) bool {
	if a.kind != b.kind || a.action != b.action {
		return false
	}
	ab, bb := a.batch, b.batch
	if a.kind == kindIntention {
		x, y := a.in, b.in
		ab, bb = x.Writes, y.Writes
		x.Writes, y.Writes = Batch{}, Batch{}
		if len(x.Participants) == 0 && len(y.Participants) == 0 {
			x.Participants, y.Participants = nil, nil
		}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	aw, ad := normBatch(ab)
	bw, bd := normBatch(bb)
	return reflect.DeepEqual(aw, bw) && reflect.DeepEqual(ad, bd)
}

func TestLogRecordRoundTrip(t *testing.T) {
	var stream []byte
	for _, r := range sampleRecords() {
		stream = append(stream, mustFrame(t, r)...)
	}
	for i, want := range sampleRecords() {
		got, n, err := decodeLogRecord(stream)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !sameRecord(got, want) {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
		stream = stream[n:]
	}
	if len(stream) != 0 {
		t.Fatalf("%d bytes left after the last record", len(stream))
	}
}

// TestLogRecordGolden pins the on-disk bytes: a change here is a format
// change and needs a new logVersion.
func TestLogRecordGolden(t *testing.T) {
	got := hex.EncodeToString(mustFrame(t, logRecord{kind: kindForget, action: 300}))
	if want := "03000000" + "5086b9fa" + "02" + "ac02"; got != want {
		t.Fatalf("forget frame = %s, want %s", got, want)
	}
	in := Intention{Action: 1, Status: IntentionPrepared, Coordinator: 2,
		Writes: Batch{Writes: map[ids.ObjectID]State{5: State("v")}}}
	got = hex.EncodeToString(mustFrame(t, logRecord{kind: kindIntention, action: 1, in: in})[logHeaderLen:])
	if want := "01" + "01" + "01" + "02" + "00" + "01" + "05" + "01" + "76" + "00"; got != want {
		t.Fatalf("intention payload = %s, want %s", got, want)
	}
}

// TestLogRecordBitFlips flips every bit of every sample frame in turn:
// the decoder must reject each.
func TestLogRecordBitFlips(t *testing.T) {
	for _, r := range sampleRecords() {
		frame := mustFrame(t, r)
		for bit := 0; bit < len(frame)*8; bit++ {
			frame[bit/8] ^= 1 << (bit % 8)
			if _, _, err := decodeLogRecord(frame); err == nil {
				t.Fatalf("kind %d: flip of bit %d accepted", r.kind, bit)
			}
			frame[bit/8] ^= 1 << (bit % 8)
		}
	}
}

func TestLogRecordDecodeRejects(t *testing.T) {
	whole := mustFrame(t, sampleRecords()[2])
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, errLogTorn},
		{"short header", whole[:5], errLogTorn},
		{"short payload", whole[:len(whole)-1], errLogTorn},
		{"zero length", []byte{0, 0, 0, 0, 0, 0, 0, 0}, errLogTorn},
		{"huge length", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1}, errLogTorn},
		{"unknown kind", reframe(9, 1), errLogCorrupt},
		{"kind zero", reframe(0), errLogCorrupt},
		{"trailing bytes", reframe(byte(kindForget), 1, 1), errLogCorrupt},
		{"truncated uvarint", reframe(byte(kindForget), 0x80), errLogCorrupt},
		{"hostile count", reframe(byte(kindBatch), 0xFF, 0xFF, 0xFF, 0x7F), errLogCorrupt},
		{"bad status", reframe(byte(kindIntention), 1, 9, 1, 0, 0, 0, 0, 0), errLogCorrupt},
	}
	for _, tt := range cases {
		if _, _, err := decodeLogRecord(tt.buf); !errors.Is(err, tt.want) {
			t.Errorf("%s: err = %v, want %v", tt.name, err, tt.want)
		}
	}
}

// reframe wraps a payload in a valid header, so the body decoder — not
// the checksum — is what must reject it.
func reframe(payload ...byte) []byte {
	frame := append(make([]byte, logHeaderLen), payload...)
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	return reseal(frame)
}

// reseal recomputes the frame's checksum after a deliberate edit.
func reseal(frame []byte) []byte {
	binary.LittleEndian.PutUint32(frame[4:], frameChecksum(frame))
	return frame
}

// FuzzLogRecordDecode throws arbitrary bytes at the record decoder: it
// must never panic, anything it accepts must re-encode to a frame that
// decodes to the same record, and no single flipped bit of an accepted
// frame may be accepted. testdata/fuzz holds the committed corpus.
func FuzzLogRecordDecode(f *testing.F) {
	for _, r := range sampleRecords() {
		f.Add(mustFrame(f, r))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1})
	f.Add(mustFrame(f, sampleRecords()[2])[:11])

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := decodeLogRecord(data)
		if err != nil {
			return
		}
		frame, err := appendLogRecord(nil, &rec)
		if err != nil {
			t.Fatalf("re-encode of accepted record: %v", err)
		}
		again, _, err := decodeLogRecord(frame)
		if err != nil || !sameRecord(rec, again) {
			t.Fatalf("decode/encode/decode drift (%v):\n got %+v\nwant %+v", err, again, rec)
		}
		if n > 4096 {
			return // keep the quadratic flip sweep cheap
		}
		flipped := bytes.Clone(data[:n])
		for bit := 0; bit < n*8; bit++ {
			flipped[bit/8] ^= 1 << (bit % 8)
			if _, _, err := decodeLogRecord(flipped); err == nil {
				t.Fatalf("flip of bit %d accepted", bit)
			}
			flipped[bit/8] ^= 1 << (bit % 8)
		}
	})
}

// TestLogTornTailTruncatedOnOpen is the regression test for appends
// landing after a torn tail: the open must cut the garbage off, or every
// record written afterwards is unreachable on the next replay.
func TestLogTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walFilename)
	open := func() *Stable {
		t.Helper()
		s, err := NewStableAt(dir)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	first, second := ids.NewActionID(), ids.NewActionID()
	obj := ids.NewObjectID()
	if err := s.Intentions().Record(testIntention(first, "first")); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A crash mid-append: half of a further record reaches the file.
	half := mustFrame(t, logRecord{kind: kindBatch, batch: Batch{Writes: map[ids.ObjectID]State{obj: State("lost")}}})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(half[:len(half)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, truncated, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Fatal("open did not report the torn tail")
	}
	if now, _ := os.ReadFile(path); !bytes.Equal(now, whole) {
		t.Fatalf("log after open is %d bytes, want the %d valid ones", len(now), len(whole))
	}
	if err := s2.Intentions().Record(testIntention(second, "second")); err != nil {
		t.Fatal(err)
	}
	if err := put(s2, obj, State("kept")); err != nil {
		t.Fatal(err)
	}

	s3 := open()
	pending, err := s3.Intentions().Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 2 || pending[0].Action != first || pending[1].Action != second {
		t.Fatalf("Pending after torn write + append + reopen = %+v, want %v and %v", pending, first, second)
	}
	if got, err := s3.Read(obj); err != nil || string(got) != "kept" {
		t.Fatalf("Read = %q, %v; want the write made after the torn tail", got, err)
	}
}

func TestOpenRefusesLegacyLayout(t *testing.T) {
	cases := map[string]struct{ name, content, mention string }{
		"object file":    {"obj-12.state", "state", "obj-12.state"},
		"journal":        {"journal.pending", `{"writes":{},"deletes":[]}`, "journal.pending"},
		"json lines wal": {walFilename, `{"op":"record","action":1}` + "\n", "format byte"},
	}
	for name, tt := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, tt.name), []byte(tt.content), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := NewStableAt(dir); err == nil || !strings.Contains(err.Error(), tt.mention) {
				t.Fatalf("NewStableAt over legacy %s = %v, want an error naming %q", name, err, tt.mention)
			}
			if _, _, err := OpenFileStore(dir); err == nil {
				t.Fatalf("OpenFileStore over legacy %s opened", name)
			}
		})
	}
}

// TestOpenRejectsCorruptRecord: a frame whose checksum holds but whose
// body is not a record is not a torn tail, and must not be cut silently.
func TestOpenRejectsCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	frame := mustFrame(t, logRecord{kind: kindForget, action: 1})
	frame[logHeaderLen] = 9 // unknown kind
	reseal(frame)
	if err := os.WriteFile(filepath.Join(dir, walFilename), append([]byte{logVersion}, frame...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStableAt(dir); !errors.Is(err, errLogCorrupt) {
		t.Fatalf("NewStableAt = %v, want errLogCorrupt", err)
	}
}

// TestReplayRefusesMidLogDamage: a bad frame with a whole one after it is
// taken for bit rot in the middle of the log, not a torn tail. Whichever
// bit of the middle frame flips — in its length, its checksum or its
// body — the store must refuse to open, naming that frame's offset,
// rather than silently end the log there. The same flip in the last frame
// is a torn tail, cut as before.
func TestReplayRefusesMidLogDamage(t *testing.T) {
	frames := make([][]byte, 0, 3)
	for _, r := range sampleRecords() {
		frames = append(frames, mustFrame(t, r))
	}
	middle := 1 + len(frames[0])
	for _, bit := range []int{3, 40, 8*logHeaderLen + 5, 8*len(frames[1]) - 1} {
		file := append([]byte{logVersion}, bytes.Join(frames, nil)...)
		file[middle+bit/8] ^= 1 << (bit % 8)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFilename), file, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := NewStableAt(dir)
		if !errors.Is(err, errLogCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("offset %d", middle)) {
			t.Fatalf("bit %d of the middle frame flipped: NewStableAt = %v, want errLogCorrupt naming offset %d", bit, err, middle)
		}
	}

	last := 1 + len(frames[0]) + len(frames[1])
	file := append([]byte{logVersion}, bytes.Join(frames, nil)...)
	file[last+logHeaderLen] ^= 1
	if _, valid, err := replayLog(file); err != nil || valid != last {
		t.Fatalf("flip in the last frame: replay = %d valid bytes, %v; want the torn tail cut at %d", valid, err, last)
	}

	// The price, a documented hazard: a crash that wrote back the last
	// frame of an unforced append but not the one before it (zeroes where
	// a page never reached the disk) looks the same and is refused too,
	// although no record in it was acknowledged.
	file = append([]byte{logVersion}, bytes.Join(frames, nil)...)
	clear(file[middle : middle+len(frames[1])])
	if _, _, err := replayLog(file); !errors.Is(err, errLogCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("offset %d", middle)) {
		t.Fatalf("unforced tail persisted out of order: replay = %v, want errLogCorrupt naming offset %d", err, middle)
	}
}

// TestRecoverAfterCompactionCutsTornTail: after a compaction the log
// writes through the checkpoint's own handle, which is not in append
// mode, so cutting a torn tail must also move the write position back.
func TestRecoverAfterCompactionCutsTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := ids.NewObjectID(), ids.NewObjectID(), ids.NewObjectID()
	s.d.wal.file.compactAt = 0
	if err := put(s, a, State("checkpointed")); err != nil {
		t.Fatal(err)
	}
	if err := put(s, b, State("tail")); err != nil {
		t.Fatal(err)
	}
	// A short write of the log's own: half a frame through its handle.
	if _, err := s.d.wal.file.f.Write([]byte{200, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	s.Crash()
	s = restart(t, s)
	if err := put(s, c, State("after")); err != nil {
		t.Fatal(err)
	}
	s2, err := NewStableAt(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for id, want := range map[ids.ObjectID]string{a: "checkpointed", b: "tail", c: "after"} {
		if got, err := s2.Read(id); err != nil || string(got) != want {
			t.Fatalf("Read(%v) = %q, %v; want %q", id, got, err, want)
		}
	}
}

// TestCommittedIntentionInstallsItsWriteSet: a committed intention is the
// decision and the install in one record — its write set is in the object
// states when Record returns, is still there after a restart that replays
// the log, and survives a compaction that writes newer states after it.
// A prepared intention installs nothing; once replayed, it fences what it
// writes.
func TestCommittedIntentionInstallsItsWriteSet(t *testing.T) {
	dir := t.TempDir()
	open := func() *Stable {
		t.Helper()
		s, err := NewStableAt(dir)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for name, s := range map[string]*Stable{"memory": NewStable(), "file": open()} {
		t.Run(name, func(t *testing.T) {
			decided, prepared, gone := ids.NewObjectID(), ids.NewObjectID(), ids.NewObjectID()
			if err := put(s, gone, State("old")); err != nil {
				t.Fatal(err)
			}
			record := func(a ids.ActionID, st IntentionStatus, b Batch) {
				t.Helper()
				if err := s.Intentions().Record(Intention{Action: a, Status: st, Writes: b, Coordinator: 9}); err != nil {
					t.Fatal(err)
				}
			}
			record(1, IntentionCommitted, Batch{Writes: map[ids.ObjectID]State{decided: State("v1"), gone: State("v1")}})
			record(2, IntentionPrepared, Batch{Writes: map[ids.ObjectID]State{prepared: State("p")}})
			check := func(s *Stable, when string, wantDecided string, wantPrepared error) {
				t.Helper()
				if got, err := s.Read(decided); err != nil || string(got) != wantDecided {
					t.Fatalf("%s: decided object = %q, %v; want %q", when, got, err, wantDecided)
				}
				if _, ok := s.d.snapshot()[prepared]; ok {
					t.Fatalf("%s: a prepared intention installed its write set", when)
				}
				if _, err := s.Read(prepared); !errors.Is(err, wantPrepared) {
					t.Fatalf("%s: read of the prepared intention's object = %v, want %v", when, err, wantPrepared)
				}
			}
			check(s, "after Record", "v1", ErrNotFound)
			s.Crash()
			s = restart(t, s)
			check(s, "after a restart", "v1", ErrUnresolved)
			if name != "file" {
				return
			}
			// A later state and a later delete, then a checkpoint with the
			// committed intention still live: both must outlast its replay.
			if err := s.ApplyBatch(Batch{Writes: map[ids.ObjectID]State{decided: State("v2")}, Deletes: []ids.ObjectID{gone}}); err != nil {
				t.Fatal(err)
			}
			s.d.wal.file.compactAt = 0
			if err := put(s, ids.NewObjectID(), State("x")); err != nil {
				t.Fatal(err)
			}
			reopened := open()
			check(reopened, "after compaction and reopen", "v2", ErrUnresolved)
			if _, err := reopened.Read(gone); !errors.Is(err, ErrNotFound) {
				t.Fatalf("a deleted object came back with the checkpointed intention (err %v)", err)
			}
			if _, ok, _ := reopened.Intentions().Lookup(1); !ok {
				t.Fatal("the live committed intention did not survive the checkpoint")
			}
		})
	}
}

// referenceReplay is the replay as a fold of decodeLogRecord over the
// frames: every record decoded whole and applied in log order, the index
// holding each action's latest record until a forget. replayLog must
// agree with it on every log, damaged ones included.
func referenceReplay(file []byte) (*logImage, int, error) {
	img := &logImage{data: make(map[ids.ObjectID]State), index: make(map[ids.ActionID]Intention)}
	if len(file) == 0 {
		return img, 0, nil
	}
	if file[0] != logVersion {
		return nil, 0, fmt.Errorf("store: %s has format byte %#x, want version %d (a JSON-lines log of the per-object-file layout is not readable by this version)", walFilename, file[0], logVersion)
	}
	off := 1
	for off < len(file) {
		rec, n, err := decodeLogRecord(file[off:])
		if errors.Is(err, errLogTorn) {
			for next := off + 1; next+logHeaderLen <= len(file); next++ {
				if _, _, err := decodeLogRecord(file[next:]); !errors.Is(err, errLogTorn) {
					return nil, 0, fmt.Errorf("replay %s: damaged frame at offset %d, followed by a whole frame at offset %d: %w", walFilename, off, next, errLogCorrupt)
				}
			}
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("replay %s at offset %d: %w", walFilename, off, err)
		}
		switch rec.kind {
		case kindIntention:
			img.index[rec.action] = rec.in
		case kindForget:
			delete(img.index, rec.action)
		}
		if b, ok := rec.installs(); ok {
			for id, st := range b.Writes {
				img.data[id] = st
			}
			for _, id := range b.Deletes {
				delete(img.data, id)
			}
		}
		off += n
	}
	return img, off, nil
}

// fileOf returns a log holding the records, version byte first, with the
// offset at which each frame starts.
func fileOf(t testing.TB, recs ...logRecord) ([]byte, []int) {
	t.Helper()
	file := []byte{logVersion}
	starts := make([]int, 0, len(recs))
	for _, r := range recs {
		starts = append(starts, len(file))
		file = append(file, mustFrame(t, r)...)
	}
	return file, starts
}

// opsLog builds a log from ops, two bytes a record over four actions and
// five objects: the first byte picks the kind (an intention's status,
// coordinator and participants with it), the second the action, the
// objects written and whether one is deleted. Intentions of one action
// supersede one another, forgets drop them, and committed ones install
// their write sets.
func opsLog(t testing.TB, ops []byte) ([]byte, []int) {
	var recs []logRecord
	for i := 0; i+1 < len(ops); i += 2 {
		k, x := ops[i], ops[i+1]
		a := ids.ActionID(x%4 + 1)
		var w Batch
		if x%7 != 0 {
			w.Writes = map[ids.ObjectID]State{ids.ObjectID(x%5 + 1): {k, x}, ids.ObjectID(k%5 + 1): {}}
		}
		if x&0x80 != 0 {
			w.Deletes = []ids.ObjectID{ids.ObjectID(x>>3%5 + 1)}
		}
		switch k % 6 {
		case 0, 1:
			recs = append(recs, logRecord{kind: kindBatch, batch: w})
		case 2, 3, 4:
			in := Intention{Action: a, Status: IntentionStatus(k%6 - 1), Coordinator: ids.NodeID(k >> 4), Writes: w}
			for p := range k >> 6 {
				in.Participants = append(in.Participants, ids.NodeID(p+7))
			}
			recs = append(recs, logRecord{kind: kindIntention, action: a, in: in})
		case 5:
			recs = append(recs, logRecord{kind: kindForget, action: a})
		}
	}
	return fileOf(t, recs...)
}

// damageLog damages a log the ways a crash or a disk can, chosen by mode
// and placed by at: 0 leaves it whole; 1 cuts it (a torn tail); 2 flips
// a bit; 3 flips a payload bit and reseals its frame, so the checksum
// holds over a body that may not decode; 4 zeroes a whole frame (an
// unforced append persisted out of order); 5 appends garbage.
func damageLog(file []byte, starts []int, mode uint8, at uint32) []byte {
	if len(starts) == 0 {
		return append(file, byte(at), byte(at>>8))
	}
	pos := 1 + int(at%uint32(len(file)-1))
	frame := len(starts) - 1
	for frame > 0 && starts[frame] > pos {
		frame--
	}
	end := len(file)
	if frame+1 < len(starts) {
		end = starts[frame+1]
	}
	switch mode % 6 {
	case 1:
		file = file[:pos]
	case 2:
		file[pos] ^= 1 << (at >> 29)
	case 3:
		if pos < starts[frame]+logHeaderLen {
			pos = starts[frame] + logHeaderLen
		}
		file[pos] ^= 1 << (at >> 29)
		reseal(file[starts[frame]:end])
	case 4:
		clear(file[starts[frame]:end])
	case 5:
		file = append(file, byte(at), byte(at>>8), byte(at>>16), 0, 0, 0, 0, 0, byte(at>>24))
	}
	return file
}

// sameReplay reports how replayLog's answer for file differs from the
// reference's, or "" when it does not. A replay that succeeds counts
// every frame of the valid prefix in mca_store_replay_records_total.
func sameReplay(file []byte) (string, error) {
	want, wantValid, wantErr := referenceReplay(file)
	before := logReplayRecords.Value()
	got, valid, err := replayLog(file)
	counted := logReplayRecords.Value() - before
	switch {
	case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
		return fmt.Sprintf("error %v, reference %v", err, wantErr), wantErr
	case !errors.Is(err, errLogCorrupt) && errors.Is(wantErr, errLogCorrupt):
		return fmt.Sprintf("error %v is not errLogCorrupt", err), wantErr
	case err != nil:
		return "", err
	case valid != wantValid:
		return fmt.Sprintf("valid length %d, reference %d", valid, wantValid), nil
	case len(got.data) != len(want.data) || len(got.index) != len(want.index):
		return fmt.Sprintf("%d states and %d intentions, reference %d and %d", len(got.data), len(got.index), len(want.data), len(want.index)), nil
	}
	for id, st := range want.data {
		if g, ok := got.data[id]; !ok || string(g) != string(st) {
			return fmt.Sprintf("object %d = %q (present %v), reference %q", id, g, ok, st), nil
		}
	}
	for a, in := range want.index {
		g := got.index[a]
		if !sameRecord(logRecord{kind: kindIntention, action: a, in: g}, logRecord{kind: kindIntention, action: a, in: in}) {
			return fmt.Sprintf("intention %d = %+v, reference %+v", a, g, in), nil
		}
	}
	frames := uint64(0)
	for off := 1; off < valid; frames++ {
		_, n, err := decodeLogRecord(file[off:])
		if err != nil {
			return fmt.Sprintf("the valid prefix does not decode at offset %d: %v", off, err), nil
		}
		off += n
	}
	if counted != frames {
		return fmt.Sprintf("replay counted %d records, the valid prefix holds %d", counted, frames), nil
	}
	return "", nil
}

// TestReplayMatchesReference compares the streaming replay with the
// reference fold on seeded random logs, whole and damaged each way
// damageLog knows: the same image, valid length and error, offset
// included. Every outcome must occur: whole logs, cut tails and refusals.
func TestReplayMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var whole, cut, refused int
	for i := range 3000 {
		ops := make([]byte, 2*rng.Intn(40))
		rng.Read(ops)
		file, starts := opsLog(t, ops)
		file = damageLog(file, starts, uint8(i), rng.Uint32())
		diff, err := sameReplay(file)
		if diff != "" {
			t.Fatalf("case %d (ops % x, damage %d): %s", i, ops, i%6, diff)
		}
		_, valid, _ := referenceReplay(file)
		switch {
		case err != nil:
			refused++
		case valid < len(file):
			cut++
		default:
			whole++
		}
	}
	t.Logf("%d whole, %d cut at a torn tail, %d refused", whole, cut, refused)
	if whole == 0 || cut == 0 || refused == 0 {
		t.Fatalf("%d whole, %d cut, %d refused: a class of outcome never occurred", whole, cut, refused)
	}
}

// FuzzReplayMatchesReference: on any log opsLog builds and damageLog
// damages, the streaming replay and the reference fold give the same
// image, valid length and error.
func FuzzReplayMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for mode := range uint8(6) {
		ops := make([]byte, 24)
		rng.Read(ops)
		f.Add(ops, mode, rng.Uint32())
	}
	f.Fuzz(func(t *testing.T, ops []byte, mode uint8, at uint32) {
		if len(ops) > 512 {
			return
		}
		file, starts := opsLog(t, ops)
		if diff, _ := sameReplay(damageLog(file, starts, mode, at)); diff != "" {
			t.Fatal(diff)
		}
	})
}

// TestReplayRefusesMalformedWriteSet: an intention frame whose checksum
// holds but whose write set does not decode is refused, whatever its
// status, although a forget later drops its action: replay checks a write
// set it does not keep.
func TestReplayRefusesMalformedWriteSet(t *testing.T) {
	for _, st := range []IntentionStatus{IntentionPrepared, IntentionCommitted, IntentionAborted} {
		// One write, of object 9, whose state claims four bytes and has one.
		file := append([]byte{logVersion}, reframe(byte(kindIntention), 5, byte(st), 2, 0, 1, 9, 4, 'v')...)
		forget, _ := fileOf(t, logRecord{kind: kindForget, action: 5})
		file = append(file, forget[1:]...)
		if _, _, err := replayLog(file); !errors.Is(err, errLogCorrupt) || !strings.Contains(err.Error(), "offset 1:") {
			t.Errorf("%v intention with a malformed write set, then its forget: replay = %v, want errLogCorrupt at offset 1", st, err)
		}
	}
}

// TestReplaySupersededPreparedIsCommitted: a prepared record that a
// committed record of the same action follows replays as the committed
// one — status, participants and write set installed — and fences
// nothing in the store opened on it.
func TestReplaySupersededPreparedIsCommitted(t *testing.T) {
	const a, x = ids.ActionID(5), ids.ObjectID(1)
	writes := Batch{Writes: map[ids.ObjectID]State{x: State("new")}}
	file, _ := fileOf(t,
		logRecord{kind: kindBatch, batch: Batch{Writes: map[ids.ObjectID]State{x: State("old")}}},
		logRecord{kind: kindIntention, action: a, in: Intention{Action: a, Status: IntentionPrepared, Coordinator: 2, Writes: writes}},
		logRecord{kind: kindIntention, action: a, in: Intention{Action: a, Status: IntentionCommitted, Coordinator: 2, Participants: []ids.NodeID{4, 5}, Writes: writes}},
	)
	img, _, err := replayLog(file)
	if err != nil {
		t.Fatal(err)
	}
	if in := img.index[a]; in.Status != IntentionCommitted || !reflect.DeepEqual(in.Participants, []ids.NodeID{4, 5}) {
		t.Fatalf("replayed intention = %+v, want the committed record with participants [4 5]", in)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFilename), file, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read(x); err != nil || string(got) != "new" {
		t.Fatalf("Read = %q, %v; want the committed write, unfenced", got, err)
	}
}

// TestReplayInstallsForgottenCommittedIntention: a committed intention
// installs its write set at its place in the log even when a forget
// drops it later: a batch after it has the last word on what both write,
// and what only it writes keeps its value.
func TestReplayInstallsForgottenCommittedIntention(t *testing.T) {
	const a, x, y = ids.ActionID(5), ids.ObjectID(1), ids.ObjectID(2)
	file, _ := fileOf(t,
		logRecord{kind: kindBatch, batch: Batch{Writes: map[ids.ObjectID]State{x: State("v0"), y: State("v0")}}},
		logRecord{kind: kindIntention, action: a, in: Intention{Action: a, Status: IntentionCommitted, Coordinator: 2,
			Writes: Batch{Writes: map[ids.ObjectID]State{x: State("v1"), y: State("v1")}}}},
		logRecord{kind: kindBatch, batch: Batch{Writes: map[ids.ObjectID]State{y: State("v2")}}},
		logRecord{kind: kindForget, action: a},
	)
	img, _, err := replayLog(file)
	if err != nil {
		t.Fatal(err)
	}
	if string(img.data[x]) != "v1" || string(img.data[y]) != "v2" || len(img.index) != 0 {
		t.Fatalf("replay = objects %q and %q, %d intentions; want v1 and v2, none", img.data[x], img.data[y], len(img.index))
	}
}

// TestReplayAllocationsDoNotGrowWithTheLog: replay allocates for what it
// keeps — the image, the live states and the intentions left — not for
// every record it reads. A log of 2 000 prepared-then-forgotten
// intentions and their batch records over 8 objects costs no more than
// one of 20.
func TestReplayAllocationsDoNotGrowWithTheLog(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector allocates")
	}
	logOf := func(n int) []byte {
		var recs []logRecord
		for i := range n {
			a := ids.ActionID(i + 1)
			w := Batch{Writes: map[ids.ObjectID]State{ids.ObjectID(i%8 + 1): State(fmt.Sprint(i))}}
			recs = append(recs,
				logRecord{kind: kindIntention, action: a, in: Intention{Action: a, Status: IntentionPrepared, Coordinator: 2, Writes: w}},
				logRecord{kind: kindForget, action: a},
				logRecord{kind: kindBatch, batch: w})
		}
		file, _ := fileOf(t, recs...)
		return file
	}
	allocs := func(file []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, _, err := replayLog(file); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(logOf(20)), allocs(logOf(2000))
	t.Logf("replay of 20 intentions: %.0f allocations; of 2 000: %.0f", small, large)
	if large > small+4 {
		t.Fatalf("replay of 2 000 intentions allocates %.0f, of 20 %.0f: want at most 4 more", large, small)
	}
}
