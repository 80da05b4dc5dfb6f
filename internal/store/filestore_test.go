package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mca/internal/ids"
)

func openTestStore(t *testing.T, dir string) *Stable {
	t.Helper()
	fs, _, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("OpenFileStore: %v", err)
	}
	return fs
}

func TestFileStoreBasics(t *testing.T) {
	fs := openTestStore(t, t.TempDir())
	id := ids.NewObjectID()

	if _, err := fs.Read(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read empty = %v, want ErrNotFound", err)
	}
	if err := put(fs, id, State("on disk")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read(id)
	if err != nil || string(got) != "on disk" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	if err := del(fs, id); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read after delete = %v, want ErrNotFound", err)
	}
}

func TestFileStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	id := ids.NewObjectID()
	fs := openTestStore(t, dir)
	if err := put(fs, id, State("persisted")); err != nil {
		t.Fatal(err)
	}

	// "Crash" = drop the handle, reopen the directory.
	fs2 := openTestStore(t, dir)
	got, err := fs2.Read(id)
	if err != nil || string(got) != "persisted" {
		t.Fatalf("Read after reopen = %q, %v", got, err)
	}
	if n := len(fs2.d.snapshot()); n != 1 {
		t.Fatalf("%d objects after reopen, want 1", n)
	}
}

func TestFileStoreBatchAtomic(t *testing.T) {
	dir := t.TempDir()
	fs := openTestStore(t, dir)
	a, b, c := ids.NewObjectID(), ids.NewObjectID(), ids.NewObjectID()
	if err := put(fs, c, State("victim")); err != nil {
		t.Fatal(err)
	}
	err := fs.ApplyBatch(Batch{
		Writes:  map[ids.ObjectID]State{a: State("A"), b: State("B")},
		Deletes: []ids.ObjectID{c},
	})
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if _, err := fs.Read(c); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete in batch not applied: %v", err)
	}
	for id, want := range map[ids.ObjectID]string{a: "A", b: "B"} {
		got, err := fs.Read(id)
		if err != nil || string(got) != want {
			t.Fatalf("Read(%v) = %q, %v", id, got, err)
		}
	}
	// The log is the store's only file: no journal, no per-object files.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != walFilename {
		t.Fatalf("directory after a batch = %v, %v; want just %s", entries, err, walFilename)
	}
}

// TestFileStoreBatchIsOneRecord cuts the log inside a batch's record, as
// a crash mid-append would: the reopened store shows none of the batch,
// and reports the cut.
func TestFileStoreBatchIsOneRecord(t *testing.T) {
	dir := t.TempDir()
	fs := openTestStore(t, dir)
	a, b := ids.NewObjectID(), ids.NewObjectID()
	if err := put(fs, a, State("old")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walFilename)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.ApplyBatch(Batch{Writes: map[ids.ObjectID]State{a: State("new"), b: State("B")}}); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, (before.Size()+after.Size())/2); err != nil {
		t.Fatal(err)
	}

	fs2, truncated, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("OpenFileStore: %v", err)
	}
	if !truncated {
		t.Fatal("open must report the torn tail it cut")
	}
	if got, err := fs2.Read(a); err != nil || string(got) != "old" {
		t.Fatalf("Read(a) = %q, %v; want the state before the torn batch", got, err)
	}
	if _, err := fs2.Read(b); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read(b) = %v; half a batch must install nothing", err)
	}
}

func TestFileStoreBinaryStates(t *testing.T) {
	fs := openTestStore(t, t.TempDir())
	id := ids.NewObjectID()
	blob := make(State, 256)
	for i := range blob {
		blob[i] = byte(i)
	}
	if err := put(fs, id, blob); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read(id)
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("binary round trip failed: %v", err)
	}
}

func TestFileStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := openTestStore(t, dir)
	id := ids.NewObjectID()
	if err := put(fs, id, State("real")); err != nil {
		t.Fatal(err)
	}
	reopened := openTestStore(t, dir)
	if got, err := reopened.Read(id); err != nil || string(got) != "real" || len(reopened.d.snapshot()) != 1 {
		t.Fatalf("reopened store = %v (Read(%v) = %q, %v); want just that object", reopened.d.snapshot(), id, got, err)
	}
}
