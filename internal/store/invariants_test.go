//go:build invariants

package store

import (
	"fmt"
	"strings"
	"testing"

	"mca/internal/ids"
)

// TestWrittenStateIsCaught: under the invariants build tag, a state
// written after its install makes Read and compaction's snapshot panic
// with the object's id, on both backings; a replay takes fresh sums.
func TestWrittenStateIsCaught(t *testing.T) {
	for _, backing := range []string{"memory", "file"} {
		t.Run(backing, func(t *testing.T) {
			s := NewStable()
			if backing == "file" {
				var err error
				if s, err = NewStableAt(t.TempDir()); err != nil {
					t.Fatal(err)
				}
			}
			id := ids.NewObjectID()
			st := State("installed")
			if err := put(s, id, st); err != nil {
				t.Fatal(err)
			}
			if got, err := s.Read(id); err != nil || string(got) != "installed" {
				t.Fatalf("Read = %q, %v before any write", got, err)
			}
			st[0] = 'X' // breaks the ownership rule of Batch
			for name, op := range map[string]func(){
				"Read":     func() { _, _ = s.Read(id) },
				"snapshot": func() { s.d.snapshot() },
			} {
				if msg := panicOf(op); !strings.Contains(msg, fmt.Sprint(id)) {
					t.Errorf("%s of a written state panicked with %q, want a panic naming object %v", name, msg, id)
				}
			}
			if backing == "file" {
				// The log holds the state as it was forced.
				s = restart(t, s)
				if got, err := s.Read(id); err != nil || string(got) != "installed" {
					t.Fatalf("Read after a replay = %q, %v; want %q", got, err, "installed")
				}
			}
		})
	}
}

// panicOf runs op and returns what it panicked with, "" for no panic.
func panicOf(op func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	op()
	return ""
}
