//go:build invariants

package store

import (
	"fmt"
	"hash/crc32"

	"mca/internal/ids"
)

// stateSums holds the CRC-32C of every state the object cache holds,
// taken when the state was installed or replayed. The cache keeps the
// states it is given, uncopied, so a state somebody wrote after handing
// it over would change what the store reads back; check catches that
// with the object's id, where Read copies a state out and where
// compaction checkpoints the cache. Its methods run with the disk's mu
// held. Once every object has a sum, they allocate nothing.
type stateSums map[ids.ObjectID]uint32

func (s *stateSums) installed(id ids.ObjectID, st State) {
	if *s == nil {
		*s = make(stateSums)
	}
	(*s)[id] = crc32.Checksum(st, castagnoli)
}

func (s stateSums) deleted(id ids.ObjectID) { delete(s, id) }

// replayed takes the sums of a replayed cache, which replaces the last.
func (s *stateSums) replayed(data map[ids.ObjectID]State) {
	*s = make(stateSums, len(data))
	for id, st := range data {
		(*s)[id] = crc32.Checksum(st, castagnoli)
	}
}

// check panics unless st is the state installed for id, unchanged.
func (s stateSums) check(id ids.ObjectID, st State) {
	want, ok := s[id]
	if got := crc32.Checksum(st, castagnoli); !ok || got != want {
		panic(fmt.Sprintf("store invariant: the state of object %v was written after its install (crc32c %08x, installed %08x, recorded %v)", id, got, want, ok))
	}
}

func (s stateSums) checkAll(data map[ids.ObjectID]State) {
	for id, st := range data {
		s.check(id, st)
	}
}
