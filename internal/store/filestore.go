package store

import "mca/internal/ids"

// FileStore is a stable object store backed by a directory on disk: the
// plain-store face of a log-structured Stable, without the crash
// simulation surface. Every write, delete and batch is one checksummed
// record appended to the directory's wal.log and forced before the call
// returns; a batch is atomic because its record is whole or absent.
// Reads are served from memory, which Open rebuilds by replaying the
// log.
//
// FileStore backs the "diskfull workstation" configuration of paper §2
// with real durability; the in-memory Stable store is the fast simulated
// equivalent used by most tests and benchmarks.
type FileStore struct {
	s *Stable
}

// OpenFileStore opens (creating if needed) a file store rooted at dir
// and replays its log. It returns the store and whether a torn log tail
// — an append that a crash interrupted, never acknowledged — was cut
// off.
func OpenFileStore(dir string) (*FileStore, bool, error) {
	s, truncated, err := openStableAt(dir)
	if err != nil {
		return nil, false, err
	}
	return &FileStore{s: s}, truncated, nil
}

var _ Store = (*FileStore)(nil)

// Read implements Store.
func (f *FileStore) Read(id ids.ObjectID) (State, error) { return f.s.Read(id) }

// Write implements Store: an atomic single-object write.
func (f *FileStore) Write(id ids.ObjectID, s State) error { return f.s.Write(id, s) }

// Delete implements Store.
func (f *FileStore) Delete(id ids.ObjectID) error { return f.s.Delete(id) }

// List implements Store.
func (f *FileStore) List() ([]ids.ObjectID, error) { return f.s.List() }

// ApplyBatch installs the batch atomically with respect to crashes.
func (f *FileStore) ApplyBatch(b Batch) error { return f.s.ApplyBatch(b) }
