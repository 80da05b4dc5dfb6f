//go:build race

package dist

// raceEnabled reports a -race build, under which allocation counts mean
// nothing: the detector allocates, and sync.Pool drops a quarter of what
// is put into it.
const raceEnabled = true
