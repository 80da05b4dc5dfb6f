//go:build race

package object_test

// raceEnabled reports a -race build, under which allocation counts mean
// nothing: the detector allocates.
const raceEnabled = true
