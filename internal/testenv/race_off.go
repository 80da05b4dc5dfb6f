//go:build !race

// Package testenv reports how the running binary was built, for tests
// whose assertions depend on it.
package testenv

// Race reports a -race build, under which allocation counts mean
// nothing: the detector allocates, and sync.Pool drops a quarter of
// what is put into it.
const Race = false
