//go:build !race

package object_test

const raceEnabled = false
