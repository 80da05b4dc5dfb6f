//go:build race

package testenv

// Race reports a -race build (see race_off.go).
const Race = true
