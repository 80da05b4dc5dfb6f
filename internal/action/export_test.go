package action

import "testing"

// SetAfterGrant makes every step run fn between its lock grant and its
// apply until the test ends.
func SetAfterGrant(t testing.TB, fn func(*Action)) {
	afterGrant = fn
	t.Cleanup(func() { afterGrant = nil })
}
