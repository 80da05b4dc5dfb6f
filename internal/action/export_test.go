package action

import (
	"testing"

	"mca/internal/ids"
)

// Active reports whether the action with this identifier has begun here
// and not yet completed.
func (r *Runtime) Active(id ids.ActionID) bool { return r.lookup(id) != nil }

// SetAfterGrant makes every step run fn between its lock grant and its
// apply until the test ends.
func SetAfterGrant(t testing.TB, fn func(*Action)) {
	afterGrant = fn
	t.Cleanup(func() { afterGrant = nil })
}
