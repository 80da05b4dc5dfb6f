package rpc

import (
	"errors"
	"fmt"
	"testing"

	"mca/internal/netsim"
)

// markerErr is a transport-defined error carrying the TransientError
// marker, the way netsim and tcpnet declare theirs.
type markerErr struct{ transient bool }

func (e *markerErr) Error() string   { return "marker" }
func (e *markerErr) Transient() bool { return e.transient }

func TestIsTransientSend(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("boom"), false},
		{"marker", &markerErr{transient: true}, true},
		{"marker-false", &markerErr{transient: false}, false},
		{"wrapped marker", fmt.Errorf("send: %w", &markerErr{transient: true}), true},
		{"sentinel", ErrTransientSend, true},
		{"wrapped sentinel", fmt.Errorf("send: %w", ErrTransientSend), true},
		{"netsim unknown node", netsim.ErrUnknownNode, true},
		{"netsim crashed", fmt.Errorf("send: %w", netsim.ErrCrashed), true},
		{"netsim closed", netsim.ErrClosed, false},
	}
	for _, tc := range cases {
		if got := IsTransientSend(tc.err); got != tc.want {
			t.Errorf("IsTransientSend(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}
