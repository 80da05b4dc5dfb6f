package rpc

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"mca/internal/ids"
	"mca/internal/netsim"
)

// TestCallsSurviveCorruption drives calls over a network that flips
// bytes: the CRC framing must detect corrupted datagrams, drop them,
// and let retransmission win — and a corrupted request must never
// execute a handler with garbage input.
func TestCallsSurviveCorruption(t *testing.T) {
	a, b, nw := newPair(t,
		netsim.Config{CorruptRate: 0.4, Seed: 21},
		Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 10 * time.Second})

	var served atomic.Int64
	b.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		served.Add(1)
		return body, nil
	})

	type msg struct {
		Text string `json:"text"`
	}
	const calls = 25
	for i := 0; i < calls; i++ {
		var resp msg
		if err := a.Call(context.Background(), b.ID(), "echo", msg{Text: "payload"}, &resp); err != nil {
			t.Fatalf("call %d under corruption: %v", i, err)
		}
		if resp.Text != "payload" {
			t.Fatalf("call %d reply corrupted undetected: %+v", i, resp)
		}
	}
	if got := served.Load(); got != calls {
		t.Fatalf("handler served %d, want %d (at-most-once under corruption)", got, calls)
	}
	if st := nw.Stats(); st.Corrupted == 0 {
		t.Fatalf("no corruption injected, stats = %+v", st)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	env := envelope{Kind: kindRequest, CallID: 1, Origin: 2, Method: "echo", Body: []byte(`{"k":1}`)}
	framed := bytes.Clone(encodeFrame(new([]byte), &env))
	got, ok := verifyFrame(framed)
	if !ok || !bytes.Equal(got, appendEnvelope(nil, &env)) {
		t.Fatalf("round trip = %q, %v", got, ok)
	}

	// Any single flipped byte is caught.
	for i := range framed {
		dup := append([]byte(nil), framed...)
		dup[i] ^= 0xFF
		if _, ok := verifyFrame(dup); ok {
			t.Fatalf("flip at %d undetected", i)
		}
	}

	// Truncated frames are rejected.
	if _, ok := verifyFrame(framed[:3]); ok {
		t.Fatal("short frame accepted")
	}
}
