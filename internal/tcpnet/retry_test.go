package tcpnet_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"mca/internal/ids"
	"mca/internal/rpc"
	"mca/internal/tcpnet"
)

// TestCallRetriesUntilDestinationRegisters is the cross-transport retry
// test: over TCP, a destination that is not yet in the caller's address
// book must make Call keep retransmitting (ErrUnknownNode is
// transient), not fail immediately; once the address registers, the
// call completes.
func TestCallRetriesUntilDestinationRegisters(t *testing.T) {
	// Two separate address books model two processes whose discovery
	// is not yet in sync: B knows A (so replies route), but A learns
	// B's address only after the call is already in flight.
	nwA, nwB := tcpnet.NewNetwork(), tcpnet.NewNetwork()
	epA, err := nwA.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(epA.Close)
	epB, err := nwB.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(epB.Close)
	nwB.Register(epA.ID(), epA.Addr())

	opts := rpc.Options{RetryInterval: 10 * time.Millisecond, CallTimeout: 5 * time.Second}
	pa, pb := rpc.NewPeerOn(epA, opts), rpc.NewPeerOn(epB, opts)
	pb.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		return body, nil
	})
	pa.Start()
	pb.Start()
	t.Cleanup(pa.Stop)
	t.Cleanup(pb.Stop)

	const registerAfter = 150 * time.Millisecond
	go func() {
		time.Sleep(registerAfter)
		nwA.Register(epB.ID(), epB.Addr())
	}()

	start := time.Now()
	var out string
	if err := pa.Call(context.Background(), epB.ID(), "echo", "hello", &out); err != nil {
		t.Fatalf("Call across late-registered destination = %v, want success", err)
	}
	if out != "hello" {
		t.Fatalf("echo = %q, want %q", out, "hello")
	}
	if elapsed := time.Since(start); elapsed < registerAfter {
		t.Fatalf("call completed in %v, before the destination registered at %v", elapsed, registerAfter)
	}
}

// TestLargeFrameRoundTrip pushes a payload several chunks long through
// a real connection, exercising the incremental frame reader.
func TestLargeFrameRoundTrip(t *testing.T) {
	nw := tcpnet.NewNetwork()
	a, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	b, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	in := inbox(b)

	payload := bytes.Repeat([]byte("large-frame-"), 30000) // ~350 KiB, > 5 chunks
	if err := a.Send(b.ID(), payload); err != nil {
		t.Fatal(err)
	}
	d := recvN(t, in, 1, 5*time.Second)[0]
	if d.From != a.ID() {
		t.Fatalf("frame from %v, want %v", d.From, a.ID())
	}
	if !bytes.Equal(d.Payload, payload) {
		t.Fatalf("payload mismatch: got %d bytes, want %d", len(d.Payload), len(payload))
	}
}
