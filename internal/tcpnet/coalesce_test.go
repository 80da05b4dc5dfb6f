package tcpnet_test

import (
	"context"
	"net"
	"testing"
	"time"

	"mca/internal/clock"
	"mca/internal/ids"
	"mca/internal/tcpnet"
)

// recvN drains n datagrams from e, failing the test on timeout.
func recvN(t *testing.T, e *tcpnet.Endpoint, n int, timeout time.Duration) []string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var got []string
	for len(got) < n {
		d, err := e.Recv(ctx)
		if err != nil {
			t.Fatalf("Recv after %d/%d datagrams: %v", len(got), n, err)
		}
		got = append(got, string(d.Payload))
	}
	return got
}

// TestCoalescingLingerBatchesUnderFakeClock drives the flush-on-idle
// path deterministically: with a large batch bound and a pending linger
// window on a fake clock, queued datagrams accumulate in the writer —
// nothing reaches the peer — until the clock advances, and then they
// all flush as one writev batch.
func TestCoalescingLingerBatchesUnderFakeClock(t *testing.T) {
	fake := clock.NewFake()
	nw := tcpnet.NewNetwork()
	nw.SetClock(fake)
	nw.SetCoalescing(1<<20, 256, 50*time.Millisecond)
	a := newEndpoint(t, nw)
	b := newEndpoint(t, nw)

	before := tcpnet.ReadWriterStats()
	const frames = 10
	for i := 0; i < frames; i++ {
		if err := a.Send(b.ID(), []byte{byte('a' + i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	// Wait for the writer to arm its linger timer and drain the queue
	// into its pending batch.
	deadline := time.Now().Add(2 * time.Second)
	for fake.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never armed its linger timer")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let the drain finish

	// The linger window is open: nothing may have been flushed yet.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	if _, err := b.Recv(ctx); err == nil {
		cancel()
		t.Fatal("datagram arrived before the linger window closed")
	}
	cancel()

	fake.Advance(50 * time.Millisecond)
	// A straggler frame the writer had not yet drained when the window
	// closed starts a second linger window; keep advancing until all
	// frames arrive so the test cannot hang on that scheduling race.
	received := 0
	hard := time.Now().Add(5 * time.Second)
	for received < frames {
		rctx, rcancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		_, err := b.Recv(rctx)
		rcancel()
		if err == nil {
			received++
			continue
		}
		if time.Now().After(hard) {
			t.Fatalf("received %d datagrams, want %d", received, frames)
		}
		fake.Advance(50 * time.Millisecond)
	}
	// The writer counts a batch after the writev returns, which the
	// receiver above can beat: give the counters a moment to catch up.
	after := tcpnet.ReadWriterStats()
	for settle := time.Now().Add(2 * time.Second); after.BatchFrames-before.BatchFrames < frames && time.Now().Before(settle); {
		time.Sleep(time.Millisecond)
		after = tcpnet.ReadWriterStats()
	}
	if n := after.BatchFrames - before.BatchFrames; n != frames {
		t.Fatalf("writer flushed %d frames, want %d", n, frames)
	}
	if n := after.Batches - before.Batches; n < 1 || n > 2 {
		t.Fatalf("flush took %d writev batches, want 1 (2 tolerated for a straggler), for %d frames", n, frames)
	}
}

// TestSendQueueDropsOnOverflow wedges a destination that accepts the
// connection but never reads: once the kernel buffers and the writer
// queue fill, Send must keep returning immediately and drop datagrams
// (UDP-style) instead of blocking the caller.
func TestSendQueueDropsOnOverflow(t *testing.T) {
	nw := tcpnet.NewNetwork()
	nw.SetCoalescing(256<<10, 4, 0)
	a := newEndpoint(t, nw)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	t.Cleanup(func() { close(hold) })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		<-hold // accept, never read, until the test tears down
	}()
	blackhole := ids.NodeID(424242)
	nw.Register(blackhole, ln.Addr().String())

	before := tcpnet.ReadWriterStats()
	payload := make([]byte, 64<<10)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ { // 25 MiB >> any kernel buffering
			if err := a.Send(blackhole, payload); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Send blocked: queue overflow must drop, not stall the caller")
	}
	after := tcpnet.ReadWriterStats()
	if after.QueueDrops == before.QueueDrops {
		t.Fatal("no queue drops recorded despite a wedged destination")
	}
}

// TestCrashRestartOverTCP checks the endpoint's fail-silence model:
// a crashed endpoint neither receives nor sends, and after Restart
// traffic flows again over freshly dialed connections.
func TestCrashRestartOverTCP(t *testing.T) {
	nw := tcpnet.NewNetwork()
	a := newEndpoint(t, nw)
	b := newEndpoint(t, nw)

	if err := a.Send(b.ID(), []byte("pre")); err != nil {
		t.Fatal(err)
	}
	if got := recvN(t, b, 1, 5*time.Second); got[0] != "pre" {
		t.Fatalf("got %q", got[0])
	}

	b.Crash()
	if !b.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
	if err := b.Send(a.ID(), []byte("x")); err != tcpnet.ErrCrashed {
		t.Fatalf("Send on crashed endpoint = %v, want ErrCrashed", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	if _, err := b.Recv(ctx); err != tcpnet.ErrCrashed {
		cancel()
		t.Fatalf("Recv on crashed endpoint = %v, want ErrCrashed", err)
	}
	cancel()
	// Datagrams to a crashed node are lost silently, like netsim.
	if err := a.Send(b.ID(), []byte("lost")); err != nil {
		t.Fatalf("Send to crashed node = %v, want nil (silent loss)", err)
	}

	b.Restart()
	// The first sends after the crash may be lost while a's cached
	// connection discovers it is broken; datagram semantics say retry.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	gotCh := make(chan string, 1)
	go func() {
		d, err := b.Recv(ctx2)
		if err == nil {
			gotCh <- string(d.Payload)
		}
	}()
	for {
		if err := a.Send(b.ID(), []byte("post")); err != nil {
			t.Fatalf("Send after restart: %v", err)
		}
		select {
		case got := <-gotCh:
			if got != "post" {
				t.Fatalf("got %q after restart", got)
			}
			return
		case <-time.After(50 * time.Millisecond):
		case <-ctx2.Done():
			t.Fatal("no datagram delivered after restart")
		}
	}
}
