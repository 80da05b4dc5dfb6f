package tcpnet_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"mca/internal/ids"
	"mca/internal/metrics"
	"mca/internal/rpc"
	"mca/internal/tcpnet"
)

// counterValue reads an unlabelled counter from the registry /metrics
// is rendered from.
func counterValue(t testing.TB, name string) uint64 {
	t.Helper()
	fam, ok := metrics.Default().Find(name)
	if !ok || len(fam.Samples) != 1 {
		t.Fatalf("metric %s not registered as one unlabelled counter", name)
	}
	return uint64(fam.Samples[0].Value)
}

// TestConcurrentCallersShareWrites pins what the writer's yield is for:
// 32 callers making echo calls over one loopback connection must share
// writev calls, at least 4 frames per write on average (requests and
// replies alike). Measured at 9-31 frames per write at -cpu=1,2; a
// sender that writes its own frame without yielding measures 1.0-1.3
// (EXPERIMENTS.md E41).
func TestConcurrentCallersShareWrites(t *testing.T) {
	nw := tcpnet.NewNetwork()
	a := newEndpoint(t, nw)
	b := newEndpoint(t, nw)
	opts := rpc.Options{RetryInterval: time.Second, CallTimeout: 10 * time.Second}
	pa := rpc.NewPeerOn(a, opts)
	pb := rpc.NewPeerOn(b, opts)
	pb.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		return body, nil
	})
	pa.Start()
	pb.Start()
	t.Cleanup(pa.Stop)
	t.Cleanup(pb.Stop)

	ctx := context.Background()
	body := []byte("prepare txn 42")
	if _, err := pa.CallRaw(ctx, b.ID(), "echo", body); err != nil { // dial both ways
		t.Fatalf("CallRaw: %v", err)
	}

	frames0 := counterValue(t, "mca_tcpnet_write_batch_frames_total")
	writes0 := counterValue(t, "mca_tcpnet_write_batches_total")
	const callers = 32
	deadline := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if _, err := pa.CallRaw(ctx, b.ID(), "echo", body); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("CallRaw: %v", err)
	}
	frames := counterValue(t, "mca_tcpnet_write_batch_frames_total") - frames0
	writes := counterValue(t, "mca_tcpnet_write_batches_total") - writes0
	if writes == 0 {
		t.Fatal("no writes recorded")
	}
	perWrite := float64(frames) / float64(writes)
	t.Logf("%d frames in %d writes: %.1f frames per write", frames, writes, perWrite)
	if perWrite < 4 {
		t.Fatalf("%.1f frames per write, want >= 4: concurrent callers no longer share writes", perWrite)
	}
}

// TestSendQueueDropsOnOverflow wedges a destination that accepts the
// connection but never reads. A Send that writes blocks once the kernel
// buffers fill, but only until the write deadline (100 ms): the write
// then fails, the connection drops, and the next Send re-dials. So 1024
// sends of 64 KiB must finish within 10 s in total, and every datagram
// is accounted for: written, or counted as dropped (a failed write, or
// 256 frames already waiting behind one).
func TestSendQueueDropsOnOverflow(t *testing.T) {
	nw := tcpnet.NewNetwork()
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

	counters := func() (written, dropped uint64) {
		return counterValue(t, "mca_tcpnet_write_batch_frames_total"),
			counterValue(t, "mca_tcpnet_write_drops_total") + counterValue(t, "mca_tcpnet_send_queue_drops_total")
	}
	written0, dropped0 := counters()
	const sends = 1024
	payload := make([]byte, 64<<10)
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// 64 MiB: far more than any kernel buffers on a loopback
		// connection hold.
		for i := 0; i < sends; i++ {
			if err := a.Send(blackhole, payload); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Send blocked: a stalled destination must cost a write deadline, not stall the caller")
	}
	written, dropped := counters()
	written, dropped = written-written0, dropped-dropped0
	t.Logf("%d sends in %v: %d written, %d dropped", sends, time.Since(start).Round(time.Millisecond), written, dropped)
	if dropped == 0 {
		t.Fatal("no drops recorded despite a wedged destination")
	}
	// The counters are process-wide: a write still finishing for an
	// earlier test may add to them, never take away.
	if written+dropped < sends {
		t.Fatalf("%d written + %d dropped, want all %d datagrams accounted for", written, dropped, sends)
	}
}

// TestCrashRestartOverTCP checks the endpoint's fail-silence model:
// a crashed endpoint neither receives nor sends, and after Restart
// traffic flows again over freshly dialed connections.
func TestCrashRestartOverTCP(t *testing.T) {
	nw := tcpnet.NewNetwork()
	a := newEndpoint(t, nw)
	b := newEndpoint(t, nw)
	in := inbox(b)

	if err := a.Send(b.ID(), []byte("pre")); err != nil {
		t.Fatal(err)
	}
	if got := recvN(t, in, 1, 5*time.Second); string(got[0].Payload) != "pre" {
		t.Fatalf("got %q", got[0].Payload)
	}

	b.Crash()
	if !b.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
	if err := b.Send(a.ID(), []byte("x")); err != tcpnet.ErrCrashed {
		t.Fatalf("Send on crashed endpoint = %v, want ErrCrashed", err)
	}
	// Datagrams to a crashed node are lost silently, like netsim.
	if err := a.Send(b.ID(), []byte("lost")); err != nil {
		t.Fatalf("Send to crashed node = %v, want nil (silent loss)", err)
	}
	select {
	case d := <-in:
		t.Fatalf("crashed endpoint delivered %q", d.Payload)
	case <-time.After(100 * time.Millisecond):
	}

	b.Restart()
	// The first sends after the crash may be lost while a's cached
	// connection discovers it is broken; datagram semantics say retry.
	deadline := time.After(5 * time.Second)
	for {
		if err := a.Send(b.ID(), []byte("post")); err != nil {
			t.Fatalf("Send after restart: %v", err)
		}
		select {
		case d := <-in:
			if string(d.Payload) != "post" {
				t.Fatalf("got %q after restart", d.Payload)
			}
			return
		case <-time.After(50 * time.Millisecond):
		case <-deadline:
			t.Fatal("no datagram delivered after restart")
		}
	}
}
