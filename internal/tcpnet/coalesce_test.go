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

// counterValue reads an unlabelled counter from the registry /metrics
// is rendered from.
func counterValue(t *testing.T, name string) uint64 {
	t.Helper()
	fam, ok := metrics.Default().Find(name)
	if !ok || len(fam.Samples) != 1 {
		t.Fatalf("metric %s not registered as one unlabelled counter", name)
	}
	return uint64(fam.Samples[0].Value)
}

// TestConcurrentCallersShareWrites pins what the writer goroutine is
// for: 32 callers making echo calls over one loopback connection must
// share writev calls, at least 4 frames per write on average (requests
// and replies alike). Measured at 8-31 frames per write at -cpu=1,2,4;
// a transport in which each Send writes its own frame measures 1.0-1.3.
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
// connection but never reads: once the kernel buffers and the writer
// queue (256 frames) fill, Send must keep returning immediately and
// drop datagrams (UDP-style) instead of blocking the caller.
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

	before := counterValue(t, "mca_tcpnet_send_queue_drops_total")
	payload := make([]byte, 64<<10)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// 64 MiB: the 16 MiB a full queue holds plus far more than any
		// kernel buffers on a loopback connection.
		for i := 0; i < 1024; i++ {
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
	if counterValue(t, "mca_tcpnet_send_queue_drops_total") == before {
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
