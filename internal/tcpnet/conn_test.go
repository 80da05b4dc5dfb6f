package tcpnet_test

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"mca/internal/ids"
	"mca/internal/metrics"
	"mca/internal/rpc"
	"mca/internal/tcpnet"
)

// dialsOK reads mca_tcpnet_dials_total{outcome="ok"}.
func dialsOK(t *testing.T) uint64 {
	t.Helper()
	fam, ok := metrics.Default().Find("mca_tcpnet_dials_total")
	if !ok {
		t.Fatal("mca_tcpnet_dials_total not registered")
	}
	for _, s := range fam.Samples {
		if len(s.Labels) == 2 && s.Labels[1] == "ok" {
			return uint64(s.Value)
		}
	}
	return 0
}

// echoPeer starts an RPC peer on ep that answers "echo" with its body.
func echoPeer(t *testing.T, ep *tcpnet.Endpoint, opts rpc.Options) *rpc.Peer {
	t.Helper()
	p := rpc.NewPeerOn(ep, opts)
	p.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		return body, nil
	})
	p.Start()
	t.Cleanup(p.Stop)
	return p
}

// TestCallsDialOnceAndReadOncePerDatagram pins the connection rule and
// the read rule: a call and its reply between two fresh endpoints dial
// one connection (the reply rides the connection its request came in
// on), and on a warm connection each datagram costs about one read, not
// a read and a second one that finds the socket empty.
func TestCallsDialOnceAndReadOncePerDatagram(t *testing.T) {
	nw := tcpnet.NewNetwork()
	a, b := newEndpoint(t, nw), newEndpoint(t, nw)
	opts := rpc.Options{RetryInterval: time.Second, CallTimeout: 10 * time.Second}
	pa := echoPeer(t, a, opts)
	echoPeer(t, b, opts)
	ctx := context.Background()

	dials0 := dialsOK(t)
	if _, err := pa.CallRaw(ctx, b.ID(), "echo", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if d := dialsOK(t) - dials0; d != 1 {
		t.Fatalf("one call and its reply dialed %d connections, want 1", d)
	}

	const calls = 200
	reads0 := counterValue(t, "mca_tcpnet_reads_total")
	for range calls {
		if _, err := pa.CallRaw(ctx, b.ID(), "echo", []byte("ping")); err != nil {
			t.Fatal(err)
		}
	}
	perDatagram := float64(counterValue(t, "mca_tcpnet_reads_total")-reads0) / (2 * calls)
	t.Logf("%.2f reads per datagram", perDatagram)
	if perDatagram > 1.5 {
		t.Fatalf("%.2f reads per datagram, want at most 1.5: the read loop reads until it finds the socket empty", perDatagram)
	}
	if d := dialsOK(t) - dials0; d != 1 {
		t.Fatalf("%d calls dialed %d connections, want 1", calls+1, d)
	}
}

// rawFrame encodes a frame as tcpnet puts it on the wire.
func rawFrame(from ids.NodeID, payload string) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.BigEndian.AppendUint64(b, uint64(from))
	return append(b, payload...)
}

// TestCrashedEndpointAdoptsNoConnection drives B from raw sockets of a
// node X whose own address B must never dial. Crash closes the
// connection X dialed before it. A connection X dials while B is down is
// read and its frames dropped, and B does not adopt it: after Restart,
// B's reply to a request X sends on another connection returns on that
// one.
func TestCrashedEndpointAdoptsNoConnection(t *testing.T) {
	nw := tcpnet.NewNetwork()
	b := newEndpoint(t, nw)
	// A deliver function must not Send itself: echo from a goroutine.
	b.SetDeliver(func(d rpc.Datagram) {
		go func() { _ = b.Send(d.From, d.Payload) }()
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	dialedX := make(chan struct{}, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			c.Close()
			dialedX <- struct{}{}
		}
	}()
	const x = ids.NodeID(515151)
	nw.Register(x, ln.Addr().String())
	dial := func() net.Conn {
		c, err := net.Dial("tcp", b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	send := func(c net.Conn, payload string) {
		if _, err := c.Write(rawFrame(x, payload)); err != nil {
			t.Fatal(err)
		}
	}
	expectReply := func(c net.Conn, payload string) {
		t.Helper()
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		got := make([]byte, len(rawFrame(b.ID(), payload)))
		if _, err := io.ReadFull(c, got); err != nil {
			t.Fatalf("no reply %q on the request's connection: %v", payload, err)
		}
		if string(got) != string(rawFrame(b.ID(), payload)) {
			t.Fatalf("reply %q, want %q from B", got, payload)
		}
	}

	before := dial()
	send(before, "before")
	expectReply(before, "before")
	b.Crash()
	before.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := before.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on a connection B adopted, after B's crash = %v, want EOF", err)
	}

	read0 := counterValue(t, "mca_tcpnet_bytes_read_total")
	during := dial()
	send(during, "while down")
	for counterValue(t, "mca_tcpnet_bytes_read_total")-read0 < uint64(len("while down")) {
		time.Sleep(time.Millisecond)
	}
	b.Restart()
	after := dial()
	send(after, "after")
	expectReply(after, "after")

	during.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, err := during.Read(make([]byte, 1)); n != 0 || !isTimeout(err) {
		t.Fatalf("the connection dialed while B was down read %d bytes, %v; want nothing", n, err)
	}
	select {
	case <-dialedX:
		t.Fatal("B dialed X instead of answering on the request's connection")
	default:
	}
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// TestSimultaneousDialsLoseNoDatagram has two fresh endpoints send to
// each other at once, so both dial, many times over: each dial race
// leaves one or two connections for the pair, and every datagram
// arrives.
func TestSimultaneousDialsLoseNoDatagram(t *testing.T) {
	const (
		rounds = 20
		n      = 50
	)
	dials0 := dialsOK(t)
	for range rounds {
		nw := tcpnet.NewNetwork()
		a, b := newEndpoint(t, nw), newEndpoint(t, nw)
		inA, inB := inbox(a), inbox(b)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, ends := range [][2]*tcpnet.Endpoint{{a, b}, {b, a}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := range n {
					if err := ends[0].Send(ends[1].ID(), []byte{byte(i)}); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		for _, in := range []<-chan rpc.Datagram{inA, inB} {
			var seen [n]bool
			for _, d := range recvN(t, in, n, 5*time.Second) {
				if seen[d.Payload[0]] {
					t.Fatalf("datagram %d delivered twice", d.Payload[0])
				}
				seen[d.Payload[0]] = true
			}
		}
		a.Close()
		b.Close()
	}
	t.Logf("%d rounds dialed %d connections", rounds, dialsOK(t)-dials0)
}

// TestNoLostWakeup runs echo calls in both directions over one
// connection for about a second, with a retransmission interval far
// longer than that: a read loop that waited for a readiness notification
// that never came would stall a call until its retransmission. The
// slowest call must stay far below the interval.
func TestNoLostWakeup(t *testing.T) {
	const retry = 30 * time.Second
	nw := tcpnet.NewNetwork()
	a, b := newEndpoint(t, nw), newEndpoint(t, nw)
	opts := rpc.Options{RetryInterval: retry, CallTimeout: 2 * retry}
	pa, pb := echoPeer(t, a, opts), echoPeer(t, b, opts)
	ctx := context.Background()
	if _, err := pa.CallRaw(ctx, b.ID(), "echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	dials0 := dialsOK(t)

	deadline := time.Now().Add(time.Second)
	var (
		mu    sync.Mutex
		worst time.Duration
		calls int
		wg    sync.WaitGroup
	)
	for _, dir := range []struct {
		from *rpc.Peer
		to   ids.NodeID
	}{{pa, b.ID()}, {pb, a.ID()}} {
		for range 3 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					start := time.Now()
					if _, err := dir.from.CallRaw(ctx, dir.to, "echo", []byte("wake")); err != nil {
						t.Error(err)
						return
					}
					took := time.Since(start)
					mu.Lock()
					worst, calls = max(worst, took), calls+1
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	t.Logf("%d calls, slowest %v", calls, worst)
	if d := dialsOK(t) - dials0; d != 0 {
		t.Fatalf("the calls dialed %d more connections, want them all on one", d)
	}
	if worst > retry/10 {
		t.Fatalf("slowest call took %v, want far below the %v retransmission interval: a wake-up was lost", worst, retry)
	}
}

// gaugeValue reads an unlabelled gauge.
func gaugeValue(t *testing.T, name string) int64 {
	t.Helper()
	fam, ok := metrics.Default().Find(name)
	if !ok || len(fam.Samples) != 1 {
		t.Fatalf("metric %s not registered as one unlabelled gauge", name)
	}
	return int64(fam.Samples[0].Value)
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestSimultaneousDialsEndOnOneConnection has two fresh endpoints send to
// each other at once, so both may dial, over 20 rounds. Within a bounded
// time each end holds one open connection, which the gauge counts at both
// ends; every datagram arrives once, and a datagram each way afterwards
// rides that connection without a dial.
func TestSimultaneousDialsEndOnOneConnection(t *testing.T) {
	const (
		rounds = 20
		n      = 50
	)
	dials0 := dialsOK(t)
	for range rounds {
		open0 := gaugeValue(t, "mca_tcpnet_connections")
		nw := tcpnet.NewNetwork()
		a, b := newEndpoint(t, nw), newEndpoint(t, nw)
		inA, inB := inbox(a), inbox(b)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, ends := range [][2]*tcpnet.Endpoint{{a, b}, {b, a}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := range n {
					if err := ends[0].Send(ends[1].ID(), []byte{byte(i)}); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		for _, in := range []<-chan rpc.Datagram{inA, inB} {
			var seen [n]bool
			for _, d := range recvN(t, in, n, 5*time.Second) {
				if seen[d.Payload[0]] {
					t.Fatalf("datagram %d delivered twice", d.Payload[0])
				}
				seen[d.Payload[0]] = true
			}
		}
		// A dial that lost to a route made meanwhile was closed unused, and
		// the other end may accept it late: it stays open until read.
		onePair := func() bool {
			return a.OpenConns() == 1 && b.OpenConns() == 1 && gaugeValue(t, "mca_tcpnet_connections")-open0 == 2
		}
		waitFor(t, "the pair is on one connection, counted at both ends", onePair)
		dials := dialsOK(t)
		for _, ends := range [][2]*tcpnet.Endpoint{{a, b}, {b, a}} {
			if err := ends[0].Send(ends[1].ID(), []byte{n}); err != nil {
				t.Fatal(err)
			}
		}
		recvN(t, inA, 1, 5*time.Second)
		recvN(t, inB, 1, 5*time.Second)
		waitFor(t, "the pair stays on one connection", onePair)
		if d := dialsOK(t) - dials; d != 0 {
			t.Fatalf("a datagram each way over one connection dialed %d more", d)
		}
		a.Close()
		b.Close()
	}
	t.Logf("%d rounds dialed %d connections", rounds, dialsOK(t)-dials0)
}

// TestRestartedEndpointEndsOnOneConnection: B crashes while A's call to
// it retransmits, so A dials B while B is down; B restarts and calls A
// before A's next retransmission, dialing A too. Whichever of the two has
// the lower id, both calls return and the pair ends on one connection.
func TestRestartedEndpointEndsOnOneConnection(t *testing.T) {
	for _, crashed := range []string{"lower", "higher"} {
		t.Run(crashed, func(t *testing.T) {
			nw := tcpnet.NewNetwork()
			a, b := newEndpoint(t, nw), newEndpoint(t, nw) // a's id is the lower
			if crashed == "lower" {
				a, b = b, a
			}
			opts := rpc.Options{RetryInterval: 200 * time.Millisecond, CallTimeout: 10 * time.Second}
			pa, pb := echoPeer(t, a, opts), echoPeer(t, b, opts)
			ctx := context.Background()
			if _, err := pa.CallRaw(ctx, b.ID(), "echo", []byte("warm")); err != nil {
				t.Fatal(err)
			}
			dials0 := dialsOK(t)
			b.Crash()
			called := make(chan error, 1)
			go func() {
				_, err := pa.CallRaw(ctx, b.ID(), "echo", []byte("retransmitted"))
				called <- err
			}()
			waitFor(t, "A dials B while B is down", func() bool { return dialsOK(t) > dials0 })
			b.Restart()
			if _, err := pb.CallRaw(ctx, a.ID(), "echo", []byte("first after restart")); err != nil {
				t.Fatal(err)
			}
			if err := <-called; err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the pair is on one connection", func() bool { return a.OpenConns() == 1 && b.OpenConns() == 1 })
		})
	}
}

// TestRoutedPeerCloseIsSeenByTheNextSends bounds the hazard of a routed
// connection whose peer closed: the read loop may miss a FIN that came
// with the last frame, and the endpoint then learns of the close only
// from its own writes. A raw peer X routes to B, sends its last frame and
// closes. B's next Send, or at most the one after it, drops the
// connection within a second, and a later Send dials X again and is
// delivered there.
func TestRoutedPeerCloseIsSeenByTheNextSends(t *testing.T) {
	nw := tcpnet.NewNetwork()
	b := newEndpoint(t, nw)
	in := inbox(b)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	const x = ids.NodeID(616161)
	nw.Register(x, ln.Addr().String())

	c, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(rawFrame(x, "first")); err != nil {
		t.Fatal(err)
	}
	recvN(t, in, 1, 5*time.Second)
	if err := b.Send(x, []byte("routed")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(rawFrame(b.ID(), "routed")))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil || string(got) != string(rawFrame(b.ID(), "routed")) {
		t.Fatalf("B's Send to X did not ride X's connection: read %q, %v", got, err)
	}
	if _, err := c.Write(rawFrame(x, "last")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	recvN(t, in, 1, 5*time.Second)

	// B may have read the FIN and dropped the connection already; then
	// the first Send dials X. Either way, a connection X accepted means
	// B's route to X over the closed one is gone.
	dropped := func() bool { return b.OpenConns() == 0 || len(accepted) > 0 }
	start := time.Now()
	if err := b.Send(x, []byte("after close 1")); err != nil {
		t.Fatal(err)
	}
	sends := 1
	for !dropped() {
		if time.Since(start) > time.Second {
			t.Fatalf("%d Sends after X closed left the connection open for %v", sends, time.Since(start))
		}
		if sends == 1 && time.Since(start) > 100*time.Millisecond {
			if err := b.Send(x, []byte("after close 2")); err != nil {
				t.Fatal(err)
			}
			sends++
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("dropped after %d Sends, %v", sends, time.Since(start))

	if err := b.Send(x, []byte("redialed")); err != nil {
		t.Fatal(err)
	}
	var d net.Conn
	select {
	case d = <-accepted:
		t.Cleanup(func() { d.Close() })
	case <-time.After(5 * time.Second):
		t.Fatal("B did not dial X again")
	}
	// The Sends that found no route dialed too: their frames come first.
	d.SetReadDeadline(time.Now().Add(5 * time.Second))
	for want := string(rawFrame(b.ID(), "redialed")); ; {
		head := make([]byte, 12)
		if _, err := io.ReadFull(d, head); err != nil {
			t.Fatalf("X found no %q on B's new connection: %v", "redialed", err)
		}
		frame := append(head, make([]byte, binary.BigEndian.Uint32(head))...)
		if _, err := io.ReadFull(d, frame[12:]); err != nil {
			t.Fatal(err)
		}
		if string(frame) == want {
			break
		}
	}
	if n := b.OpenConns(); n != 1 || len(accepted) != 0 {
		t.Fatalf("B holds %d connections and X accepted %d more; want B's one dial", n, len(accepted))
	}
}
