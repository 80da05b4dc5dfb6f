package rpc

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mca/internal/ids"
	"mca/internal/netsim"
)

// recvCountingPipe is a Recv-only transport, the shape of the in-memory
// pipe bench/probes.go measures rpc.call_us over: it counts the Recv
// calls in progress.
type recvCountingPipe struct {
	*pipeTransport
	recvs *atomic.Int32
}

func (p recvCountingPipe) Recv(ctx context.Context) (Datagram, error) {
	p.recvs.Add(1)
	defer p.recvs.Add(-1)
	return p.pipeTransport.Recv(ctx)
}

// TestRecvOnlyTransportIsPumped pins the fallback for a transport with
// no SetDeliver: one goroutine pumps its Recv into the dispatch, calls
// complete over it, and Stop returns only once that goroutine has left
// Recv for good.
func TestRecvOnlyTransportIsPumped(t *testing.T) {
	var recvs atomic.Int32
	pa, pb := newPipe()
	a := NewPeerOn(recvCountingPipe{pa, &recvs}, Options{CallTimeout: 5 * time.Second})
	b := NewPeerOn(recvCountingPipe{pb, &recvs}, Options{CallTimeout: 5 * time.Second})
	b.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		return body, nil
	})
	a.Start()
	b.Start()
	for i := 0; i < 10; i++ {
		out, err := a.CallRaw(context.Background(), b.ID(), "echo", []byte{byte(i)})
		if err != nil || len(out) != 1 || out[0] != byte(i) {
			t.Fatalf("call %d over a Recv-only transport = %v, %v", i, out, err)
		}
	}
	a.Stop()
	b.Stop()
	if n := recvs.Load(); n != 0 {
		t.Fatalf("%d Recv calls still in progress after Stop", n)
	}
}

// pushPipe is a pushing transport that would also offer Recv: the peer
// must take the push path and never call Recv.
type pushPipe struct {
	id      ids.NodeID
	t       *testing.T
	mu      sync.Mutex
	deliver func(Datagram)
	peer    *pushPipe
}

func (p *pushPipe) ID() ids.NodeID { return p.id }

func (p *pushPipe) SetDeliver(fn func(Datagram)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.deliver = fn
}

func (p *pushPipe) Send(to ids.NodeID, payload []byte) error {
	p.peer.mu.Lock()
	fn := p.peer.deliver
	p.peer.mu.Unlock()
	if fn != nil {
		fn(Datagram{From: p.id, To: to, Payload: append([]byte(nil), payload...)})
	}
	return nil
}

func (p *pushPipe) Recv(ctx context.Context) (Datagram, error) {
	p.t.Error("Recv called on a transport that pushes")
	<-ctx.Done()
	return Datagram{}, ctx.Err()
}

// TestPushTransportGetsNoReceiveGoroutine: a transport with SetDeliver
// is attached by Start and detached by Stop, and no goroutine of the
// peer ever blocks in its Recv. Send here delivers on the sender's own
// goroutine, so the dispatch must not block it either.
func TestPushTransportGetsNoReceiveGoroutine(t *testing.T) {
	ta, tb := &pushPipe{id: 1, t: t}, &pushPipe{id: 2, t: t}
	ta.peer, tb.peer = tb, ta
	a := NewPeerOn(ta, Options{CallTimeout: 5 * time.Second})
	b := NewPeerOn(tb, Options{CallTimeout: 5 * time.Second})
	b.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		return body, nil
	})
	a.Start()
	b.Start()
	if _, err := a.CallRaw(context.Background(), b.ID(), "echo", []byte("x")); err != nil {
		t.Fatalf("call over a pushing transport: %v", err)
	}
	a.Stop()
	b.Stop()
	for _, p := range []*pushPipe{ta, tb} {
		p.mu.Lock()
		attached := p.deliver != nil
		p.mu.Unlock()
		if attached {
			t.Fatalf("transport %v still has a dispatch attached after Stop", p.id)
		}
	}
}

// TestStopRacesInboundDatagrams races deliveries against Stop: callers
// keep retransmitting to a peer that stops mid-traffic, while netsim's
// delivery goroutines are calling its dispatch. Stop must return with
// no send on a closed channel (the race detector and the runtime would
// report one), and no handler may start after it: once stragglers that
// passed the dispatch before Stop have had a grace period to show,
// the count of started handlers stays put while datagrams keep
// arriving. The peer is stopped and started again several times.
func TestStopRacesInboundDatagrams(t *testing.T) {
	n := netsim.New(netsim.Config{MaxDelay: time.Millisecond})
	t.Cleanup(n.Close)
	epA, err := n.NewEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	epB, err := n.NewEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	a := NewPeer(epA, Options{RetryInterval: time.Millisecond, CallTimeout: 20 * time.Millisecond})
	b := NewPeer(epB, Options{})
	var started atomic.Int64
	b.Handle("count", func(context.Context, ids.NodeID, []byte) ([]byte, error) {
		started.Add(1)
		return nil, nil
	})
	a.Start()
	t.Cleanup(a.Stop)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				// Calls time out while the server is stopped: only its
				// side is checked.
				_, _ = a.CallRaw(ctx, b.ID(), "count", nil)
			}
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
	}()

	for cycle := range 5 {
		b.Start()
		before := started.Load()
		time.Sleep(30 * time.Millisecond)
		if started.Load() == before {
			t.Fatalf("cycle %d: no handler ran while the peer was up", cycle)
		}
		b.Stop()
		time.Sleep(30 * time.Millisecond) // grace for handlers dispatched before Stop
		settled := started.Load()
		time.Sleep(50 * time.Millisecond)
		if now := started.Load(); now != settled {
			t.Fatalf("cycle %d: %d handlers started after Stop returned", cycle, now-settled)
		}
	}
}
