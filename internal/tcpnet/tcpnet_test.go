package tcpnet_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mca/internal/ids"
	"mca/internal/rpc"
	"mca/internal/tcpnet"
)

func newEndpoint(t *testing.T, nw *tcpnet.Network) *tcpnet.Endpoint {
	t.Helper()
	e, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(e.Close)
	return e
}

// inbox attaches a channel-backed deliver function to e, where an RPC
// peer would attach its dispatch, and returns the channel. Like the
// dispatch it never blocks the read loop: a datagram that finds the
// channel full is dropped.
func inbox(e *tcpnet.Endpoint) <-chan rpc.Datagram {
	ch := make(chan rpc.Datagram, 1024)
	e.SetDeliver(func(d rpc.Datagram) {
		select {
		case ch <- d:
		default:
		}
	})
	return ch
}

// recvN takes n datagrams from ch, failing the test on timeout.
func recvN(t *testing.T, ch <-chan rpc.Datagram, n int, timeout time.Duration) []rpc.Datagram {
	t.Helper()
	deadline := time.After(timeout)
	var got []rpc.Datagram
	for len(got) < n {
		select {
		case d := <-ch:
			got = append(got, d)
		case <-deadline:
			t.Fatalf("received %d of %d datagrams in %v", len(got), n, timeout)
		}
	}
	return got
}

func TestDatagramRoundTrip(t *testing.T) {
	nw := tcpnet.NewNetwork()
	a := newEndpoint(t, nw)
	b := newEndpoint(t, nw)
	in := inbox(b)

	if err := a.Send(b.ID(), []byte("over tcp")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	d := recvN(t, in, 1, 2*time.Second)[0]
	if string(d.Payload) != "over tcp" || d.From != a.ID() || d.To != b.ID() {
		t.Fatalf("datagram = %+v", d)
	}
}

func TestSendToUnknownNode(t *testing.T) {
	nw := tcpnet.NewNetwork()
	a := newEndpoint(t, nw)
	if err := a.Send(99999, []byte("x")); !errors.Is(err, tcpnet.ErrUnknownNode) {
		t.Fatalf("Send = %v, want ErrUnknownNode", err)
	}
}

func TestSendToDownNodeIsLostNotError(t *testing.T) {
	nw := tcpnet.NewNetwork()
	a := newEndpoint(t, nw)
	b := newEndpoint(t, nw)
	b.Close()
	// Datagram semantics: loss, not failure.
	if err := a.Send(b.ID(), []byte("x")); err != nil {
		t.Fatalf("Send to closed endpoint = %v, want nil (lost)", err)
	}
}

func TestClosedEndpointRejectsOps(t *testing.T) {
	nw := tcpnet.NewNetwork()
	a := newEndpoint(t, nw)
	a.Close()
	a.Close() // idempotent
	if err := a.Send(a.ID(), []byte("x")); !errors.Is(err, tcpnet.ErrClosed) {
		t.Fatalf("Send = %v, want ErrClosed", err)
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	nw := tcpnet.NewNetwork()
	a := newEndpoint(t, nw)
	b := newEndpoint(t, nw)
	huge := make([]byte, 17<<20)
	if err := a.Send(b.ID(), huge); !errors.Is(err, tcpnet.ErrTooLarge) {
		t.Fatalf("Send = %v, want ErrTooLarge", err)
	}
}

func TestManyMessagesInOrderOverOneConnection(t *testing.T) {
	nw := tcpnet.NewNetwork()
	a := newEndpoint(t, nw)
	b := newEndpoint(t, nw)
	in := inbox(b)

	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send(b.ID(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range recvN(t, in, n, 5*time.Second) {
		if d.Payload[0] != byte(i) {
			t.Fatalf("message %d out of order: got %d", i, d.Payload[0])
		}
	}
}

func TestRPCOverTCP(t *testing.T) {
	nw := tcpnet.NewNetwork()
	a := newEndpoint(t, nw)
	b := newEndpoint(t, nw)

	opts := rpc.Options{RetryInterval: 20 * time.Millisecond, CallTimeout: 5 * time.Second}
	pa := rpc.NewPeerOn(a, opts)
	pb := rpc.NewPeerOn(b, opts)
	pb.Handle("echo", func(_ context.Context, from ids.NodeID, body []byte) ([]byte, error) {
		return body, nil
	})
	pa.Start()
	pb.Start()
	t.Cleanup(pa.Stop)
	t.Cleanup(pb.Stop)

	type msg struct {
		Text string `json:"text"`
	}
	var resp msg
	if err := pa.Call(context.Background(), b.ID(), "echo", msg{Text: "tcp"}, &resp); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.Text != "tcp" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestRPCOverTCPConcurrent(t *testing.T) {
	nw := tcpnet.NewNetwork()
	a := newEndpoint(t, nw)
	b := newEndpoint(t, nw)

	opts := rpc.Options{RetryInterval: 20 * time.Millisecond, CallTimeout: 5 * time.Second}
	pa := rpc.NewPeerOn(a, opts)
	pb := rpc.NewPeerOn(b, opts)
	pb.Handle("double", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		var in []int
		if err := json.Unmarshal(body, &in); err != nil {
			return nil, err
		}
		return json.Marshal(append(in, in...))
	})
	pa.Start()
	pb.Start()
	t.Cleanup(pa.Stop)
	t.Cleanup(pb.Stop)

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []int
			errs <- pa.Call(context.Background(), b.ID(), "double", []int{i}, &out)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent call: %v", err)
		}
	}
}

func TestRPCOverTCPBidirectional(t *testing.T) {
	nw := tcpnet.NewNetwork()
	endpoints := make([]*tcpnet.Endpoint, 3)
	peers := make([]*rpc.Peer, 3)
	opts := rpc.Options{RetryInterval: 20 * time.Millisecond, CallTimeout: 5 * time.Second}
	for i := range endpoints {
		endpoints[i] = newEndpoint(t, nw)
		peers[i] = rpc.NewPeerOn(endpoints[i], opts)
		id := i
		peers[i].Handle("who", func(context.Context, ids.NodeID, []byte) ([]byte, error) {
			return []byte(fmt.Sprintf("%q", fmt.Sprint(id))), nil
		})
		peers[i].Start()
		t.Cleanup(peers[i].Stop)
	}
	for i := range peers {
		for j := range peers {
			if i == j {
				continue
			}
			var got string
			if err := peers[i].Call(context.Background(), endpoints[j].ID(), "who", struct{}{}, &got); err != nil {
				t.Fatalf("%d -> %d: %v", i, j, err)
			}
			if got != fmt.Sprintf("%d", j) {
				t.Fatalf("%d -> %d answered %q", i, j, got)
			}
		}
	}
}

func TestRPCOverTCPSurvivesReceiverRestart(t *testing.T) {
	// The caller's retransmission rides over a receiver that stops
	// and restarts its peer (connections break, new ones are dialed).
	nw := tcpnet.NewNetwork()
	a := newEndpoint(t, nw)
	b := newEndpoint(t, nw)

	opts := rpc.Options{RetryInterval: 20 * time.Millisecond, CallTimeout: 5 * time.Second}
	pa := rpc.NewPeerOn(a, opts)
	pb := rpc.NewPeerOn(b, opts)
	pb.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		return body, nil
	})
	pa.Start()
	pb.Start()
	t.Cleanup(pa.Stop)
	t.Cleanup(pb.Stop)

	if err := pa.Call(context.Background(), b.ID(), "echo", struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	pb.Stop()
	pb.Start()
	if err := pa.Call(context.Background(), b.ID(), "echo", struct{}{}, nil); err != nil {
		t.Fatalf("call after receiver restart: %v", err)
	}
}
