package rpc

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mca/internal/ids"
	"mca/internal/netsim"
)

// TestCallRawCarriesOpaqueBodies: request and reply bodies are bytes to
// this layer — not JSON, not text — and arrive exactly as sent.
func TestCallRawCarriesOpaqueBodies(t *testing.T) {
	a, b, _ := newPair(t, netsim.Config{}, Options{})
	b.Handle("rev", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		out := bytes.Clone(body)
		slices.Reverse(out)
		return out, nil
	})
	body := []byte{binMagic, 0x00, 0xFF, '{', 0x80}
	out, err := a.CallRaw(context.Background(), b.ID(), "rev", body)
	if err != nil {
		t.Fatalf("CallRaw = %v", err)
	}
	want := bytes.Clone(body)
	slices.Reverse(want)
	if !bytes.Equal(out, want) {
		t.Fatalf("reply body %x, want %x", out, want)
	}
}

// TestCallReportsUndecodableReply: a reply body that is not the JSON the
// caller of Call asked for is that caller's decode error, at once — not
// a dropped datagram and a timeout.
func TestCallReportsUndecodableReply(t *testing.T) {
	a, b, _ := newPair(t, netsim.Config{}, Options{CallTimeout: 30 * time.Second})
	b.Handle("bad", func(context.Context, ids.NodeID, []byte) ([]byte, error) {
		return []byte("[0][0]"), nil // malformed JSON
	})
	var resp echoResp
	err := a.Call(context.Background(), b.ID(), "bad", struct{}{}, &resp)
	if err == nil || !strings.Contains(err.Error(), "unmarshal reply") {
		t.Fatalf("Call = %v, want an unmarshal error", err)
	}
}

func TestEmptyHandlerReplyIsFine(t *testing.T) {
	a, b, _ := newPair(t, netsim.Config{}, Options{})
	b.Handle("void", func(context.Context, ids.NodeID, []byte) ([]byte, error) {
		return nil, nil
	})
	if err := a.Call(context.Background(), b.ID(), "void", struct{}{}, nil); err != nil {
		t.Fatalf("Call = %v", err)
	}
}

func TestCorruptDatagramIgnored(t *testing.T) {
	// Raw garbage on the wire must not break the peer.
	n := netsim.New(netsim.Config{})
	t.Cleanup(n.Close)
	epA, err := n.NewEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	epB, err := n.NewEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	pb := NewPeer(epB, Options{})
	pb.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		return body, nil
	})
	pb.Start()
	t.Cleanup(pb.Stop)

	if err := epA.Send(epB.ID(), []byte("not json at all")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)

	pa := NewPeer(epA, Options{})
	pa.Start()
	t.Cleanup(pa.Stop)
	if err := pa.Call(context.Background(), epB.ID(), "echo", struct{}{}, nil); err != nil {
		t.Fatalf("Call after garbage = %v", err)
	}
}

func TestInflightSuppressionUnderSlowHandler(t *testing.T) {
	// A handler slower than several retransmission intervals must
	// execute exactly once.
	var executions int
	release := make(chan struct{})
	a, b, _ := newPair(t, netsim.Config{},
		Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 5 * time.Second})
	b.Handle("slow", func(context.Context, ids.NodeID, []byte) ([]byte, error) {
		executions++ // single in-flight execution: no lock needed
		<-release
		return []byte("{}"), nil
	})
	done := make(chan error, 1)
	go func() {
		done <- a.Call(context.Background(), b.ID(), "slow", struct{}{}, nil)
	}()
	time.Sleep(100 * time.Millisecond) // ~20 retransmissions
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Call = %v", err)
	}
	if executions != 1 {
		t.Fatalf("handler executed %d times, want 1", executions)
	}
}

func TestReplyCacheEvictionBounded(t *testing.T) {
	a, b, _ := newPair(t, netsim.Config{}, Options{ReplyCache: 4})
	b.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		return body, nil
	})
	for i := 0; i < 50; i++ {
		if err := a.Call(context.Background(), b.ID(), "echo", i, nil); err != nil {
			t.Fatal(err)
		}
	}
	b.mu.Lock()
	cached := len(b.seen)
	b.mu.Unlock()
	if cached > 4 {
		t.Fatalf("reply cache grew to %d entries, bound is 4", cached)
	}
}

// TestBinaryOnWire taps the simulated network and asserts that every
// datagram two peers exchange is a binary envelope.
func TestBinaryOnWire(t *testing.T) {
	n := netsim.New(netsim.Config{})
	t.Cleanup(n.Close)
	var binaryFrames, otherFrames atomic.Int64
	n.SetTap(func(m netsim.Message) {
		if len(m.Payload) > 4 && m.Payload[4] == binMagic {
			binaryFrames.Add(1)
		} else {
			otherFrames.Add(1)
		}
	})
	epA, err := n.NewEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	epB, err := n.NewEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	a := NewPeer(epA, Options{RetryInterval: 200 * time.Millisecond})
	b := NewPeer(epB, Options{RetryInterval: 200 * time.Millisecond})
	b.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		return body, nil
	})
	a.Start()
	b.Start()
	t.Cleanup(a.Stop)
	t.Cleanup(b.Stop)

	for i := 0; i < 5; i++ {
		var resp echoResp
		if err := a.Call(context.Background(), b.ID(), "echo", echoReq{Text: "fast"}, &resp); err != nil {
			t.Fatal(err)
		}
	}
	if binaryFrames.Load() < 10 { // 5 requests + 5 replies minimum
		t.Fatalf("saw %d binary frames on the wire, want >= 10", binaryFrames.Load())
	}
	if otherFrames.Load() != 0 {
		t.Fatalf("saw %d non-binary frames", otherFrames.Load())
	}
}

// nullTransport is a transport black hole for white-box tests that
// never need real delivery.
type nullTransport struct{ id ids.NodeID }

func (n nullTransport) ID() ids.NodeID                { return n.id }
func (n nullTransport) Send(ids.NodeID, []byte) error { return nil }
func (n nullTransport) Recv(ctx context.Context) (Datagram, error) {
	<-ctx.Done()
	return Datagram{}, ctx.Err()
}

// TestReplyCacheRingReuse is the memory-regression half of the ring
// buffer fix: under sustained churn the eviction order must stay inside
// one fixed backing array (the old append-and-reslice order pinned an
// ever-growing one), the cache must track exactly the most recent
// entries, and evicted call ids must become cache misses again.
func TestReplyCacheRingReuse(t *testing.T) {
	p := NewPeerOn(nullTransport{id: 1}, Options{ReplyCache: 4})
	p.mu.Lock()
	for i := uint64(1); i <= 1000; i++ {
		p.cacheReply(i, envelope{CallID: i})
	}
	ringCap := cap(p.seenRing)
	cached := len(p.seen)
	_, oldestEvicted := p.seen[996]
	var missing []uint64
	for i := uint64(997); i <= 1000; i++ {
		if _, ok := p.seen[i]; !ok {
			missing = append(missing, i)
		}
	}
	p.mu.Unlock()
	if ringCap != 4 {
		t.Fatalf("ring backing array has cap %d after 1000 insertions, want exactly 4", ringCap)
	}
	if cached != 4 {
		t.Fatalf("cache holds %d entries, want 4", cached)
	}
	if oldestEvicted {
		t.Fatal("call id 996 still cached after 4 newer entries")
	}
	if missing != nil {
		t.Fatalf("recent call ids %v evicted early", missing)
	}
}
