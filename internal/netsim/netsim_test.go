package netsim

import (
	"errors"
	"testing"
	"time"
)

// inbox attaches a channel-backed deliver function to e, where an RPC
// peer attaches its dispatch, and returns the channel. Like the
// dispatch it never blocks: a message that finds the channel full is
// dropped.
func inbox(e *Endpoint, size int) <-chan Message {
	ch := make(chan Message, size)
	e.SetDeliver(func(m Message) {
		select {
		case ch <- m:
		default:
		}
	})
	return ch
}

func recvOne(t *testing.T, in <-chan Message, timeout time.Duration) (Message, bool) {
	t.Helper()
	select {
	case m := <-in:
		return m, true
	case <-time.After(timeout):
		return Message{}, false
	}
}

func TestReliableDelivery(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, err := n.NewEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.NewEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	inB := inbox(b, 16)

	if err := a.Send(b.ID(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	m, ok := recvOne(t, inB, time.Second)
	if !ok {
		t.Fatal("message not delivered")
	}
	if string(m.Payload) != "hello" || m.From != a.ID() || m.To != b.ID() {
		t.Fatalf("got %+v", m)
	}
}

func TestPayloadCopied(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, _ := n.NewEndpoint()
	b, _ := n.NewEndpoint()
	inB := inbox(b, 16)

	buf := []byte("abc")
	if err := a.Send(b.ID(), buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'z'
	m, ok := recvOne(t, inB, time.Second)
	if !ok {
		t.Fatal("not delivered")
	}
	if string(m.Payload) != "abc" {
		t.Fatalf("payload aliased sender's buffer: %q", m.Payload)
	}
}

func TestSendToUnknownNode(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, _ := n.NewEndpoint()
	if err := a.Send(99999, []byte("x")); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Send = %v, want ErrUnknownNode", err)
	}
}

func TestTotalLoss(t *testing.T) {
	n := New(Config{LossRate: 1.0})
	defer n.Close()
	a, _ := n.NewEndpoint()
	b, _ := n.NewEndpoint()
	inB := inbox(b, 16)

	for i := 0; i < 10; i++ {
		if err := a.Send(b.ID(), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := recvOne(t, inB, 50*time.Millisecond); ok {
		t.Fatal("message delivered despite 100% loss")
	}
	st := n.Stats()
	if st.Lost != 10 || st.Delivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDuplication(t *testing.T) {
	n := New(Config{DupRate: 1.0})
	defer n.Close()
	a, _ := n.NewEndpoint()
	b, _ := n.NewEndpoint()
	inB := inbox(b, 16)

	if err := a.Send(b.ID(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, inB, time.Second); !ok {
		t.Fatal("first copy missing")
	}
	if _, ok := recvOne(t, inB, time.Second); !ok {
		t.Fatal("duplicate copy missing")
	}
}

func TestDelayBounds(t *testing.T) {
	n := New(Config{MinDelay: 20 * time.Millisecond, MaxDelay: 40 * time.Millisecond})
	defer n.Close()
	a, _ := n.NewEndpoint()
	b, _ := n.NewEndpoint()
	inB := inbox(b, 16)

	start := time.Now()
	if err := a.Send(b.ID(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, inB, time.Second); !ok {
		t.Fatal("not delivered")
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("delivered after %v, want >= ~20ms", elapsed)
	}
}

func TestNodeDelay(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, _ := n.NewEndpoint()
	b, _ := n.NewEndpoint()
	inA, inB := inbox(a, 16), inbox(b, 16)

	// Both directions across the slow node's links pay the delay.
	n.SetNodeDelay(b.ID(), 30*time.Millisecond, 30*time.Millisecond)
	start := time.Now()
	if err := a.Send(b.ID(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, inB, time.Second); !ok {
		t.Fatal("not delivered to slow node")
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delivered to slow node after %v, want >= ~30ms", elapsed)
	}
	start = time.Now()
	if err := b.Send(a.ID(), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, inA, time.Second); !ok {
		t.Fatal("not delivered from slow node")
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delivered from slow node after %v, want >= ~30ms", elapsed)
	}

	// Zeroing removes the override; delivery still works.
	n.SetNodeDelay(b.ID(), 0, 0)
	if err := a.Send(b.ID(), []byte("z")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, inB, time.Second); !ok {
		t.Fatal("not delivered after clearing the delay")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, _ := n.NewEndpoint()
	b, _ := n.NewEndpoint()
	inA, inB := inbox(a, 16), inbox(b, 16)

	n.Partition(a.ID(), b.ID())
	if err := a.Send(b.ID(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, inB, 50*time.Millisecond); ok {
		t.Fatal("delivered across partition")
	}
	// Symmetric.
	if err := b.Send(a.ID(), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, inA, 50*time.Millisecond); ok {
		t.Fatal("delivered across partition (reverse)")
	}

	n.Heal(a.ID(), b.ID())
	if err := a.Send(b.ID(), []byte("z")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, inB, time.Second); !ok {
		t.Fatal("not delivered after heal")
	}
}

func TestCrashedEndpointFailSilent(t *testing.T) {
	n := New(Config{MinDelay: 20 * time.Millisecond, MaxDelay: 20 * time.Millisecond})
	defer n.Close()
	a, _ := n.NewEndpoint()
	b, _ := n.NewEndpoint()
	inB := inbox(b, 16)

	// Send a message, then crash before it arrives: it is lost.
	if err := a.Send(b.ID(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	b.Crash()

	if err := b.Send(a.ID(), []byte("y")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Send from crashed = %v, want ErrCrashed", err)
	}
	// Message sent while crashed is dropped.
	if err := a.Send(b.ID(), []byte("during")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)

	b.Restart()
	if m, ok := recvOne(t, inB, 50*time.Millisecond); ok {
		t.Fatalf("crashed node must lose in-flight and in-crash messages, got %q", m.Payload)
	}
	// New messages flow again.
	if err := a.Send(b.ID(), []byte("after")); err != nil {
		t.Fatal(err)
	}
	m, ok := recvOne(t, inB, time.Second)
	if !ok || string(m.Payload) != "after" {
		t.Fatalf("after restart: %q, %v", m.Payload, ok)
	}
}

// TestQueueOverflowDrops: the network queues nothing at a receiver. A
// receiver that keeps only 2 messages still has all 10 handed to it,
// every Send returns, and the 8 it cannot keep are its own drops.
func TestQueueOverflowDrops(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, _ := n.NewEndpoint()
	b, _ := n.NewEndpoint()
	inB := inbox(b, 2)

	for i := 0; i < 10; i++ {
		if err := a.Send(b.ID(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(time.Second)
	for n.Stats().Delivered < 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := n.Stats(); st.Delivered != 10 || st.Lost != 0 {
		t.Fatalf("stats = %+v, want all 10 handed to the receiver", st)
	}
	if len(inB) != 2 {
		t.Fatalf("receiver kept %d messages, want 2", len(inB))
	}
}

func TestUndeliverableWithoutReceiver(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, _ := n.NewEndpoint()
	b, _ := n.NewEndpoint()
	inB := inbox(b, 16)
	b.SetDeliver(nil)

	if err := a.Send(b.ID(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for n.Stats().Lost == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := n.Stats(); st.Lost != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v, want the message lost with no receiver attached", st)
	}
	if len(inB) != 0 {
		t.Fatal("a detached receiver got a message")
	}
}

func TestSetFaultsAtRuntime(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, _ := n.NewEndpoint()
	b, _ := n.NewEndpoint()
	inB := inbox(b, 16)

	n.SetFaults(1.0, 0)
	if err := a.Send(b.ID(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, inB, 50*time.Millisecond); ok {
		t.Fatal("delivered despite full loss")
	}
	n.SetFaults(0, 0)
	if err := a.Send(b.ID(), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, inB, time.Second); !ok {
		t.Fatal("not delivered after clearing faults")
	}
}

func TestCloseRejectsFurtherUse(t *testing.T) {
	n := New(Config{})
	a, _ := n.NewEndpoint()
	b, _ := n.NewEndpoint()
	n.Close()
	if err := a.Send(b.ID(), []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
	if _, err := n.NewEndpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewEndpoint after close = %v, want ErrClosed", err)
	}
}

func TestSeededRunsAreReproducible(t *testing.T) {
	run := func() Stats {
		n := New(Config{LossRate: 0.5, Seed: 7})
		defer n.Close()
		a, _ := n.NewEndpoint()
		b, _ := n.NewEndpoint()
		inbox(b, 100) // attached: only the loss draws lose messages
		for i := 0; i < 100; i++ {
			_ = a.Send(b.ID(), []byte{byte(i)})
		}
		time.Sleep(20 * time.Millisecond)
		st := n.Stats()
		return st
	}
	s1, s2 := run(), run()
	if s1.Lost != s2.Lost {
		t.Fatalf("seeded runs differ: %+v vs %+v", s1, s2)
	}
	if s1.Lost == 0 || s1.Lost == 100 {
		t.Fatalf("loss rate 0.5 produced degenerate %d/100", s1.Lost)
	}
}

func TestPartitionOneWay(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, _ := n.NewEndpoint()
	b, _ := n.NewEndpoint()
	inA, inB := inbox(a, 16), inbox(b, 16)

	n.PartitionOneWay(a.ID(), b.ID())
	// a -> b dropped.
	if err := a.Send(b.ID(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, inB, 50*time.Millisecond); ok {
		t.Fatal("delivered across one-way partition")
	}
	// b -> a still flows.
	if err := b.Send(a.ID(), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, inA, time.Second); !ok {
		t.Fatal("reverse direction must still deliver")
	}

	n.Heal(a.ID(), b.ID())
	if err := a.Send(b.ID(), []byte("z")); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, inB, time.Second); !ok {
		t.Fatal("not delivered after heal")
	}
}
