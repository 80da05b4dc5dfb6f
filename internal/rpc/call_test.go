package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mca/internal/clock"
	"mca/internal/ids"
	"mca/internal/netsim"
	"mca/internal/testenv"
)

// countingTransport is a black hole that counts what is sent into it.
type countingTransport struct {
	nullTransport
	sends *atomic.Int64
}

func (c countingTransport) Send(ids.NodeID, []byte) error {
	c.sends.Add(1)
	return nil
}

// TestCallerDeadlineIsNotCallTimeout pins which of the two clocks ended
// a call. The caller's context runs on real time and the call timeout on
// the peer's (fake) clock, so each order can be forced: a caller whose
// deadline passes first gets its own context's error, counted as
// cancelled; ErrTimeout, counted as a timeout, is only ever the call
// timeout itself.
func TestCallerDeadlineIsNotCallTimeout(t *testing.T) {
	t.Run("caller deadline first", func(t *testing.T) {
		fake := clock.NewFake() // never advanced: the call timeout cannot elapse
		p := NewPeerOn(nullTransport{id: 1}, Options{Clock: fake, CallTimeout: time.Second})
		p.Start()
		defer p.Stop()
		cancelled, timedOut := callsCancelled.Value(), callsTimeout.Value()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		_, err := p.CallRaw(ctx, 2, "echo", nil)
		if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrTimeout) {
			t.Fatalf("CallRaw = %v, want the caller's context.DeadlineExceeded", err)
		}
		if callsCancelled.Value() != cancelled+1 || callsTimeout.Value() != timedOut {
			t.Fatalf("outcome counters moved by cancelled %d timeout %d, want 1 and 0",
				callsCancelled.Value()-cancelled, callsTimeout.Value()-timedOut)
		}
	})

	t.Run("call timeout first", func(t *testing.T) {
		fake := clock.NewFake()
		var sends atomic.Int64
		p := NewPeerOn(countingTransport{nullTransport{id: 1}, &sends},
			Options{Clock: fake, RetryInterval: 10 * time.Millisecond, CallTimeout: 35 * time.Millisecond})
		p.Start()
		defer p.Stop()
		cancelled, timedOut := callsCancelled.Value(), callsTimeout.Value()
		start := fake.Now()
		// A deadline the caller does have, far beyond the call timeout.
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		done := make(chan error, 1)
		go func() {
			_, err := p.CallRaw(ctx, 2, "echo", nil)
			done <- err
		}()
		var err error
		for waiting := true; waiting; {
			select {
			case err = <-done:
				waiting = false
			default:
				if fake.Pending() > 0 { // the call is parked on its timer
					fake.Advance(5 * time.Millisecond)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("CallRaw = %v, want ErrTimeout", err)
		}
		if callsTimeout.Value() != timedOut+1 || callsCancelled.Value() != cancelled {
			t.Fatalf("outcome counters moved by timeout %d cancelled %d, want 1 and 0",
				callsTimeout.Value()-timedOut, callsCancelled.Value()-cancelled)
		}
		// Sent at 0, retransmitted at 10, 20 and 30 ms; the timer's last
		// arming is the 5 ms left to the deadline, and sends nothing.
		if got := sends.Load(); got != 4 {
			t.Fatalf("request sent %d times, want 4", got)
		}
		if got := fake.Since(start); got != 35*time.Millisecond {
			t.Fatalf("call ended at +%v of virtual time, want +35ms", got)
		}
	})
}

// TestSlotReuseUnderLateDuplicates hammers the pooled reply slots the way
// a lossy LAN does: the network duplicates datagrams and delays them past
// the retry interval, so calls retransmit, servers replay cached replies,
// and duplicates of a finished call's reply keep arriving while its slot
// already serves another call. Every call carries its own number and must
// get exactly that number back.
func TestSlotReuseUnderLateDuplicates(t *testing.T) {
	a, b, _ := newPair(t,
		netsim.Config{DupRate: 0.5, MaxDelay: 3 * time.Millisecond, Seed: 16},
		Options{RetryInterval: time.Millisecond, CallTimeout: 20 * time.Second})
	b.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		return body, nil
	})
	const workers, perWorker = 8, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				want := binary.BigEndian.AppendUint64(nil, uint64(w)<<32|uint64(i))
				got, err := a.CallRaw(context.Background(), b.ID(), "echo", want)
				if err != nil {
					t.Errorf("worker %d call %d: %v", w, i, err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("worker %d call %d: got reply %x, want %x (another call's reply)", w, i, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if retransmits.Value() == 0 {
		t.Fatal("no call retransmitted: the schedule exercised no late duplicate")
	}
}

// pipeTransport is an in-memory datagram link between two peers of one
// test. Send copies the payload, as the Transport contract requires.
type pipeTransport struct {
	id    ids.NodeID
	inbox chan Datagram
	peer  *pipeTransport
}

func newPipe() (*pipeTransport, *pipeTransport) {
	// The buffer only has to hold what one sequential caller has in
	// flight: a request or its reply.
	a := &pipeTransport{id: 1, inbox: make(chan Datagram, 4)}
	b := &pipeTransport{id: 2, inbox: make(chan Datagram, 4)}
	a.peer, b.peer = b, a
	return a, b
}

func (p *pipeTransport) ID() ids.NodeID { return p.id }

func (p *pipeTransport) Send(to ids.NodeID, payload []byte) error {
	p.peer.inbox <- Datagram{From: p.id, To: to, Payload: bytes.Clone(payload)}
	return nil
}

func (p *pipeTransport) Recv(ctx context.Context) (Datagram, error) {
	select {
	case d := <-p.inbox:
		return d, nil
	case <-ctx.Done():
		return Datagram{}, ctx.Err()
	}
}

// timerCountingClock counts the timers and tickers made from it.
type timerCountingClock struct {
	clock.Clock
	made atomic.Int64
}

func (c *timerCountingClock) NewTimer(d time.Duration) clock.Timer {
	c.made.Add(1)
	return c.Clock.NewTimer(d)
}

func (c *timerCountingClock) NewTicker(d time.Duration) clock.Ticker {
	c.made.Add(1)
	return c.Clock.NewTicker(d)
}

// TestCallRawAllocs extends the envelope allocation gate to a whole call:
// CallRaw re-arms its pooled slot's timer instead of making a timer or a
// ticker (the pool may hand out a fresh slot when the caller changes
// processor, so the count is bounded by processors, not by calls), and a
// round trip allocates only what is not the call path's to save — the
// transport's two payload copies. A derived context, a reply channel or
// a ticker per call would each push it over the ceiling.
func TestCallRawAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not meaningful under -race")
	}
	clk := &timerCountingClock{Clock: clock.Real()}
	ta, tb := newPipe()
	opts := Options{Clock: clk, CallTimeout: 30 * time.Second}
	a, b := NewPeerOn(ta, opts), NewPeerOn(tb, opts)
	b.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		return body, nil
	})
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()

	ctx := context.Background()
	body := []byte{0xD1, 3, 42, 7}
	call := func() {
		if _, err := a.CallRaw(ctx, b.ID(), "echo", body); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ { // fill the reply cache ring, warm the pools
		call()
	}
	// A collection empties sync.Pools, and the next call would then make
	// a fresh slot and timer: keep the collector out of the measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	procs := int64(runtime.GOMAXPROCS(0))
	timers := clk.made.Load()
	allocs := testing.AllocsPerRun(1000, call)
	made := clk.made.Load() - timers
	t.Logf("CallRaw round trip: %.1f allocs, %d timers made over 1000 calls", allocs, made)
	if made > procs {
		t.Fatalf("%d timers or tickers made over 1000 steady-state calls, want at most one per processor (%d)", made, procs)
	}
	const ceiling = 3
	if allocs > ceiling {
		t.Fatalf("CallRaw round trip allocates %.1f objects, ceiling %d", allocs, ceiling)
	}
}
