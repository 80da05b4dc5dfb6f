// Package netsim simulates the communication subsystem of paper §2: a
// local area network whose faults are lost, duplicated and delayed
// messages. Higher layers (internal/rpc) implement the "well known network
// protocol level techniques" — retransmission and duplicate suppression —
// on top.
//
// The simulation is deliberately adversarial but controllable: loss and
// duplication rates, delay bounds and pairwise partitions are configured
// per network, and a seeded random source keeps runs reproducible.
//
// Delivery is pushed: each message's delivery goroutine (or delay timer)
// calls the function the destination endpoint was given with SetDeliver.
// An endpoint has no inbox, so nothing queues at a slow receiver; the
// RPC layer's dispatch never blocks.
package netsim

import (
	"errors"
	"sync"
	"time"

	"mca/internal/clock"
	"mca/internal/ids"
)

// Errors reported by the network layer.
var (
	// ErrClosed is returned after the network or endpoint is closed.
	ErrClosed = errors.New("netsim: closed")
	// ErrCrashed is returned by operations on a crashed endpoint
	// (fail-silence: a crashed node neither sends nor receives). It is
	// transient: a crashed node may be restarted.
	ErrCrashed error = &transientError{msg: "netsim: endpoint crashed"}
	// ErrUnknownNode is returned when sending to an unregistered node.
	// It is transient: the node may register later.
	ErrUnknownNode error = &transientError{msg: "netsim: unknown node"}
)

// transientError is a send error that may heal on retry. It satisfies
// the rpc layer's TransientError marker (declared there structurally,
// so no import is needed here): the RPC retransmission loop keeps
// retrying such failures instead of failing the call.
type transientError struct{ msg string }

func (e *transientError) Error() string   { return e.msg }
func (e *transientError) Transient() bool { return true }

// Message is one datagram.
type Message struct {
	From    ids.NodeID
	To      ids.NodeID
	Payload []byte
}

// Config tunes the simulated faults.
type Config struct {
	// LossRate is the probability in [0,1) that a message is dropped.
	LossRate float64
	// DupRate is the probability in [0,1) that a message is delivered
	// twice.
	DupRate float64
	// CorruptRate is the probability in [0,1) that a delivered
	// message's payload is corrupted (random byte flipped). Higher
	// layers detect corruption by failing to decode.
	CorruptRate float64
	// MinDelay and MaxDelay bound the per-message delivery delay.
	MinDelay time.Duration
	MaxDelay time.Duration
	// Seed makes runs reproducible; 0 selects a fixed default.
	Seed int64
	// Clock schedules delayed deliveries. Default clock.Real(); a
	// clock.Fake puts message delays under test control.
	Clock clock.Clock
}

// Network is a simulated LAN. Safe for concurrent use.
type Network struct {
	cfg Config

	mu         sync.Mutex
	rng        *clock.Rand // drawn under mu; clock.Rand is not concurrency-safe
	endpoints  map[ids.NodeID]*Endpoint
	partitions map[[2]ids.NodeID]struct{}
	oneWay     map[[2]ids.NodeID]struct{} // directed (src, dst) drops
	nodeDelay  map[ids.NodeID]delayRange  // extra delay on a node's links (SetNodeDelay)
	closed     bool

	wg sync.WaitGroup // in-flight delivery timers

	tap func(Message) // wire observer; see SetTap

	stats Stats
}

// Stats counts network-level events, for the experiment harness.
type Stats struct {
	Sent      int
	Delivered int
	Lost      int
	Duplied   int
	Corrupted int
}

// New builds a network with the given fault configuration.
func New(cfg Config) *Network {
	seed := cfg.Seed
	if seed == 0 {
		seed = 42
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	return &Network{
		cfg:        cfg,
		rng:        clock.NewRand(uint64(seed)),
		endpoints:  make(map[ids.NodeID]*Endpoint),
		partitions: make(map[[2]ids.NodeID]struct{}),
		oneWay:     make(map[[2]ids.NodeID]struct{}),
		nodeDelay:  make(map[ids.NodeID]delayRange),
	}
}

// delayRange is one node's extra link delay (SetNodeDelay).
type delayRange struct{ min, max time.Duration }

// SetNodeDelay adds an extra delivery delay to every message sent to
// or from the node — one slow peer on an otherwise healthy LAN, the
// fault-localization scenario of the attribution experiments. Each
// message draws uniformly from [min, max) (max <= min pins the delay
// at min); min and max both zero remove the override.
func (n *Network) SetNodeDelay(id ids.NodeID, min, max time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if min <= 0 && max <= 0 {
		delete(n.nodeDelay, id)
		return
	}
	n.nodeDelay[id] = delayRange{min: min, max: max}
}

// nodeDelayLocked draws the node's extra link delay. Caller holds n.mu.
func (n *Network) nodeDelayLocked(id ids.NodeID) time.Duration {
	r, ok := n.nodeDelay[id]
	if !ok {
		return 0
	}
	d := r.min
	if r.max > r.min {
		d += time.Duration(n.rng.Int63n(int64(r.max - r.min)))
	}
	return d
}

// Endpoint is one node's attachment to the network.
type Endpoint struct {
	id  ids.NodeID
	net *Network

	mu      sync.Mutex
	deliver func(Message) // SetDeliver's; nil drops what arrives
	crashed bool
	closed  bool
	crashes uint64
}

// NewEndpoint attaches a new node to the network.
func (n *Network) NewEndpoint() (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	e := &Endpoint{id: ids.NewNodeID(), net: n}
	n.endpoints[e.id] = e
	return e, nil
}

// ID returns the endpoint's node identifier.
func (e *Endpoint) ID() ids.NodeID { return e.id }

// SetDeliver installs the function every message delivered to the
// endpoint is handed to; nil drops them (they count as lost). It runs on
// the message's own delivery goroutine with no lock held, and should not
// block: Network.Close waits for every delivery.
func (e *Endpoint) SetDeliver(fn func(Message)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.deliver = fn
}

// Send transmits payload to the named node, subject to the configured
// loss, duplication, delay and partitions. A nil error means the message
// was accepted for (unreliable) transmission, not that it will arrive.
func (e *Endpoint) Send(to ids.NodeID, payload []byte) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if e.crashed {
		e.mu.Unlock()
		return ErrCrashed
	}
	e.mu.Unlock()
	return e.net.send(Message{From: e.id, To: to, Payload: payload})
}

func (n *Network) send(m Message) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	dst, ok := n.endpoints[m.To]
	if !ok {
		n.mu.Unlock()
		return ErrUnknownNode
	}
	dst.mu.Lock()
	crashes := dst.crashes // a crash before delivery loses the message
	dst.mu.Unlock()
	n.stats.Sent++
	msgSent.Inc()

	if n.partitionedLocked(m.From, m.To) {
		n.stats.Lost++
		msgLost.Inc()
		n.mu.Unlock()
		return nil // silently dropped, like a real partition
	}

	copies := 1
	if n.cfg.LossRate > 0 && n.rng.Float64() < n.cfg.LossRate {
		n.stats.Lost++
		msgLost.Inc()
		copies = 0
	} else if n.cfg.DupRate > 0 && n.rng.Float64() < n.cfg.DupRate {
		n.stats.Duplied++
		msgDuplied.Inc()
		copies = 2
	}

	// Copy the payload once: the sender may reuse its buffer.
	payload := make([]byte, len(m.Payload))
	copy(payload, m.Payload)
	m.Payload = payload

	if n.tap != nil {
		n.tap(m)
	}

	if n.cfg.CorruptRate > 0 && len(payload) > 0 && n.rng.Float64() < n.cfg.CorruptRate {
		payload[n.rng.Intn(len(payload))] ^= 0xFF
		n.stats.Corrupted++
		msgCorrupted.Inc()
	}

	for i := 0; i < copies; i++ {
		delay := n.cfg.MinDelay
		if n.cfg.MaxDelay > n.cfg.MinDelay {
			delay += time.Duration(n.rng.Int63n(int64(n.cfg.MaxDelay - n.cfg.MinDelay)))
		}
		delay += n.nodeDelayLocked(m.From) + n.nodeDelayLocked(m.To)
		n.wg.Add(1)
		if delay <= 0 {
			go n.deliver(dst, m, crashes)
		} else {
			msg := m
			n.cfg.Clock.AfterFunc(delay, func() { n.deliver(dst, msg, crashes) })
		}
	}
	n.mu.Unlock()
	return nil
}

// deliver hands m to dst's deliver function unless dst has crashed
// since it was sent, or has none.
func (n *Network) deliver(dst *Endpoint, m Message, crashes uint64) {
	defer n.wg.Done()
	dst.mu.Lock()
	fn := dst.deliver
	lost := dst.crashed || dst.closed || dst.crashes != crashes || fn == nil
	dst.mu.Unlock()
	n.mu.Lock()
	if lost {
		n.stats.Lost++
		msgLost.Inc()
	} else {
		n.stats.Delivered++
		msgDelivered.Inc()
	}
	n.mu.Unlock()
	if !lost {
		fn(m)
	}
}

// Crash makes the endpoint fail-silent: messages in flight to it and
// future ones are dropped, and Send fails, until Restart.
func (e *Endpoint) Crash() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed || e.closed {
		return
	}
	e.crashed = true
	e.crashes++
}

// Restart brings a crashed endpoint back; what was in flight to it
// before the crash stays lost.
func (e *Endpoint) Restart() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.crashed = false
}

// Close detaches the endpoint permanently.
func (e *Endpoint) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
}

func pairKey(a, b ids.NodeID) [2]ids.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]ids.NodeID{a, b}
}

// Partition drops all traffic between a and b until Heal.
func (n *Network) Partition(a, b ids.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions[pairKey(a, b)] = struct{}{}
}

// PartitionOneWay drops traffic from src to dst only (an asymmetric
// link fault: dst's messages still reach src). Heal removes it too.
func (n *Network) PartitionOneWay(src, dst ids.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.oneWay[[2]ids.NodeID{src, dst}] = struct{}{}
}

// Heal removes any partition (symmetric or one-way) between a and b.
func (n *Network) Heal(a, b ids.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitions, pairKey(a, b))
	delete(n.oneWay, [2]ids.NodeID{a, b})
	delete(n.oneWay, [2]ids.NodeID{b, a})
}

func (n *Network) partitionedLocked(a, b ids.NodeID) bool {
	if _, ok := n.partitions[pairKey(a, b)]; ok {
		return true
	}
	_, ok := n.oneWay[[2]ids.NodeID{a, b}]
	return ok
}

// SetTap installs an observer invoked for every accepted message (after
// loss/partition accounting, with the message's own payload copy, which
// the tap may retain). Tests use it to assert on wire bytes — e.g. that
// two binary-capable peers actually exchange binary envelopes. The tap
// runs under the network's lock: it must be fast and must not call back
// into the network. Pass nil to remove.
func (n *Network) SetTap(tap func(Message)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tap = tap
}

// SetFaults replaces the loss and duplication rates at runtime, so tests
// can inject fault phases.
func (n *Network) SetFaults(lossRate, dupRate float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.LossRate = lossRate
	n.cfg.DupRate = dupRate
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Close shuts the network down, waiting for in-flight deliveries.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	endpoints := make([]*Endpoint, 0, len(n.endpoints))
	for _, e := range n.endpoints {
		endpoints = append(endpoints, e)
	}
	n.mu.Unlock()
	for _, e := range endpoints {
		e.Close()
	}
	n.wg.Wait()
}
