// Package tcpnet is a real-network transport for the RPC layer: length-
// prefixed datagrams over TCP on the loopback (or any) interface. It
// implements rpc.Transport, so every protocol built for the simulated
// LAN — at-most-once RPC, two-phase commit, the replicated name server —
// runs unchanged over actual sockets.
//
// A Network is the address book mapping node identifiers to listen
// addresses; in a real deployment it would be static configuration or a
// discovery service. Endpoints reuse one outbound connection per
// destination and accept any number of inbound connections.
//
// Delivery is pushed: each inbound connection's read loop hands every
// frame to the SetDeliver function (the RPC peer's dispatch).
//
// The send path coalesces with no goroutine of its own. A Send that
// finds no write in flight becomes the writer: it yields so that
// runnable senders can stage their frames, then writes them all in one
// writev, as the WAL's group commit shares fsyncs, by the same rule:
// whoever finds the device idle uses it. A Send that finds a write in
// flight stages its frame and returns. A full stage (256 frames) drops
// the datagram, and a write a stalled peer holds past its deadline
// drops the connection: the RPC layer's retransmission owns
// reliability, as against a full UDP buffer.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"mca/internal/clock"
	"mca/internal/ids"
	"mca/internal/rpc"
)

// Errors reported by the transport.
var (
	// ErrClosed is returned by operations on a closed endpoint.
	ErrClosed = errors.New("tcpnet: endpoint closed")
	// ErrCrashed is returned by operations on a crashed endpoint
	// (fail-silence, matching netsim: a crashed node neither sends nor
	// receives until Restart). It is transient: the node may restart.
	ErrCrashed error = &transientError{msg: "tcpnet: endpoint crashed"}
	// ErrUnknownNode is returned when no address is registered for
	// the destination. It is transient (it satisfies rpc's
	// TransientError marker): the node may register later, so the RPC
	// layer keeps retransmitting instead of failing the call.
	ErrUnknownNode error = &transientError{msg: "tcpnet: unknown node"}
	// ErrTooLarge is returned for payloads above the frame limit.
	ErrTooLarge = errors.New("tcpnet: payload too large")
)

// transientError is a send error that may heal on retry; see
// rpc.TransientError.
type transientError struct{ msg string }

func (e *transientError) Error() string   { return e.msg }
func (e *transientError) Transient() bool { return true }

// maxFrame bounds a single datagram (16 MiB): defends the reader
// against corrupt length prefixes.
const maxFrame = 16 << 20

// readChunk is the unit in which large frame payloads are read: the
// reader allocates at most this much ahead of the bytes actually
// received, so a corrupt length prefix cannot force a 16 MiB
// allocation per connection.
const readChunk = 64 << 10

// readBufSize is each inbound connection's bufio read buffer: one
// kernel read drains a whole coalesced batch, so the receive side
// saves syscalls symmetrically with the writev send side.
const readBufSize = 64 << 10

// frameHeaderLen is the per-datagram wire overhead: 4-byte big-endian
// payload length plus 8-byte big-endian sender id.
const frameHeaderLen = 12

// dialTimeout bounds an outbound connection attempt. Send runs on the
// caller's goroutine — for RPC, inside the retransmission loop — so a
// blackholed address must not stall it for the OS connect timeout
// (which can exceed a minute); it is set well below rpc's default 2s
// CallTimeout so a failed dial still leaves room for retries.
const dialTimeout = 500 * time.Millisecond

// maxPending bounds the frames staged behind a write in flight; a Send
// beyond it drops its datagram.
const maxPending = 256

// writeTimeout bounds one writev, so a peer that stops reading holds a
// sender for no longer. The deadline is re-armed only once less than
// half of it is left: a write may wait between half of it and all of it.
const writeTimeout = 100 * time.Millisecond

// maxYieldRounds bounds how many times the writer yields the processor
// to gather a larger batch before writing. Each round costs one
// scheduler pass (sub-microsecond when the machine is idle), so the
// bound caps the latency a quiet sender can add while still letting a
// busy pipeline coalesce whole bursts into single writev calls.
const maxYieldRounds = 8

// Network is the shared address book of a set of TCP endpoints.
type Network struct {
	mu    sync.Mutex
	addrs map[ids.NodeID]string
}

// NewNetwork builds an empty address book.
func NewNetwork() *Network {
	return &Network{addrs: make(map[ids.NodeID]string)}
}

// Register binds a node identifier to a dialable address. Listen does
// this automatically; Register exists for static cross-process setups.
func (n *Network) Register(id ids.NodeID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addrs[id] = addr
}

func (n *Network) lookup(id ids.NodeID) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr, ok := n.addrs[id]
	return addr, ok
}

// sender owns one outbound connection. Frames staged while a write is
// in flight wait in pending; the writer takes them all for its next
// writev.
type sender struct {
	to   ids.NodeID
	conn net.Conn

	mu      sync.Mutex
	pending []*[]byte // staged frames, in Send order
	writing bool      // a writer owns the connection and writes pending
	busy    bool      // the last write carried other Sends' frames too

	// Owned by the writer.
	spare    []*[]byte   // the other pending array, swapped per batch
	bufs     net.Buffers // the writev vector
	deadline time.Time   // the connection's armed write deadline
}

// Endpoint is one TCP transport endpoint.
type Endpoint struct {
	id  ids.NodeID
	net *Network
	ln  net.Listener

	mu      sync.Mutex
	senders map[ids.NodeID]*sender // outbound, one per destination
	inbound map[net.Conn]struct{}  // accepted connections
	deliver func(rpc.Datagram)     // SetDeliver's; nil drops what arrives
	closed  bool
	crashed bool

	wg sync.WaitGroup
}

var _ rpc.Transport = (*Endpoint)(nil)

// Listen opens an endpoint on addr ("127.0.0.1:0" picks a free port),
// registers it in the network's address book, and starts accepting.
func (n *Network) Listen(addr string) (*Endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet listen: %w", err)
	}
	e := &Endpoint{
		id:      ids.NewNodeID(),
		net:     n,
		ln:      ln,
		senders: make(map[ids.NodeID]*sender),
		inbound: make(map[net.Conn]struct{}),
	}
	n.Register(e.id, ln.Addr().String())
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// ID implements rpc.Transport.
func (e *Endpoint) ID() ids.NodeID { return e.id }

// Addr returns the endpoint's listen address.
func (e *Endpoint) Addr() string { return e.ln.Addr().String() }

// SetDeliver installs the function each received datagram is handed to
// on its connection's read loop; nil drops them. It must not block:
// while it runs, its connection reads nothing.
func (e *Endpoint) SetDeliver(fn func(rpc.Datagram)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.deliver = fn
}

func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.inbound[conn] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

func (e *Endpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		conn.Close()
		e.mu.Lock()
		delete(e.inbound, conn)
		e.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, readBufSize)
	var header [frameHeaderLen]byte
	for {
		d, err := readFrame(br, header[:])
		if err != nil {
			return
		}
		tcpBytesRead.Add(uint64(len(d.Payload)))
		d.To = e.id
		e.mu.Lock()
		closed, crashed, deliver := e.closed, e.crashed, e.deliver
		e.mu.Unlock()
		if closed {
			return
		}
		if crashed {
			continue // fail-silent: frames to a crashed node are lost
		}
		if deliver == nil {
			undelivered.Inc() // no peer attached: lost, the RPC layer retransmits
			continue
		}
		deliver(d)
	}
}

// tcpFramePool recycles staged outbound frames (header + payload in one
// contiguous buffer).
var tcpFramePool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const tcpFramePoolMax = 64 << 10

func getTCPFrame() *[]byte { return tcpFramePool.Get().(*[]byte) }

func putTCPFrame(bp *[]byte) {
	if cap(*bp) > tcpFramePoolMax {
		return
	}
	tcpFramePool.Put(bp)
}

// stageFrame copies payload into a pooled wire frame owned by the
// sender: Send's contract lets the RPC layer reuse payload the moment
// Send returns, so staged frames must hold their own bytes.
func stageFrame(from ids.NodeID, payload []byte) *[]byte {
	bp := getTCPFrame()
	b := (*bp)[:0]
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint64(b, uint64(from))
	b = append(b, payload...)
	*bp = b
	return bp
}

// Send implements rpc.Transport: best-effort datagram delivery over a
// cached connection. The frame is staged; with no write in flight Send
// writes it, with whatever is staged meanwhile, in one writev. A full
// stage and a failed write or dial drop the datagram rather than
// erroring: the RPC layer's retransmission owns reliability.
func (e *Endpoint) Send(to ids.NodeID, payload []byte) error {
	if len(payload) > maxFrame {
		return ErrTooLarge
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if e.crashed {
		e.mu.Unlock()
		return ErrCrashed
	}
	s, ok := e.senders[to]
	e.mu.Unlock()

	if !ok {
		var err error
		s, err = e.dial(to)
		if err != nil {
			return err
		}
		if s == nil {
			return nil // destination down: datagram lost, retransmission will retry
		}
	}

	frame := stageFrame(e.id, payload)
	s.mu.Lock()
	if len(s.pending) >= maxPending {
		// The write in flight is stuck or outrun: drop, keeping Send
		// non-blocking (datagram semantics).
		s.mu.Unlock()
		putTCPFrame(frame)
		sendQueueDrops.Inc()
		return nil
	}
	s.pending = append(s.pending, frame)
	if s.writing {
		s.mu.Unlock()
		return nil
	}
	s.writing = true
	busy := s.busy
	s.mu.Unlock()
	if !busy || !e.handOff(s) {
		e.write(s, true)
	}
	return nil
}

// dial establishes (or, racing another Send, adopts) the sender for a
// destination. A nil, nil return means the destination was unreachable:
// the datagram is lost and retransmission will retry.
func (e *Endpoint) dial(to ids.NodeID) (*sender, error) {
	addr, known := e.net.lookup(to)
	if !known {
		return nil, ErrUnknownNode
	}
	fresh, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			dialsTimeout.Inc()
		} else {
			dialsError.Inc()
		}
		return nil, nil
	}
	dialsOK.Inc()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || e.crashed {
		fresh.Close()
		if e.crashed {
			return nil, ErrCrashed
		}
		return nil, ErrClosed
	}
	if existing, raced := e.senders[to]; raced {
		fresh.Close()
		return existing, nil
	}
	s := &sender{to: to, conn: fresh}
	e.senders[to] = s
	return s, nil
}

// dropSender discards a (broken) sender: future Sends re-dial.
func (e *Endpoint) dropSender(s *sender) {
	e.mu.Lock()
	if e.senders[s.to] == s {
		delete(e.senders, s.to)
	}
	e.mu.Unlock()
	s.conn.Close()
}

// write is a writer's turn on s, entered with s.writing set: it gathers
// a batch by the yield rule, writes all that is staged in one writev,
// and repeats while frames were staged meanwhile. A Send that became the
// writer (caller) writes only the batch with its own frame, and a
// goroutine started for the purpose writes the rest, so no caller
// carries the others' load. On a busy connection (its last write carried
// other Sends' frames) Send leaves its own batch to such a goroutine
// too: an inline writer's yields end too early there (E41).
func (e *Endpoint) write(s *sender, caller bool) {
	for {
		s.gather()
		s.mu.Lock()
		batch := s.pending
		s.pending, s.spare = s.spare[:0], nil
		s.mu.Unlock()

		n, err := s.writeBatch(batch)
		for _, f := range batch {
			putTCPFrame(f)
		}
		clear(batch)

		s.mu.Lock()
		s.spare = batch[:0]
		staged := s.pending
		s.busy = len(batch) > 1 || len(staged) > 0
		if err != nil {
			// The sender is dropped: a Send still holding it fails
			// the same way on the closed connection; later ones re-dial.
			s.writing, s.pending = false, nil
		} else {
			s.writing = len(staged) > 0
		}
		s.mu.Unlock()
		if err != nil {
			writeDrops.Add(uint64(len(batch) + len(staged)))
			for _, f := range staged {
				putTCPFrame(f)
			}
			e.dropSender(s)
			return
		}
		writeBatches.Inc()
		writeBatchFrames.Add(uint64(len(batch)))
		tcpBytesWritten.Add(uint64(n))
		if len(staged) == 0 {
			return
		}
		if caller && e.handOff(s) {
			return
		}
	}
}

// handOff starts a goroutine that takes over as s's writer; once the
// endpoint is closed it refuses, and the caller's write fails instead.
func (e *Endpoint) handOff(s *sender) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.write(s, false)
	}()
	return true
}

// gather yields the processor up to maxYieldRounds times so that
// runnable goroutines — handlers, dispatches, other callers — can stage
// the frames they are about to send. It stops at a round that staged
// nothing (the pipeline is quiescent, so writing now adds no latency)
// or once the stage is full.
func (s *sender) gather() {
	s.mu.Lock()
	n := len(s.pending)
	s.mu.Unlock()
	for range maxYieldRounds {
		runtime.Gosched()
		s.mu.Lock()
		staged := len(s.pending)
		s.mu.Unlock()
		if staged == n || staged >= maxPending {
			return
		}
		n = staged
	}
}

// writeBatch writes batch in one writev (internal/poll holds the fd's
// write lock across it) under the write deadline.
func (s *sender) writeBatch(batch []*[]byte) (int64, error) {
	if now := clock.Real().Now(); s.deadline.Sub(now) < writeTimeout/2 {
		s.deadline = now.Add(writeTimeout)
		if err := s.conn.SetWriteDeadline(s.deadline); err != nil {
			return 0, err
		}
	}
	for _, f := range batch {
		s.bufs = append(s.bufs, *f)
	}
	// WriteTo consumes the slice it is given, so hand it a separate
	// header.
	consumable := s.bufs
	n, err := consumable.WriteTo(s.conn)
	clear(s.bufs)
	s.bufs = s.bufs[:0]
	return n, err
}

// teardownConns closes every outbound sender and inbound connection.
func (e *Endpoint) teardownConns() {
	e.mu.Lock()
	senders := make([]*sender, 0, len(e.senders))
	for _, s := range e.senders {
		senders = append(senders, s)
	}
	e.senders = make(map[ids.NodeID]*sender)
	conns := make([]net.Conn, 0, len(e.inbound))
	for c := range e.inbound {
		conns = append(conns, c)
	}
	e.mu.Unlock()
	for _, s := range senders {
		s.conn.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// Crash makes the endpoint fail-silent, mirroring netsim: every
// connection drops, staged and future datagrams are lost, and Send
// fails (transiently) until Restart. The listener stays bound so the
// node's address survives the crash.
func (e *Endpoint) Crash() {
	e.mu.Lock()
	if e.crashed || e.closed {
		e.mu.Unlock()
		return
	}
	e.crashed = true
	e.mu.Unlock()
	e.teardownConns()
}

// Restart brings a crashed endpoint back. Connections re-establish on
// demand (outbound Sends re-dial; remote peers re-dial us at the
// address the listener kept).
func (e *Endpoint) Restart() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.crashed = false
}

// Crashed reports whether the endpoint is crashed.
func (e *Endpoint) Crashed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.crashed
}

// Close shuts the endpoint down and waits for its goroutines.
func (e *Endpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()

	e.ln.Close()
	e.teardownConns()
	e.wg.Wait()
}

// readFrame reads one frame from r into a fresh payload buffer, reusing
// the caller's 12-byte header scratch.
func readFrame(r io.Reader, header []byte) (rpc.Datagram, error) {
	if _, err := io.ReadFull(r, header[:frameHeaderLen]); err != nil {
		return rpc.Datagram{}, err
	}
	size := binary.BigEndian.Uint32(header[0:4])
	if size > maxFrame {
		return rpc.Datagram{}, ErrTooLarge
	}
	from := ids.NodeID(binary.BigEndian.Uint64(header[4:12]))
	payload, err := readPayload(r, int64(size))
	if err != nil {
		return rpc.Datagram{}, err
	}
	return rpc.Datagram{From: from, Payload: payload}, nil
}

// readPayload reads size payload bytes incrementally: memory is grown
// chunk by chunk as bytes actually arrive, so a corrupt (but in-range)
// length prefix on a connection that then stalls or closes costs at
// most one readChunk of allocation, not the full frame.
func readPayload(conn io.Reader, size int64) ([]byte, error) {
	if size <= readChunk {
		payload := make([]byte, size)
		if _, err := io.ReadFull(conn, payload); err != nil {
			return nil, err
		}
		return payload, nil
	}
	limited := io.LimitReader(conn, size)
	payload := make([]byte, 0, readChunk)
	chunk := make([]byte, readChunk)
	for int64(len(payload)) < size {
		n, err := limited.Read(chunk)
		payload = append(payload, chunk[:n]...)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return payload, nil
}
