// Package tcpnet is a real-network transport for the RPC layer: length-
// prefixed datagrams over TCP on the loopback (or any) interface. It
// implements rpc.Transport, so every protocol built for the simulated
// LAN — at-most-once RPC, two-phase commit, the replicated name server —
// runs unchanged over actual sockets.
//
// A Network is the address book mapping node identifiers to listen
// addresses; in a real deployment it would be static configuration or a
// discovery service. Two endpoints share one connection, read at both
// ends: the first to send dials, and the other takes the accepted
// connection as its route back, so a reply goes out on the connection its
// request came in on. When both dial — at once, or one while the other was
// down — the connection dialed by the lower node id wins: the other end
// moves its route to it and half-closes its own once its writes are done,
// so every frame on the loser is read before both ends drop it. Delivery is
// pushed: a connection's read loop hands every frame to the SetDeliver
// function (the RPC peer's dispatch).
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
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
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

// readChunk is a connection's read buffer, so one read drains a whole
// coalesced batch, and the unit in which a frame larger than it is
// assembled: at most this much ahead of the bytes received, so a corrupt
// length prefix cannot force a 16 MiB allocation per connection.
const readChunk = 64 << 10

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

// conn is one connection to another endpoint, dialed or accepted; its
// read loop runs for its whole life. Frames staged while a write is in
// flight wait in pending; the writer takes them all for its next writev.
type conn struct {
	nc     net.Conn
	dialed bool       // this endpoint dialed it
	to     ids.NodeID // the node it is the route to, once routed is set
	// routed is set by the dial or the adoption, under the endpoint's mu;
	// the read loop reads it too.
	routed atomic.Bool

	mu      sync.Mutex
	pending []*[]byte // staged frames, in Send order
	writing bool      // a writer owns the connection and writes pending
	busy    bool      // the last write carried other Sends' frames too
	retired bool      // a dial race's loser: no Send stages on it any more

	// Owned by the writer.
	spare    []*[]byte   // the other pending array, swapped per batch
	bufs     net.Buffers // the writev vector
	iov      net.Buffers // the header of bufs that a writev consumes
	deadline time.Time   // the connection's armed write deadline
}

// Endpoint is one TCP transport endpoint.
type Endpoint struct {
	id  ids.NodeID
	net *Network
	ln  net.Listener

	mu      sync.Mutex
	conns   map[*conn]struct{}   // every open connection, dialed or accepted
	routes  map[ids.NodeID]*conn // the connection Send writes to each node on
	deliver func(rpc.Datagram)   // SetDeliver's; nil drops what arrives
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
		id:     ids.NewNodeID(),
		net:    n,
		ln:     ln,
		conns:  make(map[*conn]struct{}),
		routes: make(map[ids.NodeID]*conn),
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
// on its connection's read loop; nil drops them. It must neither block
// nor Send: its connection reads nothing while it runs, and a failed
// write's Close waits for the read loop to leave it.
func (e *Endpoint) SetDeliver(fn func(rpc.Datagram)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.deliver = fn
}

func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		nc, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			nc.Close()
			return
		}
		e.openLocked(&conn{nc: nc})
		e.mu.Unlock()
	}
}

// openLocked enters c in the connection table and starts its read loop,
// which drops c once it fails or closes. Caller holds e.mu, with the
// endpoint not closed.
func (e *Endpoint) openLocked(c *conn) {
	e.conns[c] = struct{}{}
	connections.Inc()
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer e.drop(c)
		// Why it failed changes nothing: the RPC layer retransmits.
		_ = readConn(c.nc, &parser{buf: make([]byte, readChunk)}, func(d rpc.Datagram) { e.receive(c, d) }, c.routed.Load)
	}()
}

// receive hands a datagram read from c to the deliver function. A
// connection that routes nowhere becomes the route to the sender the
// frame header names (trusted, as rpc trusts it), unless there is one —
// or the one there is this endpoint dialed, and the sender's id is the
// lower: then both ends dialed, the sender's dial wins, and this end's
// retires. A crashed endpoint drops the datagram and adopts nothing.
func (e *Endpoint) receive(c *conn, d rpc.Datagram) {
	tcpBytesRead.Add(uint64(len(d.Payload)))
	d.To = e.id
	var loser *conn
	e.mu.Lock()
	up, deliver := !e.closed && !e.crashed, e.deliver
	if up && !c.routed.Load() {
		r, ok := e.routes[d.From]
		if ok && r.dialed && d.From < e.id {
			loser, ok = r, false
		}
		if !ok {
			e.routes[d.From] = c
			c.to = d.From
			c.routed.Store(true)
		}
	}
	e.mu.Unlock()
	if loser != nil {
		loser.retire()
	}
	switch {
	case !up: // fail-silent: frames to a crashed node are lost
	case deliver == nil:
		undelivered.Inc() // no peer attached: lost, the RPC layer retransmits
	default:
		deliver(d)
	}
}

// tcpFramePool recycles staged outbound frames (header + payload in one
// contiguous buffer).
var tcpFramePool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const tcpFramePoolMax = 64 << 10

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
	bp := tcpFramePool.Get().(*[]byte)
	b := (*bp)[:0]
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint64(b, uint64(from))
	b = append(b, payload...)
	*bp = b
	return bp
}

// Send implements rpc.Transport: best-effort datagram delivery over the
// route to the destination, dialed if there is none. The frame is staged;
// with no write in flight Send writes it, with whatever is staged
// meanwhile, in one writev. A full
// stage and a failed write or dial drop the datagram rather than
// erroring: the RPC layer's retransmission owns reliability.
func (e *Endpoint) Send(to ids.NodeID, payload []byte) error {
	if len(payload) > maxFrame {
		return ErrTooLarge
	}
	c, err := e.route(to)
	if c == nil {
		return err
	}
	frame := stageFrame(e.id, payload)
	c.mu.Lock()
	for c.retired {
		// A dial race's loser: the route has moved on.
		c.mu.Unlock()
		if c, err = e.route(to); c == nil {
			putTCPFrame(frame)
			return err
		}
		c.mu.Lock()
	}
	if len(c.pending) >= maxPending {
		// The write in flight is stuck or outrun: drop, keeping Send
		// non-blocking (datagram semantics).
		c.mu.Unlock()
		putTCPFrame(frame)
		sendQueueDrops.Inc()
		return nil
	}
	c.pending = append(c.pending, frame)
	if c.writing {
		c.mu.Unlock()
		return nil
	}
	c.writing = true
	busy := c.busy
	c.mu.Unlock()
	if !busy || !e.handOff(c) {
		e.write(c, true)
	}
	return nil
}

// route returns the connection Send writes to on, dialed if there is
// none. A nil connection with a nil error means the destination was
// unreachable: the datagram is lost, and retransmission will retry.
func (e *Endpoint) route(to ids.NodeID) (*conn, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if e.crashed {
		e.mu.Unlock()
		return nil, ErrCrashed
	}
	c, ok := e.routes[to]
	e.mu.Unlock()
	if ok {
		return c, nil
	}
	return e.dial(to)
}

// dial establishes the route to a destination, or takes one made
// meanwhile. A nil, nil return means the destination was unreachable:
// the datagram is lost and retransmission will retry.
func (e *Endpoint) dial(to ids.NodeID) (*conn, error) {
	e.net.mu.Lock()
	addr, known := e.net.addrs[to]
	e.net.mu.Unlock()
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
	if existing, raced := e.routes[to]; raced {
		fresh.Close()
		return existing, nil
	}
	c := &conn{nc: fresh, dialed: true, to: to}
	c.routed.Store(true)
	e.routes[to] = c
	e.openLocked(c)
	return c, nil
}

// drop closes c and takes it out of the connection table.
func (e *Endpoint) drop(c *conn) {
	e.mu.Lock()
	if _, ok := e.conns[c]; ok {
		delete(e.conns, c)
		connections.Dec()
	}
	if c.routed.Load() && e.routes[c.to] == c {
		delete(e.routes, c.to)
	}
	e.mu.Unlock()
	c.nc.Close()
}

// write is a writer's turn on c, entered with c.writing set: it gathers
// a batch by the yield rule, writes all that is staged in one writev,
// and repeats while frames were staged meanwhile. A Send that became the
// writer (caller) writes only the batch with its own frame, and a
// goroutine started for the purpose writes the rest, so no caller
// carries the others' load. On a busy connection (its last write carried
// other Sends' frames) Send leaves its own batch to such a goroutine
// too: an inline writer's yields end too early there (E41).
func (e *Endpoint) write(c *conn, caller bool) {
	for {
		c.gather()
		c.mu.Lock()
		batch := c.pending
		c.pending, c.spare = c.spare[:0], nil
		c.mu.Unlock()

		n, err := c.writeBatch(batch)
		for _, f := range batch {
			putTCPFrame(f)
		}
		clear(batch)

		c.mu.Lock()
		c.spare = batch[:0]
		staged := c.pending
		c.busy = len(batch) > 1 || len(staged) > 0
		if err != nil {
			// The connection is dropped: a Send still holding it fails
			// the same way on the closed connection; later ones re-dial.
			c.writing, c.pending = false, nil
		} else {
			c.writing = len(staged) > 0
		}
		retired := c.retired
		c.mu.Unlock()
		if err != nil {
			writeDrops.Add(uint64(len(batch) + len(staged)))
			for _, f := range staged {
				putTCPFrame(f)
			}
			e.drop(c)
			return
		}
		writeBatches.Inc()
		writeBatchFrames.Add(uint64(len(batch)))
		tcpBytesWritten.Add(uint64(n))
		if len(staged) == 0 {
			if retired {
				c.closeWrite()
			}
			return
		}
		if caller && e.handOff(c) {
			return
		}
	}
}

// retire takes c, a dial race's loser, out of service: a Send that picked
// it before the route moved reads the route again, and once its writer is
// idle it is half-closed. The other end reads every frame written on it,
// then EOF, and drops it, and this end drops it at the other's close.
func (c *conn) retire() {
	c.mu.Lock()
	c.retired = true
	idle := !c.writing
	c.mu.Unlock()
	if idle {
		c.closeWrite()
	}
}

// closeWrite half-closes c: its writes are over, its reads go on.
func (c *conn) closeWrite() {
	if tc, ok := c.nc.(*net.TCPConn); ok {
		//mcalint:ignore errdrop a failed half-close leaves the connection to the other end's close or a failed read
		_ = tc.CloseWrite()
	}
}

// handOff starts a goroutine that takes over as c's writer; once the
// endpoint is closed it refuses, and the caller's write fails instead.
func (e *Endpoint) handOff(c *conn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.write(c, false)
	}()
	return true
}

// gather yields the processor up to maxYieldRounds times so that
// runnable goroutines — handlers, dispatches, other callers — can stage
// the frames they are about to send. It stops at a round that staged
// nothing (the pipeline is quiescent, so writing now adds no latency)
// or once the stage is full.
func (c *conn) gather() {
	c.mu.Lock()
	n := len(c.pending)
	c.mu.Unlock()
	for range maxYieldRounds {
		runtime.Gosched()
		c.mu.Lock()
		staged := len(c.pending)
		c.mu.Unlock()
		if staged == n || staged >= maxPending {
			return
		}
		n = staged
	}
}

// writeBatch writes batch in one writev (internal/poll holds the fd's
// write lock across it) under the write deadline.
func (c *conn) writeBatch(batch []*[]byte) (int64, error) {
	if now := clock.Real().Now(); c.deadline.Sub(now) < writeTimeout/2 {
		c.deadline = now.Add(writeTimeout)
		if err := c.nc.SetWriteDeadline(c.deadline); err != nil {
			return 0, err
		}
	}
	for _, f := range batch {
		c.bufs = append(c.bufs, *f)
	}
	// WriteTo consumes the slice it is given, so hand it a separate
	// header, which the connection owns: one on the stack would escape.
	c.iov = c.bufs
	n, err := c.iov.WriteTo(c.nc)
	c.iov = nil
	clear(c.bufs)
	c.bufs = c.bufs[:0]
	return n, err
}

// teardownConns closes every connection, whichever end dialed it.
func (e *Endpoint) teardownConns() {
	e.mu.Lock()
	conns := e.conns
	e.conns = make(map[*conn]struct{})
	clear(e.routes)
	connections.Add(-int64(len(conns)))
	e.mu.Unlock()
	for c := range conns {
		c.nc.Close()
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
// demand: Sends re-dial, and a connection another endpoint dials (at the
// address the listener kept) becomes a route with its next frame.
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

// parser splits a connection's byte stream into frames: the bytes not yet
// parsed sit at the front of buf, and a frame too large for buf is
// assembled in chunks, each allocated once the one before is full.
type parser struct {
	buf    []byte // readChunk bytes; buf[:n] are not parsed yet
	n      int
	from   ids.NodeID // the frame in chunks: its sender,
	size   int        // payload length,
	got    int        // payload bytes received,
	chunks [][]byte   // and those bytes; only the last chunk has room
}

// space is where the next read puts its bytes; it is never empty.
func (p *parser) space() []byte {
	if k := len(p.chunks) - 1; k >= 0 {
		return p.chunks[k][len(p.chunks[k]):cap(p.chunks[k])]
	}
	return p.buf[p.n:]
}

// parse takes the n bytes a read put into space and hands deliver every
// frame they complete, each with a payload of its own. It fails on a
// length prefix above maxFrame.
func (p *parser) parse(n int, deliver func(rpc.Datagram)) error {
	if k := len(p.chunks) - 1; k >= 0 {
		p.chunks[k] = p.chunks[k][:len(p.chunks[k])+n]
		if p.got += n; p.got < p.size {
			if len(p.chunks[k]) == cap(p.chunks[k]) {
				p.chunks = append(p.chunks, make([]byte, 0, min(readChunk, p.size-p.got)))
			}
			return nil
		}
		payload := p.chunks[0]
		if k > 0 {
			payload = bytes.Join(p.chunks, nil)
		}
		p.chunks = nil
		deliver(rpc.Datagram{From: p.from, Payload: payload})
		return nil
	}
	p.n += n
	b := p.buf[:p.n]
	for len(b) >= frameHeaderLen {
		size := binary.BigEndian.Uint32(b)
		if size > maxFrame {
			return ErrTooLarge
		}
		from, end := ids.NodeID(binary.BigEndian.Uint64(b[4:])), frameHeaderLen+int(size)
		if end <= len(b) {
			deliver(rpc.Datagram{From: from, Payload: bytes.Clone(b[frameHeaderLen:end])})
			b = b[end:]
			continue
		}
		if end > len(p.buf) { // larger than buf: assemble it in chunks
			p.from, p.size, p.got = from, int(size), len(b)-frameHeaderLen
			p.chunks = [][]byte{append(make([]byte, 0, min(p.size, p.got+readChunk)), b[frameHeaderLen:]...)}
			b = nil
		}
		break
	}
	p.n = copy(p.buf, b)
	return nil
}
