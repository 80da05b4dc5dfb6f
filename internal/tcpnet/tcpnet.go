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
// The send path coalesces: each outbound connection is owned by a
// writer goroutine fed through a bounded queue, and every flush writes
// all queued frames in one writev (net.Buffers) — concurrent 2PC
// fan-outs to the same peer share syscalls the way the WAL's group
// commit shares fsyncs. The queue drops on overflow, keeping datagram
// semantics: the RPC layer's retransmission owns reliability, exactly
// as it does against a full UDP socket buffer.
package tcpnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

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

// Defaults for the coalescing writer.
const (
	defaultBatchBytes = 256 << 10
	defaultQueueLen   = 256
)

// maxYieldRounds bounds how many times the writer yields the processor
// to gather a larger batch before flushing. Each round costs one
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

// sender owns one outbound connection; ch feeds the connection's writer
// goroutine.
type sender struct {
	conn net.Conn
	ch   chan *[]byte
	stop chan struct{}
	once sync.Once
}

// close tears the sender down (idempotently): the writer goroutine, if
// any, observes stop and exits; an in-flight writev fails on the closed
// connection.
func (s *sender) close() {
	s.once.Do(func() {
		close(s.stop)
		s.conn.Close()
	})
}

// Endpoint is one TCP transport endpoint.
type Endpoint struct {
	id  ids.NodeID
	net *Network
	ln  net.Listener

	mu      sync.Mutex
	senders map[ids.NodeID]*sender // outbound, one per destination
	inbound map[net.Conn]struct{}  // accepted connections
	closed  bool
	crashed bool

	inbox chan rpc.Datagram
	wg    sync.WaitGroup
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
		inbox:   make(chan rpc.Datagram, 256),
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
		closed, crashed := e.closed, e.crashed
		e.mu.Unlock()
		if closed {
			return
		}
		if crashed {
			continue // fail-silent: frames to a crashed node are lost
		}
		select {
		case e.inbox <- d:
		default:
			// Inbox overflow: drop, like a UDP receive buffer. The
			// RPC layer retransmits.
			inboxDrops.Inc()
		}
	}
}

// tcpFramePool recycles staged outbound frames (header + payload in one
// contiguous buffer) between Send and the writer goroutines.
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
// writer queue: Send's contract lets the RPC layer reuse payload the
// moment Send returns, so queued frames must hold their own bytes.
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
// cached connection. The frame is staged onto the destination's writer
// queue and flushed — together with whatever else is queued — in one
// writev; a full queue drops the datagram. Connection failures likewise drop the datagram (and the
// cached connection) rather than erroring: the RPC layer's
// retransmission owns reliability.
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
	select {
	case s.ch <- frame:
	default:
		// Queue overflow: drop the datagram, keeping Send non-blocking
		// (datagram semantics; the writer is stuck or outrun).
		putTCPFrame(frame)
		sendQueueDrops.Inc()
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
	if e.closed || e.crashed {
		err := ErrClosed
		if e.crashed {
			err = ErrCrashed
		}
		e.mu.Unlock()
		fresh.Close()
		return nil, err
	}
	if existing, raced := e.senders[to]; raced {
		e.mu.Unlock()
		fresh.Close()
		return existing, nil
	}
	s := &sender{conn: fresh, ch: make(chan *[]byte, defaultQueueLen), stop: make(chan struct{})}
	e.wg.Add(1)
	go e.writeLoop(to, s)
	e.senders[to] = s
	e.mu.Unlock()
	return s, nil
}

// dropSender discards a (broken) sender: future Sends re-dial.
func (e *Endpoint) dropSender(to ids.NodeID, s *sender) {
	e.mu.Lock()
	if e.senders[to] == s {
		delete(e.senders, to)
	}
	e.mu.Unlock()
	s.close()
}

// writeLoop owns one outbound connection: it blocks for the first
// queued frame, opportunistically drains whatever else concurrent
// senders queued (bounded by defaultBatchBytes), and flushes the whole
// batch in a single writev. Frames return to the pool after the flush.
func (e *Endpoint) writeLoop(to ids.NodeID, s *sender) {
	defer e.wg.Done()
	refs := make([]*[]byte, 0, 64)
	bufs := make(net.Buffers, 0, 64)
	for {
		select {
		case <-s.stop:
			return
		case first := <-s.ch:
			refs = append(refs[:0], first)
			size := len(*first)
			yields := 0
		collect:
			for size < defaultBatchBytes {
				select {
				case f := <-s.ch:
					refs = append(refs, f)
					size += len(*f)
				default:
					// Queue drained. Yield to let already-runnable
					// goroutines — handlers, reply loops, other callers —
					// stage the frames they are about to send, then
					// re-check. A yield that stages nothing means the
					// pipeline is quiescent, so flushing now adds no
					// latency; a yield that does lets one writev carry the
					// whole burst.
					if yields >= maxYieldRounds {
						break collect
					}
					yields++
					runtime.Gosched()
					select {
					case f := <-s.ch:
						refs = append(refs, f)
						size += len(*f)
					case <-s.stop:
						for _, f := range refs {
							putTCPFrame(f)
						}
						return
					default:
						break collect // quiescent: flush now
					}
				}
			}
			bufs = bufs[:0]
			for _, f := range refs {
				bufs = append(bufs, *f)
			}
			// WriteTo consumes the slice it is given, so hand it a
			// separate header; one call is one writev for the whole
			// batch (internal/poll holds the fd write lock across it).
			consumable := bufs
			_, err := consumable.WriteTo(s.conn)
			for _, f := range refs {
				putTCPFrame(f)
			}
			if err != nil {
				writeDrops.Inc()
				e.dropSender(to, s)
				return
			}
			writeBatches.Inc()
			writeBatchFrames.Add(uint64(len(refs)))
			tcpBytesWritten.Add(uint64(size))
		}
	}
}

// Recv implements rpc.Transport.
func (e *Endpoint) Recv(ctx context.Context) (rpc.Datagram, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return rpc.Datagram{}, ErrClosed
	}
	if e.crashed {
		e.mu.Unlock()
		return rpc.Datagram{}, ErrCrashed
	}
	e.mu.Unlock()
	select {
	case d, ok := <-e.inbox:
		if !ok {
			return rpc.Datagram{}, ErrClosed
		}
		return d, nil
	case <-ctx.Done():
		return rpc.Datagram{}, ctx.Err()
	}
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
		s.close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// Crash makes the endpoint fail-silent, mirroring netsim: every
// connection drops, queued and future datagrams are lost, Send and Recv
// fail (transiently) until Restart. The listener stays bound so the
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
	// Drain the inbox: datagrams queued at a crashed node are lost with
	// its volatile memory.
	for {
		select {
		case <-e.inbox:
		default:
			return
		}
	}
}

// Restart brings a crashed endpoint back with an empty inbox.
// Connections re-establish on demand (outbound Sends re-dial; remote
// peers re-dial us at the address the listener kept).
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
