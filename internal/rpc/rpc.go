// Package rpc provides remote procedure calls over the simulated network
// (paper §2: operations on remote objects are invoked via an RPC
// mechanism). It implements the standard protocol-level defences the
// paper assumes: retransmission against message loss and duplicate
// suppression with reply caching (at-most-once execution per call).
package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mca/internal/clock"
	"mca/internal/flightrec"
	"mca/internal/ids"
	"mca/internal/netsim"
	"mca/internal/trace"
)

// Errors reported by the RPC layer.
var (
	// ErrTimeout is returned when no reply arrived within the call's
	// deadline despite retransmissions — the paper's "continued loss
	// of messages" failure, which callers treat as grounds for abort.
	ErrTimeout = errors.New("rpc: call timed out")
	// ErrStopped is returned for calls on a stopped peer.
	ErrStopped = errors.New("rpc: peer stopped")
	// ErrNoHandler is returned (remotely) when the method is unknown.
	ErrNoHandler = errors.New("rpc: no such method")
)

// RemoteError carries an application-level error string back to the
// caller.
type RemoteError struct {
	Method string
	Msg    string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote %s: %s", e.Method, e.Msg)
}

// Handler serves one method. The returned bytes are the reply body; a
// non-nil error is delivered to the caller as a *RemoteError.
type Handler func(ctx context.Context, from ids.NodeID, body []byte) ([]byte, error)

// Datagram is one unreliable message as seen by the RPC layer. It is
// netsim's Message, so a simulated endpoint is a Transport as it stands.
type Datagram = netsim.Message

// Transport is the unreliable datagram surface a Peer runs on: the
// simulated LAN (internal/netsim) or real TCP (internal/tcpnet).
// Implementations may lose, duplicate, delay or reorder datagrams; the
// Peer's retransmission and duplicate suppression compensate.
//
// Delivery is pushed: a transport with SetDeliver(func(Datagram)), as
// both of those have, calls the function on its own goroutine for every
// datagram that arrives. Start sets it to the peer's dispatch, which
// never blocks, and Stop to nil. A transport with only
// Recv(context.Context) (Datagram, error) is pumped by one goroutine
// into the same dispatch instead.
type Transport interface {
	// ID returns this endpoint's node identifier.
	ID() ids.NodeID
	// Send transmits payload to the named node, best effort. Send must
	// not retain payload after it returns: the RPC layer encodes into
	// pooled buffers and reuses them, so a transport that queues
	// internally copies first (netsim copies under its network mutex,
	// tcpnet stages into a frame of its own).
	Send(to ids.NodeID, payload []byte) error
}

// The two kinds of Transport delivery: pushed, or pulled by the pump.
type (
	pusher interface{ SetDeliver(func(Datagram)) }
	puller interface {
		Recv(ctx context.Context) (Datagram, error)
	}
)

type kind int

const (
	kindRequest kind = iota + 1
	kindReply
)

// envelope is the logical wire message; codec.go holds its encoding.
// Body is opaque to this layer: the caller's bytes out, the handler's
// bytes back.
type envelope struct {
	Kind   kind
	CallID uint64
	Origin ids.NodeID
	Method string
	Body   []byte
	ErrMsg string
	IsErr  bool
	// Traced says the envelope carries the caller's trace context in
	// Trace/Span.
	Traced bool
	Trace  uint64
	Span   uint64
}

// traceContext extracts the trace context shipped in the envelope,
// invalid (zero) when the sender attached none.
func (e *envelope) traceContext() trace.Context {
	if !e.Traced {
		return trace.Context{}
	}
	return trace.Context{TraceID: e.Trace, SpanID: e.Span}
}

// Options tunes client behaviour.
type Options struct {
	// RetryInterval is the retransmission period. Default 20ms.
	RetryInterval time.Duration
	// CallTimeout bounds a call including retries. Default 2s.
	CallTimeout time.Duration
	// ReplyCache bounds the number of cached replies kept for
	// duplicate suppression. Default 1024.
	ReplyCache int
	// Clock is the time source for retransmission timers, call deadlines
	// and span timestamps. Default clock.Real().
	Clock clock.Clock
}

// serveWorkers bounds the resident handler pool. Incoming requests are
// handed to an idle pooled worker when one is ready and spawn a fresh
// goroutine otherwise, so a burst (or a pool full of blocked handlers)
// never delays or deadlocks dispatch.
const serveWorkers = 8

func (o *Options) fill() {
	if o.RetryInterval <= 0 {
		o.RetryInterval = 20 * time.Millisecond
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 2 * time.Second
	}
	if o.ReplyCache <= 0 {
		o.ReplyCache = 1024
	}
	if o.Clock == nil {
		o.Clock = clock.Real()
	}
}

// Peer is one node's RPC engine: it serves registered methods and issues
// outgoing calls over a single transport endpoint.
type Peer struct {
	ep   Transport
	opts Options

	mu       sync.Mutex
	handlers map[string]Handler
	// pending maps each call in flight to the slot its caller waits on.
	// The dispatch delivers replies while holding mu and a caller
	// leaves the map under mu before it recycles its slot, so a slot is
	// never written to on behalf of a call that has let go of it.
	pending map[uint64]*callSlot
	// seen caches replies for duplicate requests, and inflight tracks
	// requests whose handler is still executing so a retransmission
	// cannot start a second execution (at-most-once). seenRing is the
	// fixed-capacity FIFO eviction order of seen: a ring buffer, not an
	// appended-and-resliced slice, so a long-lived peer's cache churn
	// reuses one backing array instead of pinning an ever-growing one.
	seen     map[uint64]envelope
	seenRing []uint64
	seenHead int // index of the oldest entry in seenRing
	seenLen  int
	inflight map[uint64]struct{}
	running  bool
	// ctx lives from Start to Stop: handlers run under it, and calls and
	// the Recv pump (pumped is closed when it exits) watch it.
	ctx    context.Context
	cancel context.CancelFunc
	serveq chan serveJob
	pumped chan struct{}

	// slots recycles callSlots, so a call allocates neither a reply
	// channel nor a timer in steady state.
	slots sync.Pool

	// tracer, when set, receives one client span per outgoing traced
	// call and one server span per logical (deduplicated) handler
	// execution.
	tracer atomic.Pointer[trace.Recorder]
}

// callSeq mints call sequence numbers. It is process-global, not
// per-Peer, so a peer rebuilt after a node restart never reuses a
// pre-crash CallID: servers that stayed up keep their reply caches, and
// a reused ID would make duplicate suppression replay a stale cached
// reply to a brand-new call (a restarted coordinator's recovery re-drive
// would be ghost-acked without any participant executing it).
var callSeq atomic.Uint64

// callSlot is what one outgoing call parks on: the channel its reply
// arrives on and the timer that paces its retransmissions and bounds it.
type callSlot struct {
	reply chan envelope // capacity 1: the first reply is kept, duplicates are dropped
	timer clock.Timer   // made by the slot's first call, re-armed by every later one
}

// arm sets the slot's timer to fire after d.
func (s *callSlot) arm(clk clock.Clock, d time.Duration) {
	if s.timer == nil {
		s.timer = clk.NewTimer(d)
		return
	}
	s.timer.Reset(d)
}

// SetTracer installs the recorder that receives this peer's RPC spans:
// "rpc.client" for outgoing traced calls, "rpc.server" for handler
// executions. Retransmissions never produce extra server spans — the
// duplicate-suppression path bypasses span emission, so one logical
// call is one span. A nil recorder disables span emission; trace
// contexts still propagate on the wire either way.
func (p *Peer) SetTracer(rec *trace.Recorder) { p.tracer.Store(rec) }

// NewPeer builds a peer over a simulated-network endpoint.
func NewPeer(ep *netsim.Endpoint, opts Options) *Peer {
	return NewPeerOn(ep, opts)
}

// NewPeerOn builds a peer over any Transport.
func NewPeerOn(t Transport, opts Options) *Peer {
	opts.fill()
	return &Peer{
		ep:       t,
		opts:     opts,
		handlers: make(map[string]Handler),
		pending:  make(map[uint64]*callSlot),
		seen:     make(map[uint64]envelope),
		inflight: make(map[uint64]struct{}),
		slots:    sync.Pool{New: func() any { return &callSlot{reply: make(chan envelope, 1)} }},
	}
}

// ID returns the node identifier of the underlying endpoint.
func (p *Peer) ID() ids.NodeID { return p.ep.ID() }

// CallTimeout returns how long one call may take, retries included.
func (p *Peer) CallTimeout() time.Duration { return p.opts.CallTimeout }

// Handle registers a method handler. It must be called before Start or
// between Stop/Start cycles.
func (p *Peer) Handle(method string, h Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.handlers[method] = h
}

// Start attaches the peer's dispatch to its transport and starts the
// handler worker pool.
func (p *Peer) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.running {
		return
	}
	p.running = true
	p.ctx, p.cancel = context.WithCancel(context.Background())
	// serveq is deliberately unbuffered: a request is handed to a
	// pooled worker only if one is idle and ready to take it right now.
	// Queuing behind busy workers could deadlock — all workers blocked
	// in handlers whose progress depends on a queued request (a 2PC
	// participant waiting on a lock whose holder's commit sits in the
	// queue) — so anything the pool cannot take immediately spawns.
	// The dispatch sends on it only under mu while running, and Stop
	// closes it under mu: no send can meet a closed channel.
	p.serveq = make(chan serveJob)
	for range serveWorkers {
		go p.serveWorker(p.ctx, p.serveq)
	}
	switch t := p.ep.(type) {
	case pusher:
		t.SetDeliver(p.dispatch)
	case puller: // one goroutine feeds the dispatch until Recv fails
		p.pumped = make(chan struct{})
		go func(ctx context.Context, done chan struct{}) {
			defer close(done)
			for msg, err := t.Recv(ctx); err == nil; msg, err = t.Recv(ctx) {
				p.dispatch(msg)
			}
		}(p.ctx, p.pumped)
	}
}

// Stop detaches the dispatch and fails pending calls, which watch the
// peer's context themselves. No handler starts once Stop returns: the
// context is cancelled under mu, and serve checks it under mu before it
// runs one. The reply cache is cleared: it models volatile state lost in
// a crash.
func (p *Peer) Stop() {
	p.mu.Lock()
	if !p.running {
		p.mu.Unlock()
		return
	}
	p.running = false
	p.cancel()
	close(p.serveq)
	if t, ok := p.ep.(pusher); ok {
		t.SetDeliver(nil)
	}
	pumped := p.pumped
	p.seen = make(map[uint64]envelope)
	p.seenRing = nil
	p.seenHead, p.seenLen = 0, 0
	p.inflight = make(map[uint64]struct{})
	p.mu.Unlock()
	if pumped != nil {
		<-pumped
	}
}

// serveJob is one decoded request awaiting handler dispatch.
type serveJob struct {
	from ids.NodeID
	req  envelope
	// arrived is the dispatch timestamp, stamped only for traced
	// requests at a peer with a tracer: serve-start minus arrived is
	// the server span's queueing (pool wait, or goroutine scheduling
	// delay on the spawn path).
	arrived time.Time
}

// serveWorker is one resident pool goroutine: it serves handed-off
// requests until Stop closes the queue. ctx is the one spawned handlers
// run under, so a pooled handler observes Stop exactly like them.
func (p *Peer) serveWorker(ctx context.Context, q <-chan serveJob) {
	for job := range q {
		p.serve(ctx, job)
	}
}

// dispatch routes one inbound datagram, on the transport's goroutine: a
// reply to its call's slot, a request to an idle pooled worker or, when
// none is idle, to a goroutine of its own. It never blocks.
func (p *Peer) dispatch(msg Datagram) {
	bytesRecv.Add(uint64(len(msg.Payload)))
	body, ok := verifyFrame(msg.Payload)
	if !ok {
		return // corrupt datagram (checksum mismatch): drop
	}
	var env envelope
	if !decodeEnvelope(body, &env) {
		return // undecodable datagram: drop
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case !p.running:
	case env.Kind == kindReply:
		if slot, ok := p.pending[env.CallID]; ok {
			select {
			case slot.reply <- env:
			default: // duplicate reply: drop
			}
		}
	default: // a request: decodeEnvelope knows no third kind
		job := serveJob{from: msg.From, req: env}
		if env.Trace != 0 && p.tracer.Load() != nil {
			job.arrived = p.opts.Clock.Now()
		}
		select {
		case p.serveq <- job:
			servesPooled.Inc()
		default:
			// Every worker is busy (or blocked): spawn, preserving the
			// goroutine-per-request liveness.
			servesSpawned.Inc()
			go p.serve(p.ctx, job)
		}
	}
}

// cacheReply inserts a reply into the duplicate-suppression cache,
// evicting the oldest entry once the ring is full. Caller holds p.mu.
func (p *Peer) cacheReply(callID uint64, resp envelope) {
	if p.seenRing == nil {
		p.seenRing = make([]uint64, p.opts.ReplyCache)
	}
	if p.seenLen == len(p.seenRing) {
		delete(p.seen, p.seenRing[p.seenHead])
		p.seenRing[p.seenHead] = callID
		p.seenHead = (p.seenHead + 1) % len(p.seenRing)
	} else {
		p.seenRing[(p.seenHead+p.seenLen)%len(p.seenRing)] = callID
		p.seenLen++
	}
	p.seen[callID] = resp
}

func (p *Peer) serve(ctx context.Context, job serveJob) {
	from, req := job.from, job.req
	// Duplicate suppression: replay the cached reply for completed
	// calls; drop retransmissions of calls still executing (the
	// original execution will reply when it finishes).
	p.mu.Lock()
	if ctx.Err() != nil {
		p.mu.Unlock()
		return // stopped since the dispatch: start nothing
	}
	if cached, ok := p.seen[req.CallID]; ok {
		p.mu.Unlock()
		duplicates.Inc()
		flightrec.Record(flightrec.Event{Kind: flightrec.KindRPCDuplicate, Node: uint64(p.ep.ID()), Trace: req.Trace, Span: req.Span, A: req.CallID})
		p.reply(from, cached)
		return
	}
	if _, executing := p.inflight[req.CallID]; executing {
		p.mu.Unlock()
		duplicates.Inc()
		flightrec.Record(flightrec.Event{Kind: flightrec.KindRPCDuplicate, Node: uint64(p.ep.ID()), Trace: req.Trace, Span: req.Span, A: req.CallID})
		return
	}
	p.inflight[req.CallID] = struct{}{}
	h, ok := p.handlers[req.Method]
	p.mu.Unlock()
	requests.Inc()
	flightrec.Record(flightrec.Event{Kind: flightrec.KindRPCServe, Node: uint64(p.ep.ID()), Trace: req.Trace, Span: req.Span, A: req.CallID, B: uint64(len(req.Body))})

	// Thread the caller's trace context into the handler. With a tracer
	// installed the handler runs under a fresh server span (emitted
	// below, once per logical call — this point is only reached past
	// duplicate suppression); without one the caller's context passes
	// through untouched so downstream hops still join the trace.
	hctx := ctx
	reqTC := req.traceContext()
	rec := p.tracer.Load()
	var serverSpan trace.Context
	var spanStart time.Time
	if reqTC.Valid() {
		if rec != nil {
			spanStart = p.opts.Clock.Now()
			serverSpan = reqTC.Child()
			hctx = trace.Inject(ctx, serverSpan)
		} else {
			hctx = trace.Inject(ctx, reqTC)
		}
	}

	resp := envelope{Kind: kindReply, CallID: req.CallID, Origin: p.ep.ID()}
	if !ok {
		resp.IsErr = true
		resp.ErrMsg = ErrNoHandler.Error() + ": " + req.Method
	} else {
		body, err := h(hctx, from, req.Body)
		if err != nil {
			resp.IsErr = true
			resp.ErrMsg = err.Error()
		} else {
			resp.Body = body
		}
	}

	if serverSpan.Valid() {
		outcome := trace.OutcomeOK
		if resp.IsErr {
			outcome = trace.OutcomeError
		}
		var queued time.Duration
		if !job.arrived.IsZero() {
			queued = spanStart.Sub(job.arrived)
		}
		rec.AddSpan(trace.Span{
			Kind:         trace.KindRPCServer,
			Label:        req.Method,
			TraceID:      serverSpan.TraceID,
			SpanID:       serverSpan.SpanID,
			ParentSpanID: reqTC.SpanID,
			Outcome:      outcome,
			Begin:        spanStart,
			End:          p.opts.Clock.Now(),
			Queued:       queued,
		})
	}

	p.mu.Lock()
	if ctx.Err() != nil {
		p.mu.Unlock()
		return // stopped meanwhile: a crashed peer answers nothing
	}
	delete(p.inflight, req.CallID)
	if _, dup := p.seen[req.CallID]; !dup {
		p.cacheReply(req.CallID, resp)
	}
	p.mu.Unlock()
	p.reply(from, resp)
}

func (p *Peer) reply(to ids.NodeID, env envelope) {
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	data := encodeFrame(bp, &env)
	bytesSent.Add(uint64(len(data)))
	// Transports must not retain data past Send (netsim copies, tcpnet
	// stages into its own writer frame), so the buffer re-pools here.
	//mcalint:ignore errdrop best-effort reply; a lost send is repaired by the caller's retransmission
	_ = p.ep.Send(to, data)
}

// Call invokes method at the target node with JSON bodies: req is
// marshalled into the request, and the reply is unmarshalled into resp
// (which may be nil). It is CallRaw plus the two conversions.
func (p *Peer) Call(ctx context.Context, to ids.NodeID, method string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		callsSendErr.Inc()
		return fmt.Errorf("rpc: marshal request: %w", err)
	}
	out, err := p.tracedCall(ctx, to, method, body)
	if err != nil {
		return err
	}
	if resp != nil && out != nil {
		if err := json.Unmarshal(out, resp); err != nil {
			callsDecodeErr.Inc()
			return fmt.Errorf("rpc: unmarshal reply: %w", err)
		}
	}
	callsOK.Inc()
	return nil
}

// CallRaw invokes method at the target node with body as the request
// body and returns the reply body, both opaque to this layer. It
// retransmits until a reply arrives, ctx ends (the result is ctx's
// error), the peer stops (ErrStopped) or the configured call timeout
// expires (ErrTimeout). body is not retained. The reply aliases the
// inbound datagram and is the caller's to keep; it is nil for an empty
// reply.
//
// When ctx carries a trace context (trace.Inject), it is shipped in
// the envelope so the remote handler joins the caller's trace; with a
// tracer installed (SetTracer) the call additionally runs under its
// own child span, recorded as "rpc.client" when the call completes.
func (p *Peer) CallRaw(ctx context.Context, to ids.NodeID, method string, body []byte) ([]byte, error) {
	out, err := p.tracedCall(ctx, to, method, body)
	if err == nil {
		callsOK.Inc()
	}
	return out, err
}

// tracedCall is call plus the caller's side of distributed tracing.
func (p *Peer) tracedCall(ctx context.Context, to ids.NodeID, method string, body []byte) ([]byte, error) {
	tc, traced := trace.FromContext(ctx)
	if !traced {
		return p.call(ctx, to, method, trace.Context{}, body)
	}
	rec := p.tracer.Load()
	if rec == nil {
		// Propagate the caller's span verbatim: deriving a child here
		// would put a span identifier on the wire that no recorder
		// ever exports, orphaning the server side of the trace.
		return p.call(ctx, to, method, tc, body)
	}
	callSpan := tc.Child()
	start := p.opts.Clock.Now()
	out, err := p.call(ctx, to, method, callSpan, body)
	end := p.opts.Clock.Now()
	outcome := trace.OutcomeOK
	if err != nil {
		outcome = trace.OutcomeError
	}
	rec.AddSpan(trace.Span{
		Kind:         trace.KindRPCClient,
		Label:        method + " to " + to.String(),
		TraceID:      callSpan.TraceID,
		SpanID:       callSpan.SpanID,
		ParentSpanID: tc.SpanID,
		Outcome:      outcome,
		Begin:        start,
		End:          end,
	})
	return out, err
}

// call runs the retransmission protocol for one request on the caller's
// own context and one pooled timer, re-armed each time to whichever is
// nearer, the next retransmission or the call's deadline. sent, when
// valid, is the span context stamped into the envelope (the same one on
// every retransmission, so duplicate suppression keeps the logical call
// to a single server span).
func (p *Peer) call(ctx context.Context, to ids.NodeID, method string, sent trace.Context, body []byte) ([]byte, error) {
	slot := p.slots.Get().(*callSlot)
	callID := callSeq.Add(1)<<16 | uint64(p.ep.ID())&0xFFFF
	p.mu.Lock()
	if !p.running {
		p.mu.Unlock()
		p.slots.Put(slot)
		callsStopped.Inc()
		return nil, ErrStopped
	}
	stop := p.ctx.Done()
	p.pending[callID] = slot
	p.mu.Unlock()
	defer p.release(callID, slot)

	env := envelope{
		Kind:   kindRequest,
		CallID: callID,
		Origin: p.ep.ID(),
		Method: method,
		Body:   body,
	}
	if sent.Valid() {
		env.Traced = true
		env.Trace, env.Span = sent.TraceID, sent.SpanID
	}
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	data := encodeFrame(bp, &env)

	clk := p.opts.Clock
	deadline := clk.Now().Add(p.opts.CallTimeout)
	slot.arm(clk, min(p.opts.RetryInterval, p.opts.CallTimeout))

	bytesSent.Add(uint64(len(data)))
	if err := p.ep.Send(to, data); err != nil && !IsTransientSend(err) {
		callsSendErr.Inc()
		return nil, fmt.Errorf("rpc: send: %w", err)
	}
	for {
		select {
		case reply := <-slot.reply:
			if reply.CallID != callID {
				continue // cannot happen while delivery holds p.mu (see Peer.pending)
			}
			if reply.IsErr {
				callsRemoteErr.Inc()
				return nil, &RemoteError{Method: method, Msg: reply.ErrMsg}
			}
			return reply.Body, nil
		case <-slot.timer.C():
			left := deadline.Sub(clk.Now())
			if left <= 0 {
				callsTimeout.Inc()
				return nil, ErrTimeout
			}
			retransmits.Inc()
			flightrec.Record(flightrec.Event{Kind: flightrec.KindRPCRetransmit, Node: uint64(p.ep.ID()), Trace: sent.TraceID, Span: sent.SpanID, A: callID})
			bytesSent.Add(uint64(len(data)))
			if err := p.ep.Send(to, data); err != nil && !IsTransientSend(err) {
				callsSendErr.Inc()
				return nil, fmt.Errorf("rpc: send: %w", err)
			}
			slot.timer.Reset(min(p.opts.RetryInterval, left))
		case <-ctx.Done():
			// The caller gave up, by cancellation or by its own
			// deadline: that is not the call timing out.
			callsCancelled.Inc()
			return nil, ctx.Err()
		case <-stop:
			callsStopped.Inc()
			return nil, ErrStopped
		}
	}
}

// release ends a call's claim on its slot and recycles it. Once the call
// has left pending nothing delivers to the slot any more, so what a
// duplicate reply or a last timer fire left buffered is drained here and
// cannot reach the slot's next call.
func (p *Peer) release(callID uint64, slot *callSlot) {
	p.mu.Lock()
	delete(p.pending, callID)
	p.mu.Unlock()
	slot.timer.Stop()
	select {
	case <-slot.reply:
	default:
	}
	select {
	case <-slot.timer.C():
	default:
	}
	p.slots.Put(slot)
}

// TransientError marks a transport send error as potentially healing:
// the destination may register, restart or become reachable later, so
// the retransmission loop should keep trying instead of failing the
// call. Transports implement it on their error values (they cannot
// import this package's sentinels without cycles); alternatively they
// may wrap ErrTransientSend.
type TransientError interface {
	error
	// Transient reports whether retrying the send may eventually
	// succeed without caller intervention.
	Transient() bool
}

// ErrTransientSend is a sentinel transports can wrap into a send error
// to mark it transient, as an alternative to implementing
// TransientError.
var ErrTransientSend = errors.New("rpc: transient send failure")

// IsTransientSend reports whether a transport send error is transient —
// the transport-agnostic classification both netsim and tcpnet satisfy.
// An error is transient when any error in its chain implements
// TransientError with Transient() == true, or wraps ErrTransientSend.
func IsTransientSend(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrTransientSend) {
		return true
	}
	var te TransientError
	return errors.As(err, &te) && te.Transient()
}
