// Package flightrec is the per-process flight recorder: a fixed-size,
// lock-free ring buffer of recent runtime events (RPC serves, commit
// rounds, lock blocks, deadlocks, crashes) that is always on and costs
// nothing to keep — recording is a handful of atomic stores, zero
// allocations, drop-oldest. When something goes wrong (a deadlock is
// detected, a node crashes, a test fails) the last few thousand events
// are dumped as JSON Lines, so the moments *before* the failure are
// explainable without re-running under heavy tracing.
//
// The package is a dependency-free leaf so every layer (lock, rpc,
// dist, node) can record into the process-global recorder without
// import cycles. Event fields are raw uint64s for the same reason;
// higher layers assign meaning per Kind.
//
// Concurrency: the ring is striped to spread writer contention, and
// each slot is guarded by a per-slot sequence counter (even = stable,
// odd = being written). All slot accesses are atomic, so recording
// races nothing and snapshots skip slots caught mid-write instead of
// observing torn events.
package flightrec

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mca/internal/clock"
)

// Kind classifies one flight-recorder event.
type Kind uint8

// Event kinds. The A and B fields are kind-specific; the convention for
// each kind is noted here.
const (
	// KindNone marks an empty slot; never recorded explicitly.
	KindNone Kind = iota
	// KindRPCServe is one server-side handler execution. A is the call
	// identifier, B is the payload length.
	KindRPCServe
	// KindRPCDuplicate is a suppressed duplicate request (retransmission
	// of a completed or in-flight call). A is the call identifier.
	KindRPCDuplicate
	// KindRPCRetransmit is a client-side retransmission. A is the call
	// identifier.
	KindRPCRetransmit
	// KindRound is one commit-protocol fan-out round outcome. A is the
	// transaction's action identifier, B packs participants<<32 | ok.
	KindRound
	// KindLockBlock is a lock request parking in a wait queue. A is the
	// owner action identifier, B the object identifier.
	KindLockBlock
	// KindDeadlock is a detected deadlock (cycle or provably permanent
	// block). A is the owner action identifier, B the object identifier.
	KindDeadlock
	// KindCrash is a node crash. Node identifies the crashed node.
	KindCrash
	// KindWALFlush is one write-ahead-log group-commit flush. A is the
	// number of records forced, B the flush duration in nanoseconds.
	KindWALFlush
	// KindCommitResent is a commit decision sent to a participant again
	// because its ack had not come. A is the transaction's action
	// identifier, B the participant node.
	KindCommitResent
	// KindReaped is a participant transaction its silent coordinator left
	// behind, ended by the coordinator's answer to the participant's
	// decision query. A is the transaction's action identifier, B the
	// coordinator node.
	KindReaped
	// KindUnresolvedRead is a stable-store read refused because a
	// prepared record replayed at the node's restart writes the object
	// and has not been resolved. A is the object identifier, B the
	// record's action identifier.
	KindUnresolvedRead
)

// String renders the kind for dumps.
func (k Kind) String() string {
	switch k {
	case KindRPCServe:
		return "rpc.serve"
	case KindRPCDuplicate:
		return "rpc.duplicate"
	case KindRPCRetransmit:
		return "rpc.retransmit"
	case KindRound:
		return "round"
	case KindLockBlock:
		return "lock.block"
	case KindDeadlock:
		return "deadlock"
	case KindCrash:
		return "crash"
	case KindWALFlush:
		return "wal.flush"
	case KindCommitResent:
		return "commit.resent"
	case KindReaped:
		return "reaped"
	case KindUnresolvedRead:
		return "unresolved.read"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one recorded moment. All fields besides When and Kind are
// optional and kind-specific.
type Event struct {
	// When is the event time in Unix nanoseconds. Record stamps it from
	// the real clock when zero.
	When int64 `json:"when"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Node is the acting node's identifier, when known.
	Node uint64 `json:"node,omitempty"`
	// Trace and Span are the distributed-trace identity active when the
	// event happened, when known.
	Trace uint64 `json:"trace,omitempty"`
	Span  uint64 `json:"span,omitempty"`
	// A and B carry kind-specific payloads (see the Kind constants).
	A uint64 `json:"a,omitempty"`
	B uint64 `json:"b,omitempty"`
}

// slot is one ring entry: a sequence counter (even = stable, odd =
// being written) and the event's fields, all accessed atomically.
type slot struct {
	seq atomic.Uint64
	f   [7]atomic.Uint64 // when, kind, node, trace, span, a, b
}

// stripe is one independent ring. Writers claim slots with a ticket
// counter; the ring drops the oldest entry on wrap.
type stripe struct {
	pos   atomic.Uint64
	slots []slot
	_     [40]byte // keep neighbouring stripes off one cache line
}

// Recorder is a striped ring buffer of recent events.
type Recorder struct {
	stripes []stripe
	mask    uint64 // per-stripe slot index mask
	smask   uint64 // stripe index mask
	tick    atomic.Uint64
}

// DefaultSlots is the per-stripe capacity of the process-global
// recorder.
const DefaultSlots = 1024

// New builds a recorder with the given per-stripe slot count (rounded
// up to a power of two; minimum 16). The stripe count scales with
// GOMAXPROCS, also a power of two.
func New(slotsPerStripe int) *Recorder {
	slots := ceilPow2(slotsPerStripe, 16)
	nstripes := ceilPow2(runtime.GOMAXPROCS(0), 1)
	if nstripes > 64 {
		nstripes = 64
	}
	r := &Recorder{
		stripes: make([]stripe, nstripes),
		mask:    uint64(slots - 1),
		smask:   uint64(nstripes - 1),
	}
	for i := range r.stripes {
		r.stripes[i].slots = make([]slot, slots)
	}
	return r
}

func ceilPow2(n, min int) int {
	if n < min {
		n = min
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Record appends the event, dropping the oldest entry of its stripe
// when full. It is safe for concurrent use, performs no allocation and
// never blocks: a slot caught mid-write by a concurrent recorder is
// claimed via its sequence counter.
func (r *Recorder) Record(ev Event) {
	if ev.When == 0 {
		ev.When = clock.Real().Now().UnixNano()
	}
	// Spread writers over stripes. There is no portable per-P hint, so
	// mix a cheap round-robin ticket with the event's identity; either
	// alone is enough to keep one hot stripe from serializing writers.
	s := &r.stripes[(r.tick.Add(1)^ev.Span^ev.A)&r.smask]
	sl := &s.slots[(s.pos.Add(1)-1)&r.mask]
	// Claim the slot: bump seq to odd. A reader seeing odd (or a seq
	// change) discards the slot; a concurrent writer that loses the
	// race simply layers its stores after ours — the slot ends up
	// holding one of the two events plus a final even seq, and the
	// seq-recheck on read rejects mixed views.
	seq := sl.seq.Add(1)
	sl.f[0].Store(uint64(ev.When))
	sl.f[1].Store(uint64(ev.Kind))
	sl.f[2].Store(ev.Node)
	sl.f[3].Store(ev.Trace)
	sl.f[4].Store(ev.Span)
	sl.f[5].Store(ev.A)
	sl.f[6].Store(ev.B)
	sl.seq.Store(seq + 1)
}

// Snapshot copies the stable ring contents, oldest first. Slots being
// written concurrently are skipped rather than returned torn.
func (r *Recorder) Snapshot() []Event {
	var out []Event
	for i := range r.stripes {
		s := &r.stripes[i]
		for j := range s.slots {
			sl := &s.slots[j]
			for attempt := 0; attempt < 2; attempt++ {
				seq := sl.seq.Load()
				if seq == 0 || seq&1 == 1 {
					break // never written, or mid-write
				}
				ev := Event{
					When:  int64(sl.f[0].Load()),
					Kind:  Kind(sl.f[1].Load()),
					Node:  sl.f[2].Load(),
					Trace: sl.f[3].Load(),
					Span:  sl.f[4].Load(),
					A:     sl.f[5].Load(),
					B:     sl.f[6].Load(),
				}
				if sl.seq.Load() != seq {
					continue // torn: a writer got in; retry once
				}
				if ev.Kind != KindNone {
					out = append(out, ev)
				}
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].When < out[j].When })
	return out
}

// global is the process-wide recorder, always on.
var global = New(DefaultSlots)

// Default returns the process-global recorder.
func Default() *Recorder { return global }

// Record appends the event to the process-global recorder.
func Record(ev Event) { global.Record(ev) }

// Snapshot returns the process-global recorder's stable contents,
// oldest first.
func Snapshot() []Event { return global.Snapshot() }

// WriteJSONL writes events as JSON Lines, one event object per line,
// with the kind rendered symbolically.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, ev := range events {
		fmt.Fprintf(bw, `{"when":%d,"kind":%q`, ev.When, ev.Kind.String())
		if ev.Node != 0 {
			fmt.Fprintf(bw, `,"node":%d`, ev.Node)
		}
		if ev.Trace != 0 {
			fmt.Fprintf(bw, `,"trace":%d`, ev.Trace)
		}
		if ev.Span != 0 {
			fmt.Fprintf(bw, `,"span":%d`, ev.Span)
		}
		if ev.A != 0 {
			fmt.Fprintf(bw, `,"a":%d`, ev.A)
		}
		if ev.B != 0 {
			fmt.Fprintf(bw, `,"b":%d`, ev.B)
		}
		if _, err := bw.WriteString("}\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Dump writes a header followed by the recorder's snapshot as JSON
// Lines.
func (r *Recorder) Dump(w io.Writer, reason string) error {
	events := r.Snapshot()
	if _, err := fmt.Fprintf(w, "=== flight recorder dump (reason: %s, %d events) ===\n", reason, len(events)); err != nil {
		return err
	}
	return WriteJSONL(w, events)
}

// --- automatic dumps ---

// autoTail bounds how many trailing events an automatic dump emits, so
// a dump triggered from a failure path stays readable.
const autoTail = 128

var (
	autoMu    sync.Mutex
	autoSink  io.Writer = os.Stderr
	autoFired           = make(map[string]bool)
)

// SetAutoDump redirects automatic dumps (deadlock, crash) to w and
// re-arms every reason; nil disables them. The default sink is stderr.
// It returns the previous sink so tests can restore it.
func SetAutoDump(w io.Writer) io.Writer {
	autoMu.Lock()
	defer autoMu.Unlock()
	prev := autoSink
	autoSink = w
	autoFired = make(map[string]bool)
	return prev
}

// AutoDump writes the tail of the process-global recorder to the
// auto-dump sink — at most once per reason per process (or per
// SetAutoDump), so failure storms in tests cannot flood the output.
func AutoDump(reason string) {
	autoMu.Lock()
	defer autoMu.Unlock()
	if autoSink == nil || autoFired[reason] {
		return
	}
	autoFired[reason] = true
	events := global.Snapshot()
	if len(events) > autoTail {
		events = events[len(events)-autoTail:]
	}
	fmt.Fprintf(autoSink, "=== flight recorder dump (reason: %s, last %d events) ===\n", reason, len(events))
	_ = WriteJSONL(autoSink, events)
}

// failer is the slice of testing.TB that DumpOnFailure needs; declared
// locally so importing this package does not drag the testing package
// (and its flags) into non-test binaries.
type failer interface {
	Failed() bool
	Cleanup(func())
}

// DumpOnFailure arranges for the process-global recorder to be dumped
// to stderr when the test fails: call it at the top of a test whose
// failure modes are timing-dependent, and the flight log of the fatal
// run comes out with it.
func DumpOnFailure(t failer) {
	t.Cleanup(func() {
		if t.Failed() {
			_ = global.Dump(os.Stderr, "test failure")
		}
	})
}
