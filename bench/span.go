package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanName identifies the layer boundary a span was recorded at.
type spanName uint8

// Names below numClasses are root spans, one per opClass: one client
// op, first attempt to committed reply.
const (
	spBegin       spanName = spanName(numClasses) + iota // dist.Manager.Begin
	spInvoke                                             // one dist.Txn.Invoke
	spCommit                                             // dist.Txn.Commit
	spObjectRead                                         // Managed.Read: lock + copy out
	spObjectWrite                                        // Managed.Write: lock + before-image + update
	spSend                                               // node.Endpoint.Send, any node
	spFlush                                              // one WAL flush, any node
	numSpanNames
)

func (n spanName) String() string {
	switch {
	case n < spanName(clsRead):
		return "action." + classNames[n]
	case n < spanName(numClasses):
		return "txn." + classNames[n]
	}
	return [...]string{"dist.begin", "dist.invoke", "dist.commit", "object.read", "object.write", "tcpnet.send", "store.flush"}[n-spBegin]
}

func rootSpan(c opClass) spanName { return spanName(c) }

// span is one timed interval. Spans of one client op share Req; Parent
// is the span that caused this one (0 for roots and for transport and
// WAL spans, which serve whichever requests are in flight).
type span struct {
	Name       spanName
	ID, Parent uint64
	Req        uint64
	Start, End int64 // ns since the tracer's epoch
}

// spanBuf is an append-only span store in fixed chunks, so a long
// traced window never re-copies what it already holds.
type spanBuf struct{ chunks [][]span }

const spanChunk = 1 << 14

func (b *spanBuf) add(s span) {
	n := len(b.chunks)
	if n == 0 || len(b.chunks[n-1]) == spanChunk {
		b.chunks = append(b.chunks, make([]span, 0, spanChunk))
		n++
	}
	b.chunks[n-1] = append(b.chunks[n-1], s)
}

// all appends the buffer's spans to dst.
func (b *spanBuf) all(dst []span) []span {
	for _, chunk := range b.chunks {
		dst = append(dst, chunk...)
	}
	return dst
}

// tracer keeps spans in memory. Clients own a spanBuf each; spans
// recorded on the program's goroutines (participants, transport, WAL)
// go to the shared one under mu.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu     sync.Mutex
	shared spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64    { return int64(time.Since(t.epoch)) }
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// record adds a finished span, ending now, to the shared buffer.
func (t *tracer) record(name spanName, req, parent uint64, start int64) {
	s := span{Name: name, ID: t.newID(), Parent: parent, Req: req, Start: start, End: t.now()}
	t.mu.Lock()
	t.shared.add(s)
	t.mu.Unlock()
}

// sharedSpans returns what the program's goroutines recorded.
func (t *tracer) sharedSpans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.shared.all(nil)
}

// opTrace is the trace state of one client op; the zero value means
// untraced.
type opTrace struct {
	traced bool
	req    uint64   // request id, shared by every span of the op
	root   uint64   // the op's root span
	buf    *spanBuf // the owning client's buffer
}

// child records a finished span of this op, ending now. The caller
// mints id, because a span's children may need it before the span ends.
func (tc opTrace) child(t *tracer, name spanName, id uint64, start int64) {
	tc.buf.add(span{Name: name, ID: id, Parent: tc.root, Req: tc.req, Start: start, End: t.now()})
}

// interval is a half-open time range.
type interval struct{ start, end int64 }

// coveredTime is the length of the union of the children clipped to
// the parent: overlapping children are counted once.
func coveredTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, reach int64
	reach = parent.start
	for _, c := range clipped {
		if c.start > reach {
			reach = c.start
		}
		if c.end > reach {
			total += c.end - reach
			reach = c.end
		}
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - coveredTime(parent, children)
}

// spanStats is what the per-layer metrics need from a traced window.
type spanStats struct {
	dur        [numSpanNames][]float64 // durations by name, ns
	invokeSelf []float64
	commitSelf []float64
	sumTxn     float64 // Σ root spans of tcp classes
	sumCommit  float64
	sumFlush   float64
}

// analyze folds the spans into durations and self times. The children
// of a dist.invoke or dist.commit span are the participant object
// spans that name it as parent, plus every transport send and WAL
// flush overlapping it: those carry no request id (the program does
// not pass one), so with two clients a send or flush that overlaps
// both clients' open spans is charged to both, and self time is a
// lower bound.
func analyze(spans []span) *spanStats {
	st := &spanStats{}
	byParent := make(map[uint64][]interval)
	var infra []interval
	var maxInfra int64
	for _, s := range spans {
		d := s.End - s.Start
		st.dur[s.Name] = append(st.dur[s.Name], float64(d))
		switch s.Name {
		case spObjectRead, spObjectWrite:
			byParent[s.Parent] = append(byParent[s.Parent], interval{s.Start, s.End})
		case spSend, spFlush:
			infra = append(infra, interval{s.Start, s.End})
			if d > maxInfra {
				maxInfra = d
			}
			if s.Name == spFlush {
				st.sumFlush += float64(d)
			}
		case spCommit:
			st.sumCommit += float64(d)
		}
		if s.Name >= rootSpan(clsRead) && s.Name < spBegin {
			st.sumTxn += float64(d)
		}
	}
	sort.Slice(infra, func(i, j int) bool { return infra[i].start < infra[j].start })
	var kids []interval
	for _, s := range spans {
		if s.Name != spInvoke && s.Name != spCommit {
			continue
		}
		p := interval{s.Start, s.End}
		kids = append(kids[:0], byParent[s.ID]...)
		first := sort.Search(len(infra), func(i int) bool { return infra[i].start >= p.start-maxInfra })
		for _, c := range infra[first:] {
			if c.start >= p.end {
				break
			}
			kids = append(kids, c)
		}
		self := float64(selfTime(p, kids))
		if s.Name == spInvoke {
			st.invokeSelf = append(st.invokeSelf, self)
		} else {
			st.commitSelf = append(st.commitSelf, self)
		}
	}
	return st
}

// writeSpansJSONL writes one JSON object per span.
func writeSpansJSONL(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		err := enc.Encode(struct {
			Name    string `json:"name"`
			ID      uint64 `json:"id"`
			Parent  uint64 `json:"parent"`
			Req     uint64 `json:"req"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}{s.Name.String(), s.ID, s.Parent, s.Req, s.Start, s.End})
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
