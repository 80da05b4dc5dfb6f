// Cross-node trace merging: the analysis half of distributed tracing.
// Each node exports its spans independently (WriteSpans); Merge joins
// the per-node streams into one causal tree using the distributed-trace
// identities (TraceID/SpanID/ParentSpanID) where present and the
// node-local action tree (Node, ID, Parent) otherwise. The merged tree
// feeds the fig 14/15-style cross-node renderer, the critical-path
// analysis and the Chrome trace_event export (cmd/tracecat).
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"mca/internal/ids"
)

// TreeNode is one span in a merged causal tree, with its children
// ordered by begin time.
type TreeNode struct {
	Span     Span
	Children []*TreeNode
	// Synthetic marks a root fabricated by Merge to adopt spans whose
	// parent is missing from the input — dropped by the tail sampler
	// or absent from a partial export. It represents no recorded work.
	Synthetic bool
}

// Walk visits the node and its descendants depth-first, with the
// nesting depth (0 for the receiver).
func (n *TreeNode) Walk(fn func(*TreeNode, int)) {
	var walk func(*TreeNode, int)
	walk = func(tn *TreeNode, depth int) {
		fn(tn, depth)
		for _, c := range tn.Children {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
}

// Tree is the result of merging per-node span exports: a forest of
// causal trees plus any spans whose named parent is missing from the
// merged input (a sign of an incomplete export set).
type Tree struct {
	// Roots are the spans with no parent reference, ordered by begin
	// time. Includes synthetic roots (see Adopted).
	Roots []*TreeNode
	// Adopted are the synthetic roots fabricated for spans whose
	// distributed-trace parent is missing from the input (one per
	// affected trace): with tail sampling a participant's spans can
	// survive while the coordinator span that parented them was
	// dropped, and they must still render rather than vanish. Each
	// Adopted node also appears in Roots.
	Adopted []*TreeNode
	// Orphans are spans with no distributed-trace identity whose
	// node-local Parent is absent from the input. A complete export
	// set has none; unlike sampled-out trace parents, this is a sign
	// of a malformed or truncated export.
	Orphans []*TreeNode
}

// Spans returns every span in the tree (roots and orphans alike) in
// depth-first order.
func (t *Tree) Spans() []Span {
	var out []Span
	for _, r := range append(append([]*TreeNode{}, t.Roots...), t.Orphans...) {
		r.Walk(func(n *TreeNode, _ int) { out = append(out, n.Span) })
	}
	return out
}

// spanKey identifies a span across the merged input: by its
// distributed-trace identity when it has one, by (node, action id)
// otherwise.
type spanKey struct {
	trace, span uint64
	node        ids.NodeID
	id          ids.ActionID
}

func keyOf(s Span) spanKey {
	if s.SpanID != 0 {
		return spanKey{trace: s.TraceID, span: s.SpanID}
	}
	return spanKey{node: s.Node, id: s.ID}
}

// Merge joins span exports from any number of nodes into one causal
// tree. Parent links resolve through the distributed-trace identity
// first (TraceID + ParentSpanID, which may cross nodes) and through
// the node-local action tree (Node + Parent) otherwise. Duplicate
// spans (same identity, e.g. a file merged twice) keep the first
// occurrence; spans with no identity at all (untraced rounds, WAL
// flushes) are all kept, as roots.
func Merge(spans []Span) *Tree {
	nodes := make([]*TreeNode, 0, len(spans))
	index := make(map[spanKey]*TreeNode, len(spans))
	for _, s := range spans {
		k := keyOf(s)
		if _, dup := index[k]; dup {
			continue
		}
		n := &TreeNode{Span: s}
		if k.span != 0 || k.id != 0 {
			index[k] = n
		}
		nodes = append(nodes, n)
	}

	t := &Tree{}
	synthetic := make(map[uint64]*TreeNode)
	for _, n := range nodes {
		s := n.Span
		var parent *TreeNode
		switch {
		case s.ParentSpanID != 0:
			parent = index[spanKey{trace: s.TraceID, span: s.ParentSpanID}]
		case s.Parent != 0:
			parent = index[spanKey{node: s.Node, id: s.Parent}]
		default:
			t.Roots = append(t.Roots, n)
			continue
		}
		switch {
		case parent == nil && s.TraceID != 0:
			// The named parent is gone — most likely dropped by the
			// tail sampler on another node while this span survived.
			// Adopt the span under a per-trace synthetic root so it
			// still renders in causal context instead of vanishing.
			root, ok := synthetic[s.TraceID]
			if !ok {
				root = &TreeNode{
					Span: Span{
						Kind:    "synthetic.root",
						Label:   fmt.Sprintf("[incomplete trace %x: parent span(s) missing from input]", s.TraceID),
						TraceID: s.TraceID,
					},
					Synthetic: true,
				}
				synthetic[s.TraceID] = root
				t.Adopted = append(t.Adopted, root)
				t.Roots = append(t.Roots, root)
			}
			root.Children = append(root.Children, n)
		case parent == nil:
			t.Orphans = append(t.Orphans, n)
		case parent == n:
			// A self-referential span would make every walk recurse
			// forever; treat it as a root.
			t.Roots = append(t.Roots, n)
		default:
			parent.Children = append(parent.Children, n)
		}
	}
	// A synthetic root spans its adopted children, so timelines and
	// critical paths stay well-formed.
	for _, root := range t.Adopted {
		for _, c := range root.Children {
			s := c.Span
			if root.Span.Begin.IsZero() || (!s.Begin.IsZero() && s.Begin.Before(root.Span.Begin)) {
				root.Span.Begin = s.Begin
			}
			if s.End.After(root.Span.End) {
				root.Span.End = s.End
			}
		}
		root.Span.Outcome = OutcomeActive
	}

	byBegin := func(a, b *TreeNode) bool {
		if !a.Span.Begin.Equal(b.Span.Begin) {
			return a.Span.Begin.Before(b.Span.Begin)
		}
		// Stable tie-break so merges render deterministically.
		ka, kb := keyOf(a.Span), keyOf(b.Span)
		if ka.span != kb.span {
			return ka.span < kb.span
		}
		if ka.node != kb.node {
			return ka.node < kb.node
		}
		return ka.id < kb.id
	}
	for _, n := range nodes {
		sort.Slice(n.Children, func(i, j int) bool { return byBegin(n.Children[i], n.Children[j]) })
	}
	for _, n := range t.Adopted {
		sort.Slice(n.Children, func(i, j int) bool { return byBegin(n.Children[i], n.Children[j]) })
	}
	sort.SliceStable(t.Roots, func(i, j int) bool { return byBegin(t.Roots[i], t.Roots[j]) })
	sort.Slice(t.Orphans, func(i, j int) bool { return byBegin(t.Orphans[i], t.Orphans[j]) })
	return t
}

// spanName picks the human-readable name for a span: its label, else
// its kind, else its action identifier.
func spanName(s Span) string {
	if s.Label != "" {
		return s.Label
	}
	if s.Kind != "" {
		return s.Kind
	}
	if s.ID != 0 {
		return s.ID.String()
	}
	return fmt.Sprintf("span-%x", s.SpanID)
}

// Render draws the tree as an ASCII timeline in the style of the
// paper's figures: one row per span, indented by causal depth, with a
// bar spanning begin to end on a global time scale — `|` at begin, `C`
// commit, `A` abort or error, `?` still active. An action row shows its
// colour set after its name. Rows are prefixed with the owning node
// when any span carries one (cross-node merges, figs 14/15); a
// single-node recording draws without that column. Orphans, if any,
// render in a trailing section.
func (t *Tree) Render(width int) string {
	if width < 20 {
		width = 20
	}
	var minT, maxT time.Time
	nodes := false
	all := append(append([]*TreeNode{}, t.Roots...), t.Orphans...)
	for _, r := range all {
		r.Walk(func(n *TreeNode, _ int) {
			s := n.Span
			if minT.IsZero() || (!s.Begin.IsZero() && s.Begin.Before(minT)) {
				minT = s.Begin
			}
			if s.End.After(maxT) {
				maxT = s.End
			}
			if s.Begin.After(maxT) {
				maxT = s.Begin
			}
			nodes = nodes || s.Node != 0
		})
	}
	if len(all) == 0 {
		return "(no spans)\n"
	}
	total := maxT.Sub(minT)
	if total <= 0 {
		total = time.Nanosecond
	}
	col := func(tm time.Time) int {
		c := int(float64(tm.Sub(minT)) / float64(total) * float64(width-1))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}

	var sb strings.Builder
	draw := func(n *TreeNode, depth int) {
		s := n.Span
		start := col(s.Begin)
		endCol := width - 1
		endMark := byte('?')
		if !s.End.IsZero() {
			endCol = col(s.End)
			switch s.Outcome {
			case OutcomeAborted, OutcomeError:
				endMark = 'A'
			default:
				endMark = 'C'
			}
		}
		line := make([]byte, width)
		for i := range line {
			line[i] = ' '
		}
		for i := start; i <= endCol && i < width; i++ {
			line[i] = '='
		}
		line[start] = '|'
		if endCol > start || !s.End.IsZero() {
			line[endCol] = endMark
		}
		if nodes {
			where := "-"
			if s.Node != 0 {
				where = s.Node.String()
			}
			fmt.Fprintf(&sb, "%-8s ", where)
		}
		name := strings.Repeat("  ", depth) + spanName(s)
		if len(s.Colours) > 0 {
			name += " {" + colourLabel(s.Colours) + "}"
		}
		fmt.Fprintf(&sb, "%-32s %s\n", name, string(line))
	}
	for _, r := range t.Roots {
		r.Walk(draw)
	}
	if len(t.Orphans) > 0 {
		sb.WriteString("-- orphans (parent span missing from input) --\n")
		for _, o := range t.Orphans {
			o.Walk(draw)
		}
	}
	return sb.String()
}

// CriticalPath walks from the root to the latest-finishing leaf,
// descending at each step into the child whose End is the maximum: the
// chain of spans that determined the operation's total latency (for a
// 2PC commit: the slowest participant of the slowest round). Spans
// without an End (still active) compare as latest.
func CriticalPath(root *TreeNode) []Span {
	var path []Span
	for n := root; n != nil; {
		path = append(path, n.Span)
		var next *TreeNode
		for _, c := range n.Children {
			if next == nil || endAfter(c.Span, next.Span) {
				next = c
			}
		}
		n = next
	}
	return path
}

// endAfter reports whether a finishes after b, with "still active"
// (zero End) counting as latest of all.
func endAfter(a, b Span) bool {
	if a.End.IsZero() {
		return true
	}
	if b.End.IsZero() {
		return false
	}
	return a.End.After(b.End)
}

// chromeEvent is one Chrome trace_event object ("X" complete events),
// loadable by Perfetto / chrome://tracing.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  uint64            `json:"pid"` // node
	TID  uint64            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChrome exports spans as Chrome trace_event JSON: one complete
// ("X") event per span, with the owning node as the process id, so
// Perfetto renders one track group per node. Timestamps are
// microseconds relative to the earliest span.
func WriteChrome(w io.Writer, spans []Span) error {
	var minT time.Time
	for _, s := range spans {
		if minT.IsZero() || (!s.Begin.IsZero() && s.Begin.Before(minT)) {
			minT = s.Begin
		}
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		cat := s.Kind
		if cat == "" {
			cat = "action"
		}
		dur := 0.0
		if !s.End.IsZero() {
			dur = float64(s.End.Sub(s.Begin)) / float64(time.Microsecond)
		}
		tid := s.SpanID
		if tid == 0 {
			tid = uint64(s.ID)
		}
		args := map[string]string{"outcome": s.Outcome}
		if s.TraceID != 0 {
			args["trace"] = fmt.Sprintf("%x", s.TraceID)
		}
		events = append(events, chromeEvent{
			Name: spanName(s),
			Cat:  cat,
			Ph:   "X",
			TS:   float64(s.Begin.Sub(minT)) / float64(time.Microsecond),
			Dur:  dur,
			PID:  uint64(s.Node),
			TID:  tid,
			Args: args,
		})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].TS != events[j].TS {
			return events[i].TS < events[j].TS
		}
		return events[i].TID < events[j].TID
	})
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events}); err != nil {
		return fmt.Errorf("trace: encode chrome trace: %w", err)
	}
	return bw.Flush()
}
