// Graphviz export: the merged causal tree as a DOT digraph, for
// rendering trace shapes in documentation and debugging sessions.
package trace

import (
	"bufio"
	"fmt"
	"io"

	"mca/internal/colour"
)

// WriteDOT renders spans as a Graphviz digraph: one node per span
// (labelled with its name, owning node and outcome), one edge per
// parent link, with the child's colour set as the edge label. Output is
// deterministic for a given input order (Merge sorts by begin time, so
// merged trees render reproducibly).
func WriteDOT(w io.Writer, spans []Span) error {
	tree := Merge(spans)
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "digraph trace {")
	fmt.Fprintln(bw, "  rankdir=TB;")
	fmt.Fprintln(bw, "  node [shape=box, fontname=\"monospace\"];")

	names := make(map[*TreeNode]string)
	seq := 0
	var declare func(n *TreeNode)
	declare = func(n *TreeNode) {
		name := fmt.Sprintf("s%d", seq)
		seq++
		names[n] = name
		s := n.Span
		label := spanName(s)
		if s.Node != 0 {
			label += "\\n@" + s.Node.String()
		}
		if s.Outcome != "" {
			label += "\\n" + s.Outcome
		}
		attrs := ""
		switch s.Outcome {
		case OutcomeAborted, OutcomeError:
			attrs = ", color=red"
		case OutcomeActive:
			attrs = ", style=dashed"
		}
		fmt.Fprintf(bw, "  %s [label=\"%s\"%s];\n", name, label, attrs)
		for _, c := range n.Children {
			declare(c)
		}
	}
	var connect func(n *TreeNode)
	connect = func(n *TreeNode) {
		for _, c := range n.Children {
			attrs := ""
			if cs := colourLabel(c.Span.Colours); cs != "" {
				attrs = fmt.Sprintf(" [label=\"%s\"]", cs)
			}
			fmt.Fprintf(bw, "  %s -> %s%s;\n", names[n], names[c], attrs)
			connect(c)
		}
	}
	for _, r := range tree.Roots {
		declare(r)
	}
	for _, o := range tree.Orphans {
		declare(o)
	}
	for _, r := range tree.Roots {
		connect(r)
	}
	for _, o := range tree.Orphans {
		connect(o)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// colourLabel renders a colour set for an edge label, empty for none.
func colourLabel(cs []colour.Colour) string {
	out := ""
	for i, c := range cs {
		if i > 0 {
			out += ","
		}
		out += c.String()
	}
	return out
}
