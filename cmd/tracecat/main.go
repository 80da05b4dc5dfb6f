// Command tracecat merges per-node span exports (JSON Lines, as written
// by trace.Recorder.WriteSpans) into one cross-node causal tree and
// analyses it:
//
//	go run ./cmd/tracecat node1.jsonl node2.jsonl ...
//
// By default it prints the merged tree as a cross-node ASCII timeline
// (the paper's figs 14/15 shape) followed by the critical path — the
// chain of spans that determined each root operation's latency, e.g.
// the slowest participant of the slowest 2PC round.
//
// Flags:
//
//	-width N     timeline width in columns (default 72)
//	-chrome F    also write Chrome trace_event JSON to F ("-" for
//	             stdout; load in Perfetto or chrome://tracing)
//	-dot F       also write a Graphviz digraph to F ("-" for stdout)
//	-slowest N   instead of the timeline, list the N slowest completed
//	             root operations (0 = all), slowest first
//	-attrib      with the listing, print each root's critical-path
//	             attribution (lock/force/net/queue/compute, from the
//	             spans of its trace) and the aggregate % per bucket
//	-check       quiet mode for CI: exit 1 when the merged tree is
//	             empty or any trace-less span's parent is missing from
//	             the input. Spans whose distributed-trace parent was
//	             dropped (tail sampling) are adopted under synthetic
//	             roots and only warned about.
//
// Exit status: 0 ok, 1 check failure (orphans / empty), 2 usage or
// input error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"mca/internal/trace"
)

func main() {
	width := flag.Int("width", 72, "timeline width in columns")
	chrome := flag.String("chrome", "", "write Chrome trace_event JSON to this file (\"-\" for stdout)")
	dot := flag.String("dot", "", "write a Graphviz digraph to this file (\"-\" for stdout)")
	check := flag.Bool("check", false, "exit non-zero when the tree is empty or has orphan spans")
	slowest := flag.Int("slowest", -1, "list the N slowest completed roots instead of the timeline (0 = all)")
	attrib := flag.Bool("attrib", false, "print per-root and aggregate phase attribution with the slowest listing")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tracecat [flags] spans.jsonl [more.jsonl ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	var spans []trace.Span
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecat: %v\n", err)
			os.Exit(2)
		}
		ss, err := trace.ReadSpans(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecat: %s: %v\n", path, err)
			os.Exit(2)
		}
		spans = append(spans, ss...)
	}

	tree := trace.Merge(spans)

	if *chrome != "" {
		if err := writeTo(*chrome, func(w io.Writer) error {
			return trace.WriteChrome(w, tree.Spans())
		}); err != nil {
			fmt.Fprintf(os.Stderr, "tracecat: chrome export: %v\n", err)
			os.Exit(2)
		}
	}
	if *dot != "" {
		if err := writeTo(*dot, func(w io.Writer) error {
			return trace.WriteDOT(w, tree.Spans())
		}); err != nil {
			fmt.Fprintf(os.Stderr, "tracecat: dot export: %v\n", err)
			os.Exit(2)
		}
	}

	if *check {
		switch {
		case len(tree.Roots) == 0:
			fmt.Fprintf(os.Stderr, "tracecat: check failed: merged tree is empty (%d spans read)\n", len(spans))
			os.Exit(1)
		case len(tree.Orphans) > 0:
			fmt.Fprintf(os.Stderr, "tracecat: check failed: %d orphan span(s) — parent missing from input:\n", len(tree.Orphans))
			for _, o := range tree.Orphans {
				s := o.Span
				fmt.Fprintf(os.Stderr, "  node=%v id=%v kind=%q span=%x parent=%x\n", s.Node, s.ID, s.Kind, s.SpanID, s.ParentSpanID)
			}
			os.Exit(1)
		}
		if len(tree.Adopted) > 0 {
			fmt.Fprintf(os.Stderr, "tracecat: warning: %d incomplete trace(s) — parent spans dropped (tail sampling?), children adopted under synthetic roots\n", len(tree.Adopted))
		}
		fmt.Printf("tracecat: ok: %d spans, %d root(s), 0 orphans\n", len(tree.Spans()), len(tree.Roots))
		return
	}

	if *slowest >= 0 || *attrib {
		printSlowest(tree, *slowest, *attrib)
		return
	}

	fmt.Print(tree.Render(*width))
	for _, root := range tree.Roots {
		path := trace.CriticalPath(root)
		if len(path) < 2 {
			continue
		}
		last := path[len(path)-1]
		total := last.End.Sub(path[0].Begin)
		fmt.Printf("\ncritical path (%s, %v):\n", name(path[0]), total)
		for i, s := range path {
			dur := "active"
			if !s.End.IsZero() {
				dur = s.End.Sub(s.Begin).String()
			}
			fmt.Printf("  %*s%s @%v (%s)\n", 2*i, "", name(s), s.Node, dur)
		}
	}
	if len(tree.Adopted) > 0 {
		fmt.Printf("\nwarning: %d incomplete trace(s) — parent spans dropped (tail sampling?), children shown under synthetic roots\n", len(tree.Adopted))
	}
	if len(tree.Orphans) > 0 {
		fmt.Printf("\nwarning: %d orphan span(s) — parent missing from input\n", len(tree.Orphans))
	}
}

// printSlowest lists the n slowest completed roots (n <= 0: all),
// slowest first, optionally with the per-root phase attribution and
// the aggregate share of tail time per exclusive bucket.
func printSlowest(tree *trace.Tree, n int, attrib bool) {
	var roots []trace.Span
	skipped := 0
	for _, r := range tree.Roots {
		if r.Synthetic || r.Span.End.IsZero() {
			skipped++
			continue
		}
		roots = append(roots, r.Span)
	}
	sort.Slice(roots, func(i, j int) bool {
		di, dj := roots[i].End.Sub(roots[i].Begin), roots[j].End.Sub(roots[j].Begin)
		if di != dj {
			return di > dj
		}
		return roots[i].TraceID < roots[j].TraceID
	})
	if n > 0 && len(roots) > n {
		roots = roots[:n]
	}
	if len(roots) == 0 {
		fmt.Println("no completed root operations")
		return
	}

	totals := make(map[string]int64)
	var total int64
	var traces map[uint64][]trace.Span
	if attrib {
		traces = trace.ByTrace(tree.Spans())
	}
	fmt.Printf("%-4s %-12s %-10s %-18s", "#", "duration", "outcome", "trace")
	if attrib {
		for _, b := range trace.BreakdownNames {
			fmt.Printf(" %10s", b)
		}
		fmt.Printf(" %-8s", "dominant")
	}
	fmt.Println()
	for i, s := range roots {
		fmt.Printf("%-4d %-12v %-10s %-18s", i+1, s.End.Sub(s.Begin), s.Outcome, fmt.Sprintf("%x", s.TraceID))
		if attrib {
			a := trace.Attribute(traces[s.TraceID])
			if s.TraceID == 0 { // no trace, no recorded wait: all compute
				d := s.End.Sub(s.Begin).Nanoseconds()
				a = trace.Attribution{Total: d, Compute: d}
			}
			buckets := a.Buckets()
			for _, b := range trace.BreakdownNames {
				v := buckets[b]
				totals[b] += v
				total += v
				fmt.Printf(" %10v", time.Duration(v).Round(time.Microsecond))
			}
			fmt.Printf(" %-8s", a.Dominant())
		}
		fmt.Println()
	}
	if attrib && total > 0 {
		fmt.Printf("%-4s %-12s %-10s %-18s", "", "", "", "aggregate %")
		for _, b := range trace.BreakdownNames {
			fmt.Printf(" %9.1f%%", 100*float64(totals[b])/float64(total))
		}
		fmt.Println()
	}
	if skipped > 0 {
		fmt.Printf("(%d synthetic or still-active root(s) excluded)\n", skipped)
	}
}

// name mirrors the renderer's span naming for the critical-path report.
func name(s trace.Span) string {
	if s.Label != "" {
		return s.Label
	}
	if s.Kind != "" {
		return s.Kind
	}
	return s.ID.String()
}

// writeTo writes via fn to the named file, or stdout for "-".
func writeTo(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
