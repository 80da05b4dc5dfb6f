package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mca/internal/colour"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// testSpans builds a small two-node trace: a coordinator root span with
// a prepare round, whose RPC lands a participant action on node 2, plus
// one untraced local action on node 1.
func testSpans() []Span {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	return []Span{
		// node 1 (coordinator) export
		{ID: 1, Node: 1, TraceID: 100, SpanID: 10, Label: "transfer", Outcome: OutcomeCommitted, Begin: at(0), End: at(50)},
		{Kind: "round.prepare", Node: 1, TraceID: 100, SpanID: 11, ParentSpanID: 10, Label: "prepare 1/1", Outcome: OutcomeCommitted, Begin: at(5), End: at(20)},
		{Kind: "rpc.client", Node: 1, TraceID: 100, SpanID: 12, ParentSpanID: 11, Label: "dist.prepare to node-2", Outcome: OutcomeOK, Begin: at(6), End: at(19)},
		{ID: 7, Node: 1, Label: "local-only", Outcome: OutcomeAborted, Begin: at(30), End: at(40)},
		// node 2 (participant) export
		{Kind: "rpc.server", Node: 2, TraceID: 100, SpanID: 13, ParentSpanID: 12, Label: "dist.prepare", Outcome: OutcomeOK, Begin: at(8), End: at(18)},
		{ID: 21, Node: 2, TraceID: 100, SpanID: 14, ParentSpanID: 13, Colours: []colour.Colour{1}, Outcome: OutcomeCommitted, Begin: at(9), End: at(17)},
	}
}

func TestMergeBuildsOneRootedTree(t *testing.T) {
	tree := Merge(testSpans())
	if len(tree.Orphans) != 0 {
		t.Fatalf("orphans: %d, want 0", len(tree.Orphans))
	}
	if len(tree.Roots) != 2 {
		t.Fatalf("roots: %d, want 2 (traced root + untraced local)", len(tree.Roots))
	}
	root := tree.Roots[0]
	if root.Span.Label != "transfer" {
		t.Fatalf("first root %q, want the traced transfer", root.Span.Label)
	}
	depths := map[string]int{}
	root.Walk(func(n *TreeNode, d int) { depths[spanName(n.Span)] = d })
	want := map[string]int{
		"transfer":               0,
		"prepare 1/1":            1,
		"dist.prepare to node-2": 2,
		"dist.prepare":           3,
		"a21":                    4,
	}
	for name, d := range want {
		if depths[name] != d {
			t.Fatalf("span %q at depth %d, want %d (depths: %v)", name, depths[name], d, want)
		}
	}
	if got := len(tree.Spans()); got != len(testSpans()) {
		t.Fatalf("tree.Spans: %d, want %d", got, len(testSpans()))
	}
}

func TestMergeCrossNodeParentBeatsLocalParent(t *testing.T) {
	spans := testSpans()
	// The participant action also carries a local Parent link that would
	// resolve to a different span; the trace identity must win.
	spans[5].Parent = 7
	tree := Merge(spans)
	if len(tree.Orphans) != 0 {
		t.Fatalf("orphans: %d, want 0", len(tree.Orphans))
	}
	var parentOf21 string
	tree.Roots[0].Walk(func(n *TreeNode, _ int) {
		for _, c := range n.Children {
			if c.Span.ID == 21 {
				parentOf21 = spanName(n.Span)
			}
		}
	})
	if parentOf21 != "dist.prepare" {
		t.Fatalf("span 21 attached under %q, want the rpc.server span", parentOf21)
	}
}

func TestMergeAdoptsTraceOrphans(t *testing.T) {
	spans := testSpans()
	// Drop the rpc.server span: its child (the participant action)
	// names a parent missing from the input, but carries a trace
	// identity — so it is adopted under a synthetic root, not reported
	// as an orphan (the parent was plausibly tail-sampled away).
	spans = append(spans[:4], spans[5])
	tree := Merge(spans)
	if len(tree.Orphans) != 0 {
		t.Fatalf("orphans: %d, want 0 (trace orphans are adopted)", len(tree.Orphans))
	}
	if len(tree.Adopted) != 1 {
		t.Fatalf("adopted roots: %d, want 1", len(tree.Adopted))
	}
	root := tree.Adopted[0]
	if !root.Synthetic || root.Span.Kind != "synthetic.root" || root.Span.TraceID != 100 {
		t.Fatalf("synthetic root malformed: %+v", root.Span)
	}
	if len(root.Children) != 1 || root.Children[0].Span.ID != 21 {
		t.Fatalf("adopted children: %+v, want participant action 21", root.Children)
	}
	// The synthetic root spans its children so timelines stay sane.
	c := root.Children[0].Span
	if !root.Span.Begin.Equal(c.Begin) || !root.Span.End.Equal(c.End) {
		t.Fatalf("synthetic root [%v,%v] does not span child [%v,%v]",
			root.Span.Begin, root.Span.End, c.Begin, c.End)
	}
	// Adopted roots are part of Roots, so walks and renders see them.
	found := false
	for _, r := range tree.Roots {
		if r == root {
			found = true
		}
	}
	if !found {
		t.Fatalf("synthetic root missing from Roots")
	}
}

func TestMergeReportsLocalOrphans(t *testing.T) {
	spans := testSpans()
	// A trace-less span whose node-local parent is missing stays a hard
	// orphan: that is a truncated export, not tail sampling.
	spans = append(spans, Span{ID: 8, Parent: 9, Node: 1, Outcome: OutcomeCommitted,
		Begin: spans[3].Begin, End: spans[3].End})
	tree := Merge(spans)
	if len(tree.Orphans) != 1 {
		t.Fatalf("orphans: %d, want 1", len(tree.Orphans))
	}
	if tree.Orphans[0].Span.ID != 8 {
		t.Fatalf("orphan is %v, want local action 8", tree.Orphans[0].Span.ID)
	}
}

// TestMergeSampledOutCoordinator is the tail-sampling regression: the
// coordinator's whole export (root, round, rpc.client) was dropped by
// its sampler while the participant kept its spans. Merge must attach
// the surviving subtree under one synthetic root per trace and keep
// the participant's internal parent links intact.
func TestMergeSampledOutCoordinator(t *testing.T) {
	spans := testSpans()[4:] // participant export only
	tree := Merge(spans)
	if len(tree.Orphans) != 0 {
		t.Fatalf("orphans: %d, want 0", len(tree.Orphans))
	}
	if len(tree.Adopted) != 1 {
		t.Fatalf("adopted roots: %d, want 1 synthetic root for trace 100", len(tree.Adopted))
	}
	root := tree.Adopted[0]
	if len(root.Children) != 1 || root.Children[0].Span.Kind != "rpc.server" {
		t.Fatalf("synthetic root children: %+v, want the rpc.server span only", root.Children)
	}
	if len(root.Children[0].Children) != 1 || root.Children[0].Children[0].Span.ID != 21 {
		t.Fatalf("participant action 21 must stay under its rpc.server parent")
	}
	// The render must include the adopted subtree.
	out := tree.Render(40)
	if !bytes.Contains([]byte(out), []byte("dist.prepare")) {
		t.Fatalf("render missing adopted subtree:\n%s", out)
	}
}

func TestMergeDeduplicatesRepeatedInput(t *testing.T) {
	spans := testSpans()
	tree := Merge(append(spans, spans...))
	if got := len(tree.Spans()); got != len(spans) {
		t.Fatalf("doubled input produced %d spans, want %d", got, len(spans))
	}
}

// TestMergeKeepsSpansWithoutIdentity: two untraced rounds of one node
// share no identity to tell them apart by, so neither is a duplicate.
func TestMergeKeepsSpansWithoutIdentity(t *testing.T) {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	round := Span{Kind: "round.release", Node: 1, Label: "release 1/1", Outcome: OutcomeCommitted, Begin: t0, End: t0}
	tree := Merge([]Span{round, round})
	if len(tree.Roots) != 2 || len(tree.Orphans) != 0 {
		t.Fatalf("roots=%d orphans=%d, want 2 roots", len(tree.Roots), len(tree.Orphans))
	}
}

func TestRenderShowsAllNodes(t *testing.T) {
	out := Merge(testSpans()).Render(40)
	for _, want := range []string{"n1", "n2", "transfer", "prepare 1/1", "dist.prepare"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestCriticalPathFollowsLatestChild(t *testing.T) {
	tree := Merge(testSpans())
	path := CriticalPath(tree.Roots[0])
	if len(path) != 5 {
		t.Fatalf("critical path length %d, want 5", len(path))
	}
	if path[0].Label != "transfer" || path[4].ID != 21 {
		t.Fatalf("critical path endpoints wrong: %q .. %v", path[0].Label, path[4].ID)
	}
	// A second, slower round becomes the new critical path.
	spans := append(testSpans(), Span{
		Kind: "round.commit", Node: 1, TraceID: 100, SpanID: 15, ParentSpanID: 10,
		Label: "commit 1/1", Outcome: OutcomeCommitted,
		Begin: testSpans()[0].Begin.Add(21 * time.Millisecond),
		End:   testSpans()[0].Begin.Add(49 * time.Millisecond),
	})
	path = CriticalPath(Merge(spans).Roots[0])
	if len(path) != 2 || path[1].Label != "commit 1/1" {
		t.Fatalf("critical path did not follow the slower round: %+v", path)
	}
}

func TestWriteChromeIsValidTraceEventJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, testSpans()); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  uint64  `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != len(testSpans()) {
		t.Fatalf("chrome export has %d events, want %d", len(doc.TraceEvents), len(testSpans()))
	}
	pids := map[uint64]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
		if ev.TS < 0 || ev.Dur < 0 {
			t.Fatalf("event %q has negative ts/dur", ev.Name)
		}
		pids[ev.PID] = true
	}
	if !pids[1] || !pids[2] {
		t.Fatalf("chrome export lost node process ids: %v", pids)
	}
}

func TestWriteDOTGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDOT(&buf, testSpans()); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	golden := filepath.Join("testdata", "merge.dot")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("DOT output differs from golden %s:\n--- got ---\n%s--- want ---\n%s", golden, buf.String(), want)
	}
}

func TestRecorderWriteDOT(t *testing.T) {
	rec := NewRecorder()
	rec.AddSpan(testSpans()[0])
	var buf bytes.Buffer
	if err := WriteDOT(&buf, rec.Spans()); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("digraph trace")) {
		t.Fatalf("not a digraph:\n%s", buf.String())
	}
}
