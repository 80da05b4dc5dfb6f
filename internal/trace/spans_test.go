package trace_test

import (
	"bytes"
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/ids"
	"mca/internal/structures"
	"mca/internal/trace"
)

// TestRenderSelfParentEvent is a regression test: a malformed begin
// event naming the action as its own parent used to send draw() into
// unbounded recursion. It must render as a root instead.
func TestRenderSelfParentEvent(t *testing.T) {
	rec := trace.NewRecorder()
	base := time.Now()
	rec.Observe(action.Event{
		Kind:   action.EventBegin,
		Time:   base,
		Action: ids.ActionID(7),
		Parent: ids.ActionID(7),
	})
	rec.Observe(action.Event{
		Kind:   action.EventCommit,
		Time:   base.Add(time.Millisecond),
		Action: ids.ActionID(7),
	})

	done := make(chan string, 1)
	go func() { done <- trace.Merge(rec.Spans()).Render(40) }()
	select {
	case out := <-done:
		if !strings.Contains(out, ids.ActionID(7).String()) {
			t.Fatalf("self-parented action missing from render:\n%s", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Render did not return for a self-parented event")
	}

	// Spans must not report the bogus self-link either.
	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	if spans[0].Parent != 0 {
		t.Fatalf("self-parented span Parent = %v, want zero", spans[0].Parent)
	}
}

// TestRenderUnknownCompletion is a regression test: a commit or abort
// for an action whose begin was never recorded (observer attached
// mid-run) was silently dropped. It must now appear as a zero-length
// span.
func TestRenderUnknownCompletion(t *testing.T) {
	rec := trace.NewRecorder()
	base := time.Now()
	rec.Observe(action.Event{
		Kind:   action.EventBegin,
		Time:   base,
		Action: ids.ActionID(1),
	})
	rec.Observe(action.Event{
		Kind:   action.EventAbort,
		Time:   base.Add(time.Millisecond),
		Action: ids.ActionID(9), // never began
	})
	rec.Observe(action.Event{
		Kind:   action.EventCommit,
		Time:   base.Add(2 * time.Millisecond),
		Action: ids.ActionID(1),
	})

	out := trace.Merge(rec.Spans()).Render(40)
	if !strings.Contains(out, ids.ActionID(9).String()) {
		t.Fatalf("orphan completion missing from render:\n%s", out)
	}
	if !strings.Contains(out, "A") {
		t.Fatalf("orphan abort mark missing:\n%s", out)
	}

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	var orphan *trace.Span
	for i := range spans {
		if spans[i].ID == ids.ActionID(9) {
			orphan = &spans[i]
		}
	}
	if orphan == nil {
		t.Fatal("orphan completion missing from Spans")
	}
	if orphan.Outcome != trace.OutcomeAborted {
		t.Fatalf("orphan outcome = %q, want %q", orphan.Outcome, trace.OutcomeAborted)
	}
	if !orphan.Begin.Equal(orphan.End) {
		t.Fatal("orphan span should be zero-length")
	}
}

// TestRecorderConcurrent hammers Observe, AddSpan and Spans from many
// goroutines, with and without a sampler (one that keeps every trace),
// for the race detector: afterwards every span was stored exactly once.
func TestRecorderConcurrent(t *testing.T) {
	for _, sampled := range []bool{false, true} {
		t.Run(fmt.Sprintf("sampled=%v", sampled), func(t *testing.T) {
			rec := trace.NewRecorder()
			if sampled {
				rec.SetSampler(trace.NewSampler(trace.SamplerConfig{BaselineN: 1}))
			}
			rt := action.NewRuntime(action.WithObserver(rec.Observe))
			const writers, perWriter = 8, 100

			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						a, err := rt.Begin()
						if err != nil {
							t.Error(err)
							return
						}
						tc := rec.StartTrace(a.ID())
						child, err := a.Begin()
						if err != nil {
							t.Error(err)
							return
						}
						_ = child.Commit()
						round := tc.Child()
						rec.AddSpan(trace.Span{Kind: "round.prepare", TraceID: round.TraceID, SpanID: round.SpanID,
							ParentSpanID: tc.SpanID, Outcome: trace.OutcomeCommitted})
						rec.AddSpan(trace.Span{Kind: "wal.flush", Outcome: trace.OutcomeOK})
						if i%2 == 0 {
							_ = a.Commit()
						} else {
							_ = a.Abort()
						}
					}
				}()
			}
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						_ = trace.Merge(rec.Spans()).Render(40)
					}
				}()
			}
			wg.Wait()

			kinds := make(map[string]int)
			for _, s := range rec.Spans() {
				if s.Outcome == trace.OutcomeActive {
					t.Fatalf("span %+v still active", s)
				}
				kinds[s.Kind]++
			}
			want := map[string]int{"": 2 * writers * perWriter, "round.prepare": writers * perWriter, "wal.flush": writers * perWriter}
			if !maps.Equal(kinds, want) {
				t.Fatalf("spans by kind = %v, want %v", kinds, want)
			}
		})
	}
}

// TestLabelConcurrentWithRender applies labels while renders are in
// flight: Spans snapshots state under the lock, so late labels must
// neither race nor corrupt output.
func TestLabelConcurrentWithRender(t *testing.T) {
	rec := trace.NewRecorder()
	rt := action.NewRuntime(action.WithObserver(rec.Observe))
	a, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = trace.Merge(rec.Spans()).Render(40)
			_ = rec.Spans()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			rec.Label(a.ID(), "late-label")
		}
	}()
	wg.Wait()

	// After the dust settles the label must be applied.
	if !strings.Contains(trace.Merge(rec.Spans()).Render(40), "late-label") {
		t.Fatal("label applied after renders started was lost")
	}
	spans := rec.Spans()
	if len(spans) != 1 || spans[0].Label != "late-label" {
		t.Fatalf("span label = %+v", spans)
	}
}

// TestSpansRoundTripFig15 drives the fig 14/15 n-level independent
// structure, exports the spans as JSON Lines, decodes them back and
// reconstructs the nesting tree from parent links.
func TestSpansRoundTripFig15(t *testing.T) {
	rec := trace.NewRecorder()
	rt := action.NewRuntime(action.WithObserver(rec.Observe))

	// Fig 15: anchored A with independent C; nested B with independent
	// F and n-level independent E targeting A's anchor. B and A abort;
	// C, E, F commit.
	a, anchor, err := structures.BeginAnchored(rt)
	if err != nil {
		t.Fatal(err)
	}
	if err := structures.RunIndependent(a, func(*action.Action) error { return nil }); err != nil { // C
		t.Fatal(err)
	}
	b, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := structures.RunIndependent(b, func(*action.Action) error { return nil }); err != nil { // F
		t.Fatal(err)
	}
	if err := structures.RunIndependentTo(b, anchor, func(*action.Action) error { return nil }); err != nil { // E
		t.Fatal(err)
	}
	if err := b.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	rec.Label(a.ID(), "A")
	rec.Label(b.ID(), "B")

	var buf bytes.Buffer
	if err := rec.WriteSpans(&buf); err != nil {
		t.Fatalf("WriteSpans: %v", err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 5 {
		t.Fatalf("JSONL lines = %d, want 5 (A, C, B, F, E)\n%s", lines, buf.String())
	}

	decoded, err := trace.ReadSpans(&buf)
	if err != nil {
		t.Fatalf("ReadSpans: %v", err)
	}
	if len(decoded) != 5 {
		t.Fatalf("decoded spans = %d, want 5", len(decoded))
	}

	// Rebuild the tree from parent links.
	children := make(map[ids.ActionID][]trace.Span)
	byID := make(map[ids.ActionID]trace.Span)
	for _, s := range decoded {
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	roots := children[0]
	if len(roots) != 1 || roots[0].ID != a.ID() {
		t.Fatalf("roots = %+v, want exactly A", roots)
	}
	if roots[0].Label != "A" || roots[0].Outcome != trace.OutcomeAborted {
		t.Fatalf("A span = %+v", roots[0])
	}
	if got := len(children[a.ID()]); got != 2 {
		t.Fatalf("A has %d children, want 2 (C, B)", got)
	}
	bSpan, ok := byID[b.ID()]
	if !ok || bSpan.Parent != a.ID() {
		t.Fatalf("B span = %+v, want parent A", bSpan)
	}
	if bSpan.Label != "B" || bSpan.Outcome != trace.OutcomeAborted {
		t.Fatalf("B span = %+v", bSpan)
	}
	if got := len(children[b.ID()]); got != 2 {
		t.Fatalf("B has %d children, want 2 (F, E)", got)
	}
	// Every leaf (C, F, E) committed independently; E carries exactly
	// the anchor colour, skipping B's set (the point of fig 15).
	var sawAnchorColoured bool
	for _, leaves := range [][]trace.Span{children[a.ID()], children[b.ID()]} {
		for _, s := range leaves {
			if s.ID == b.ID() {
				continue
			}
			if s.Outcome != trace.OutcomeCommitted {
				t.Fatalf("independent leaf %v outcome = %q", s.ID, s.Outcome)
			}
			if s.End.Before(s.Begin) {
				t.Fatalf("leaf %v ends before it begins", s.ID)
			}
			if len(s.Colours) == 1 && s.Colours[0] == anchor.Colour() {
				sawAnchorColoured = true
			}
		}
	}
	if !sawAnchorColoured {
		t.Fatal("no leaf carries exactly the anchor colour (E missing)")
	}
}
