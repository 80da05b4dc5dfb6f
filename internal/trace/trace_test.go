package trace_test

import (
	"strings"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/structures"
	"mca/internal/trace"
)

func TestRecorderCountsLifecycleEvents(t *testing.T) {
	rec := trace.NewRecorder()
	rt := action.NewRuntime(action.WithObserver(rec.Observe))

	a, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	child, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}

	outcomes := make(map[string]int)
	spans := rec.Spans()
	for _, s := range spans {
		outcomes[s.Outcome]++
	}
	if len(spans) != 2 {
		t.Fatalf("begins = %d", len(spans))
	}
	if outcomes[trace.OutcomeCommitted] != 1 {
		t.Fatalf("commits = %d", outcomes[trace.OutcomeCommitted])
	}
	if outcomes[trace.OutcomeAborted] != 1 {
		t.Fatalf("aborts = %d", outcomes[trace.OutcomeAborted])
	}
}

func TestEventsCarryParentage(t *testing.T) {
	rec := trace.NewRecorder()
	rt := action.NewRuntime(action.WithObserver(rec.Observe))

	a, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	child, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	_ = child.Commit()
	_ = a.Commit()

	var sawChild bool
	for _, s := range rec.Spans() {
		if s.ID == child.ID() {
			sawChild = true
			if s.Parent != a.ID() {
				t.Fatalf("child parent = %v, want %v", s.Parent, a.ID())
			}
		}
		if s.End.Before(s.Begin) {
			t.Fatalf("span %v ends before it begins", s.ID)
		}
	}
	if !sawChild {
		t.Fatal("child span missing")
	}
}

func TestRenderTimelineShape(t *testing.T) {
	rec := trace.NewRecorder()
	rt := action.NewRuntime(action.WithObserver(rec.Observe))

	// A fig 3-like run: serializing container with two constituents.
	s, err := structures.BeginSerializing(rt)
	if err != nil {
		t.Fatal(err)
	}
	rec.Label(s.Container().ID(), "A(serializing)")
	if err := s.RunConstituent(func(b *action.Action) error {
		rec.Label(b.ID(), "B")
		time.Sleep(2 * time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunConstituent(func(c *action.Action) error {
		rec.Label(c.ID(), "C")
		time.Sleep(2 * time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}

	out := trace.Merge(rec.Spans()).Render(60)
	t.Logf("\n%s", out)

	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline rows = %d, want 3:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "A(serializing)") {
		t.Fatalf("first row = %q", lines[0])
	}
	// Constituents are indented under the container.
	if !strings.HasPrefix(lines[1], "  ") || !strings.HasPrefix(lines[2], "  ") {
		t.Fatalf("constituents not indented:\n%s", out)
	}
	// All three committed.
	for _, l := range lines {
		if !strings.Contains(l, "C") {
			t.Fatalf("row without commit mark: %q", l)
		}
	}
	// B ends before C begins (sequential constituents).
	bBar := lines[1][24:]
	cBar := lines[2][24:]
	bEnd := strings.LastIndexByte(bBar, 'C')
	cStart := strings.IndexByte(cBar, '|')
	if bEnd == -1 || cStart == -1 || bEnd > cStart {
		t.Fatalf("B must end before C starts:\nB: %q\nC: %q", bBar, cBar)
	}
}

func TestRenderAbortMark(t *testing.T) {
	rec := trace.NewRecorder()
	rt := action.NewRuntime(action.WithObserver(rec.Observe))
	a, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	_ = a.Abort()
	out := trace.Merge(rec.Spans()).Render(40)
	if !strings.Contains(out, "A") {
		t.Fatalf("abort mark missing:\n%s", out)
	}
}

func TestRenderEmpty(t *testing.T) {
	rec := trace.NewRecorder()
	if out := trace.Merge(rec.Spans()).Render(40); !strings.Contains(out, "no spans") {
		t.Fatalf("empty render = %q", out)
	}
}

func TestRenderActiveActionMarkedOpen(t *testing.T) {
	rec := trace.NewRecorder()
	rt := action.NewRuntime(action.WithObserver(rec.Observe))
	a, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	child, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	_ = child.Commit()
	out := trace.Merge(rec.Spans()).Render(40)
	if !strings.Contains(out, "?") {
		t.Fatalf("open action must be marked '?':\n%s", out)
	}
	_ = a.Abort()
}
