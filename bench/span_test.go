package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping", []interval{{110, 140}, {130, 160}}, 50},
		{"nested", []interval{{110, 180}, {120, 130}}, 30},
		{"clipped to the parent", []interval{{50, 110}, {190, 300}}, 80},
		{"outside the parent", []interval{{0, 100}, {200, 250}}, 100},
		{"covering it all", []interval{{0, 300}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAnalyzeAttributesChildren(t *testing.T) {
	spans := []span{
		{Name: rootSpan(clsTransfer), ID: 1, Req: 9, Start: 0, End: 1000},
		{Name: spInvoke, ID: 2, Parent: 1, Req: 9, Start: 100, End: 300},
		// The participant's span names the invoke as its parent; a send
		// overlaps it and the write, and is counted once.
		{Name: spObjectWrite, ID: 3, Parent: 2, Req: 9, Start: 150, End: 200},
		{Name: spSend, ID: 4, Start: 180, End: 220},
		// Another request's object span inside the same interval is not
		// this invoke's child.
		{Name: spObjectWrite, ID: 5, Parent: 77, Req: 8, Start: 230, End: 290},
		{Name: spCommit, ID: 6, Parent: 1, Req: 9, Start: 400, End: 900},
		{Name: spFlush, ID: 7, Start: 500, End: 700},
		{Name: spFlush, ID: 8, Start: 950, End: 990}, // after the commit span
	}
	st := analyze(spans)
	if len(st.invokeSelf) != 1 || st.invokeSelf[0] != 200-70 {
		t.Errorf("invoke self time %v, want [130]", st.invokeSelf)
	}
	if len(st.commitSelf) != 1 || st.commitSelf[0] != 500-200 {
		t.Errorf("commit self time %v, want [300]", st.commitSelf)
	}
	if st.sumTxn != 1000 || st.sumCommit != 500 || st.sumFlush != 240 {
		t.Errorf("sums txn=%v commit=%v flush=%v, want 1000 500 240", st.sumTxn, st.sumCommit, st.sumFlush)
	}
}

func TestSpansWriteAsJSONL(t *testing.T) {
	var buf bytes.Buffer
	err := writeSpansJSONL(&buf, []span{{Name: spCommit, ID: 3, Parent: 1, Req: 9, Start: 5, End: 8}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"dist.commit","id":3,"parent":1,"req":9,"start_ns":5,"end_ns":8}`
	if got := strings.TrimSpace(buf.String()); got != want {
		t.Errorf("got %s, want %s", got, want)
	}
	for n := spanName(0); n < numSpanNames; n++ {
		if !nameRE.MatchString(n.String()) {
			t.Errorf("span name %q", n)
		}
	}
}
