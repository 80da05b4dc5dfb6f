package dmake_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mca/internal/action"
	"mca/internal/core"
	"mca/internal/dmake"
)

// randomDAG builds a layered random makefile: `layers` layers of
// `width` targets each; layer-0 nodes are source files; every target
// depends on 1-3 nodes of the previous layer.
func randomDAG(rng *rand.Rand, layers, width int) (makefile string, sources []string, top string) {
	var sb strings.Builder
	name := func(l, i int) string { return fmt.Sprintf("n_%d_%d", l, i) }

	for i := 0; i < width; i++ {
		sources = append(sources, name(0, i))
	}
	// The final target depends on the whole last layer.
	top = "top"
	sb.WriteString("top:")
	for i := 0; i < width; i++ {
		sb.WriteString(" " + name(layers-1, i))
	}
	sb.WriteString("\n\tlink top\n")

	for l := 1; l < layers; l++ {
		for i := 0; i < width; i++ {
			deps := map[string]struct{}{name(l-1, rng.Intn(width)): {}}
			for d := 0; d < rng.Intn(3); d++ {
				deps[name(l-1, rng.Intn(width))] = struct{}{}
			}
			sb.WriteString(name(l, i) + ":")
			for d := range deps {
				sb.WriteString(" " + d)
			}
			sb.WriteString(fmt.Sprintf("\n\tgen %s\n", name(l, i)))
		}
	}
	return sb.String(), sources, top
}

// reachable returns the set of rule targets reachable from goal.
func reachable(mf *dmake.Makefile, goal string) map[string]struct{} {
	out := make(map[string]struct{})
	var walk func(string)
	walk = func(cur string) {
		r := mf.Rule(cur)
		if r == nil {
			return
		}
		if _, seen := out[cur]; seen {
			return
		}
		out[cur] = struct{}{}
		for _, p := range r.Prereqs {
			walk(p)
		}
	}
	walk(goal)
	return out
}

func TestRandomDAGFullBuildIsConsistent(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			src, sources, top := randomDAG(rng, 4, 6)
			mf, err := dmake.ParseMakefile(src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			rt := core.NewRuntime()
			fs := dmake.NewFS(rt)
			for _, s := range sources {
				fs.Create(s, "src:"+s)
			}
			maker := dmake.NewMaker(fs, mf)

			report, err := maker.Make(top)
			if err != nil {
				t.Fatalf("make: %v", err)
			}
			live := reachable(mf, top)
			if got := len(report.Executed); got != len(live) {
				t.Fatalf("executed %d recipes, want %d (each reachable target once)", got, len(live))
			}
			for target := range live {
				if !maker.Consistent(target) {
					t.Fatalf("target %s inconsistent after full build", target)
				}
			}
		})
	}
}

func TestRandomDAGIncrementalRebuildIsMinimalAndCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src, sources, top := randomDAG(rng, 4, 6)
	mf, err := dmake.ParseMakefile(src)
	if err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime()
	fs := dmake.NewFS(rt)
	for _, s := range sources {
		fs.Create(s, "src:"+s)
	}
	maker := dmake.NewMaker(fs, mf)
	if _, err := maker.Make(top); err != nil {
		t.Fatal(err)
	}

	// Compute the affected cone of a touched source: every target
	// whose transitive prerequisites include it.
	dependsOn := func(target, source string) bool {
		var walk func(string) bool
		walk = func(cur string) bool {
			if cur == source {
				return true
			}
			r := mf.Rule(cur)
			if r == nil {
				return false
			}
			for _, p := range r.Prereqs {
				if walk(p) {
					return true
				}
			}
			return false
		}
		return walk(target)
	}

	for trial := 0; trial < 4; trial++ {
		touched := sources[rng.Intn(len(sources))]
		if err := rt.Run(func(a *action.Action) error {
			return fs.Write(a, touched, fmt.Sprintf("src:%s v%d", touched, trial+2))
		}); err != nil {
			t.Fatal(err)
		}

		live := reachable(mf, top)
		var cone []string
		for _, target := range mf.Targets() {
			if _, ok := live[target]; !ok {
				continue // unreachable from top: never built
			}
			if dependsOn(target, touched) {
				cone = append(cone, target)
			}
		}

		report, err := maker.Make(top)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(report.Executed), len(cone); got != want {
			t.Fatalf("touched %s: rebuilt %d targets %v, want the %d-target cone %v",
				touched, got, report.Executed, want, cone)
		}
		rebuilt := make(map[string]struct{}, len(report.Executed))
		for _, x := range report.Executed {
			rebuilt[x] = struct{}{}
		}
		for _, c := range cone {
			if _, ok := rebuilt[c]; !ok {
				t.Fatalf("cone member %s not rebuilt (rebuilt %v)", c, report.Executed)
			}
		}
		for target := range live {
			if !maker.Consistent(target) {
				t.Fatalf("target %s inconsistent after incremental build", target)
			}
		}
	}
}

func TestRandomDAGFailureLeavesBuiltSubtreeConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src, sources, top := randomDAG(rng, 4, 5)
	mf, err := dmake.ParseMakefile(src)
	if err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime()
	fs := dmake.NewFS(rt)
	for _, s := range sources {
		fs.Create(s, "src:"+s)
	}
	maker := dmake.NewMaker(fs, mf)

	// Fail the final link.
	maker.Compile = func(a *action.Action, f *dmake.FS, rule *dmake.Rule) error {
		if rule.Target == top {
			return fmt.Errorf("injected failure")
		}
		return dmake.SimulatedCompile(a, f, rule)
	}
	if _, err := maker.Make(top); err == nil {
		t.Fatal("expected the injected failure")
	}
	// Every built (reachable, non-top) target must be consistent.
	for target := range reachable(mf, top) {
		if target == top {
			continue
		}
		if !maker.Consistent(target) {
			t.Fatalf("target %s lost consistency in the failed run", target)
		}
	}
	// Repair and finish: exactly top rebuilds.
	maker.Compile = dmake.SimulatedCompile
	report, err := maker.Make(top)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Executed) != 1 || report.Executed[0] != top {
		t.Fatalf("executed = %v, want [%s]", report.Executed, top)
	}
}

func FuzzParseMakefile(f *testing.F) {
	f.Add(dmake.PaperMakefile)
	f.Add("a: b c\n\tcmd\nb:\n\tgen\nc:\n\tgen\n")
	f.Add(": bad\n")
	f.Add("x: x\n")
	f.Add("t:\n\tr1\n\tr2\n")
	f.Fuzz(func(t *testing.T, src string) {
		mf, err := dmake.ParseMakefile(src)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		// Parsed makefiles expose a coherent surface.
		if len(mf.Targets()) == 0 {
			t.Fatal("parsed makefile with no target")
		}
		for _, target := range mf.Targets() {
			if mf.Rule(target) == nil {
				t.Fatalf("target %q listed but has no rule", target)
			}
		}
	})
}
