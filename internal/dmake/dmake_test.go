package dmake_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mca/internal/action"
	"mca/internal/colour"
	"mca/internal/dmake"
	"mca/internal/lock"
	"mca/internal/object"
	"mca/internal/store"
)

// paperFS builds the source tree of the paper's makefile.
func paperFS(rt *action.Runtime, opts ...object.Option) *dmake.FS {
	fs := dmake.NewFS(rt, opts...)
	for _, src := range []string{"Test0.h", "Test1.h", "Test0.c", "Test1.c"} {
		fs.Create(src, "src:"+src)
	}
	return fs
}

func mustParse(t *testing.T, src string) *dmake.Makefile {
	t.Helper()
	mf, err := dmake.ParseMakefile(src)
	if err != nil {
		t.Fatalf("ParseMakefile: %v", err)
	}
	return mf
}

func TestParseMakefile(t *testing.T) {
	mf := mustParse(t, dmake.PaperMakefile)
	rule := mf.Rule("Test0.o")
	if rule == nil {
		t.Fatal("no rule for Test0.o")
	}
	wantPrereqs := []string{"Test0.h", "Test1.h", "Test0.c"}
	if len(rule.Prereqs) != len(wantPrereqs) {
		t.Fatalf("prereqs = %v", rule.Prereqs)
	}
	for i, p := range wantPrereqs {
		if rule.Prereqs[i] != p {
			t.Fatalf("prereqs = %v, want %v", rule.Prereqs, wantPrereqs)
		}
	}
	if rule.Recipe != "cc -c Test0.c" {
		t.Fatalf("recipe = %q", rule.Recipe)
	}
}

func TestParseMakefileErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want error
	}{
		{"empty", "", dmake.ErrBadMakefile},
		{"recipe first", "\tcc -c x.c\n", dmake.ErrBadMakefile},
		{"no colon", "Test Test0.o\n", dmake.ErrBadMakefile},
		{"empty target", ": a b\n", dmake.ErrBadMakefile},
		{"duplicate", "a: b\na: c\n", dmake.ErrBadMakefile},
		{"cycle", "a: b\nb: a\n", dmake.ErrCycle},
		{"self cycle", "a: a\n", dmake.ErrCycle},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := dmake.ParseMakefile(tt.src); !errors.Is(err, tt.want) {
				t.Fatalf("ParseMakefile = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestMakeBuildsEverythingOnce(t *testing.T) {
	rt := action.NewRuntime()
	fs := paperFS(rt)
	maker := dmake.NewMaker(fs, mustParse(t, dmake.PaperMakefile))

	report, err := maker.Make("Test")
	if err != nil {
		t.Fatalf("Make: %v", err)
	}
	if len(report.Executed) != 3 {
		t.Fatalf("executed = %v", report.Executed)
	}
	// Dependency order: Test last.
	if report.Executed[2] != "Test" {
		t.Fatalf("Test must build last: %v", report.Executed)
	}
	if !maker.Consistent("Test") {
		t.Fatalf("Test inconsistent after make: %v", maker.InconsistentTargets())
	}
	got, ok := fs.Snapshot("Test")
	if !ok {
		t.Fatal("Test missing")
	}
	if !strings.Contains(got.Content, "cc -o Test") {
		t.Fatalf("content = %q", got.Content)
	}
}

func TestMakeIsIncremental(t *testing.T) {
	rt := action.NewRuntime()
	fs := paperFS(rt)
	maker := dmake.NewMaker(fs, mustParse(t, dmake.PaperMakefile))

	if _, err := maker.Make("Test"); err != nil {
		t.Fatal(err)
	}
	// Nothing changed: second run executes nothing.
	report, err := maker.Make("Test")
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Executed) != 0 {
		t.Fatalf("re-make executed %v", report.Executed)
	}
	if report.UpToDate != 3 {
		t.Fatalf("UpToDate = %d", report.UpToDate)
	}

	// Touch Test1.c: exactly Test1.o and Test rebuild.
	if err := rt.Run(func(a *action.Action) error {
		return fs.Write(a, "Test1.c", "src:Test1.c v2")
	}); err != nil {
		t.Fatal(err)
	}
	report, err = maker.Make("Test")
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Executed) != 2 {
		t.Fatalf("executed = %v, want [Test1.o Test]", report.Executed)
	}
	if report.Executed[0] != "Test1.o" || report.Executed[1] != "Test" {
		t.Fatalf("executed = %v", report.Executed)
	}
	if !maker.Consistent("Test") {
		t.Fatal("inconsistent after incremental make")
	}
}

func TestMakeConcurrentPrerequisites(t *testing.T) {
	// Fig 8: Test0.o and Test1.o are made concurrently. With a work
	// delay their recipes overlap, so the build runs both at once; with
	// one worker it runs them one by one, the sequential baseline. Both
	// builds end consistent.
	for _, tc := range []struct{ workers, wantParallel int }{{0, 2}, {1, 1}} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			rt := action.NewRuntime()
			fs := paperFS(rt)
			maker := dmake.NewMaker(fs, mustParse(t, dmake.PaperMakefile))
			maker.WorkDelay = 30 * time.Millisecond
			maker.MaxWorkers = tc.workers

			report, err := maker.Make("Test")
			if err != nil {
				t.Fatal(err)
			}
			if report.MaxParallel != tc.wantParallel {
				t.Fatalf("MaxParallel = %d, want %d", report.MaxParallel, tc.wantParallel)
			}
			if !maker.Consistent("Test") {
				t.Fatalf("Test inconsistent after make: %v", maker.InconsistentTargets())
			}
		})
	}
}

func TestFailedMakeKeepsCompletedTargets(t *testing.T) {
	// Requirement (iii): if dmake fails, files already made consistent
	// remain so.
	rt := action.NewRuntime()
	fs := paperFS(rt)
	maker := dmake.NewMaker(fs, mustParse(t, dmake.PaperMakefile))

	boom := errors.New("compiler segfault")
	maker.Compile = func(a *action.Action, fs *dmake.FS, rule *dmake.Rule) error {
		if rule.Target == "Test" {
			return boom
		}
		return dmake.SimulatedCompile(a, fs, rule)
	}
	_, err := maker.Make("Test")
	if !errors.Is(err, boom) {
		t.Fatalf("Make = %v, want %v", err, boom)
	}

	// The object files were made consistent and survive.
	for _, target := range []string{"Test0.o", "Test1.o"} {
		if !maker.Consistent(target) {
			t.Fatalf("%s must stay consistent after failed run", target)
		}
	}
	if fs.Exists("Test") {
		t.Fatal("Test must not exist (its recipe aborted)")
	}

	// A repaired compiler finishes the job, rebuilding only Test.
	maker.Compile = dmake.SimulatedCompile
	report, err := maker.Make("Test")
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Executed) != 1 || report.Executed[0] != "Test" {
		t.Fatalf("executed = %v, want [Test]", report.Executed)
	}
	if !maker.Consistent("Test") {
		t.Fatal("Test inconsistent after repair")
	}
}

func TestFilesLockedAgainstOutsideModificationDuringMake(t *testing.T) {
	// Requirement (ii): while dmake runs, the files it used stay
	// protected. After a recipe's constituent commits, the container
	// holds locks on the files it read and wrote.
	rt := action.NewRuntime(action.WithMaxLockWait(30 * time.Millisecond))
	fs := paperFS(rt)
	maker := dmake.NewMaker(fs, mustParse(t, dmake.PaperMakefile))

	gate := make(chan struct{})
	proceed := make(chan struct{})
	maker.Compile = func(a *action.Action, f *dmake.FS, rule *dmake.Rule) error {
		if rule.Target == "Test" {
			close(gate) // object files are built, final link in progress
			<-proceed
		}
		return dmake.SimulatedCompile(a, f, rule)
	}

	result := make(chan error, 1)
	go func() {
		_, err := maker.Make("Test")
		result <- err
	}()
	<-gate

	// Mid-make: an outside program cannot modify a source file the
	// build read, nor a built object file.
	outsider, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write(outsider, "Test0.c", "tampered"); err == nil {
		t.Fatal("outside write to Test0.c must be blocked during make")
	}
	obj, _ := fs.Object("Test0.o")
	if err := outsider.TryLock(obj.ObjectID(), lock.Write, colour.None); !errors.Is(err, lock.ErrConflict) {
		t.Fatalf("outside lock of Test0.o = %v, want ErrConflict", err)
	}
	_ = outsider.Abort()

	close(proceed)
	if err := <-result; err != nil {
		t.Fatalf("Make: %v", err)
	}

	// After the make ends everything is free again.
	after, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write(after, "Test0.c", "src:Test0.c v2"); err != nil {
		t.Fatalf("write after make: %v", err)
	}
	_ = after.Abort()
}

func TestMakeMissingSource(t *testing.T) {
	rt := action.NewRuntime()
	fs := dmake.NewFS(rt) // no sources at all
	maker := dmake.NewMaker(fs, mustParse(t, dmake.PaperMakefile))
	if _, err := maker.Make("Test"); err == nil {
		t.Fatal("make without sources must fail")
	}
}

func TestMakeUnknownTarget(t *testing.T) {
	rt := action.NewRuntime()
	fs := paperFS(rt)
	maker := dmake.NewMaker(fs, mustParse(t, dmake.PaperMakefile))
	if _, err := maker.Make("Nonsense"); err == nil {
		t.Fatal("unknown target must fail")
	}
}

func TestMakePersistsProducts(t *testing.T) {
	rt := action.NewRuntime()
	st := store.NewStable()
	fs := paperFS(rt, object.WithStore(st))
	maker := dmake.NewMaker(fs, mustParse(t, dmake.PaperMakefile))

	if _, err := maker.Make("Test"); err != nil {
		t.Fatal(err)
	}
	testObj, ok := fs.Object("Test")
	if !ok {
		t.Fatal("Test object missing")
	}
	loaded, err := object.Load[dmake.FileState](testObj.ObjectID(), st)
	if err != nil {
		t.Fatalf("Test not in stable store: %v", err)
	}
	if loaded.Peek().Content != testObj.Peek().Content {
		t.Fatal("stable content mismatch")
	}
}

func TestDiamondDependencyBuildsOnce(t *testing.T) {
	// top depends on left and right, both depending on base.
	src := `top: left right
	link top
left: base
	cc left
right: base
	cc right
base: src
	gen base
`
	rt := action.NewRuntime()
	fs := dmake.NewFS(rt)
	fs.Create("src", "s0")
	maker := dmake.NewMaker(fs, mustParse(t, src))

	report, err := maker.Make("top")
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Executed) != 4 {
		t.Fatalf("executed = %v, want each target once", report.Executed)
	}
	counts := make(map[string]int)
	for _, x := range report.Executed {
		counts[x]++
	}
	if counts["base"] != 1 {
		t.Fatalf("base built %d times", counts["base"])
	}
	if !maker.Consistent("top") {
		t.Fatal("top inconsistent")
	}
}

func TestDeepChainBuildsInOrder(t *testing.T) {
	var sb strings.Builder
	const depth = 12
	for i := depth; i >= 1; i-- {
		prev := "f0"
		if i > 1 {
			sb.WriteString("f")
			sb.WriteString(itoa(i))
			sb.WriteString(": f")
			sb.WriteString(itoa(i - 1))
			sb.WriteString("\n\tgen\n")
			continue
		}
		sb.WriteString("f1: " + prev + "\n\tgen\n")
	}
	rt := action.NewRuntime()
	fs := dmake.NewFS(rt)
	fs.Create("f0", "root")
	maker := dmake.NewMaker(fs, mustParse(t, sb.String()))

	report, err := maker.Make("f" + itoa(depth))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Executed) != depth {
		t.Fatalf("executed %d targets, want %d", len(report.Executed), depth)
	}
	for i := 1; i < len(report.Executed); i++ {
		// fK must come after fK-1: numeric suffixes strictly increase.
		prev, errP := atoi(strings.TrimPrefix(report.Executed[i-1], "f"))
		cur, errC := atoi(strings.TrimPrefix(report.Executed[i], "f"))
		if errP != nil || errC != nil || cur != prev+1 {
			t.Fatalf("build order wrong: %v", report.Executed)
		}
	}
}

func atoi(s string) (int, error) {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, errors.New("not a number")
		}
		n = n*10 + int(r-'0')
	}
	return n, nil
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestMaxWorkersBoundsParallelism(t *testing.T) {
	src := "all: a b c d\n\tlink\n" +
		"a: s\n\tcc\nb: s\n\tcc\nc: s\n\tcc\nd: s\n\tcc\n"
	rt := action.NewRuntime()
	fs := dmake.NewFS(rt)
	fs.Create("s", "src")
	maker := dmake.NewMaker(fs, mustParse(t, src))
	maker.WorkDelay = 15 * time.Millisecond
	maker.MaxWorkers = 1

	report, err := maker.Make("all")
	if err != nil {
		t.Fatal(err)
	}
	if report.MaxParallel != 1 {
		t.Fatalf("MaxParallel = %d with MaxWorkers=1", report.MaxParallel)
	}

	// Unbounded for contrast.
	rt2 := action.NewRuntime()
	fs2 := dmake.NewFS(rt2)
	fs2.Create("s", "src")
	maker2 := dmake.NewMaker(fs2, mustParse(t, src))
	maker2.WorkDelay = 15 * time.Millisecond
	report2, err := maker2.Make("all")
	if err != nil {
		t.Fatal(err)
	}
	if report2.MaxParallel < 2 {
		t.Fatalf("unbounded MaxParallel = %d, want >= 2", report2.MaxParallel)
	}
}

func TestFSNamesAndSnapshots(t *testing.T) {
	rt := action.NewRuntime()
	fs := dmake.NewFS(rt)
	fs.Create("a", "1")
	fs.Create("b", "2")
	if got := len(fs.Names()); got != 2 {
		t.Fatalf("Names = %d", got)
	}
	if _, ok := fs.Snapshot("missing"); ok {
		t.Fatal("Snapshot of missing file must report absent")
	}
	st, ok := fs.Snapshot("a")
	if !ok || st.Content != "1" || st.Stamp == 0 {
		t.Fatalf("Snapshot = %+v, %v", st, ok)
	}
}

func TestFSReadMissing(t *testing.T) {
	rt := action.NewRuntime()
	fs := dmake.NewFS(rt)
	a, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read(a, "ghost"); !errors.Is(err, dmake.ErrNoFile) {
		t.Fatalf("Read = %v, want ErrNoFile", err)
	}
	if stamp, err := fs.Stamp(a, "ghost"); err != nil || stamp != 0 {
		t.Fatalf("Stamp of missing = %d, %v; want 0, nil", stamp, err)
	}
	_ = a.Abort()
}

func TestFSRecreateAfterAbortedCreation(t *testing.T) {
	// A file created by an aborted action is gone; a later action can
	// create it again.
	rt := action.NewRuntime()
	fs := dmake.NewFS(rt)

	a, err := rt.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write(a, "new", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("new") {
		t.Fatal("aborted creation must not leave the file")
	}

	if err := rt.Run(func(b *action.Action) error {
		return fs.Write(b, "new", "v2")
	}); err != nil {
		t.Fatalf("recreate after aborted creation: %v", err)
	}
	st, ok := fs.Snapshot("new")
	if !ok || st.Content != "v2" {
		t.Fatalf("recreated = %+v, %v", st, ok)
	}
}

func TestFSStampsMonotonic(t *testing.T) {
	rt := action.NewRuntime()
	fs := dmake.NewFS(rt)
	fs.Create("f", "v0")
	first, _ := fs.Snapshot("f")
	for i := 0; i < 3; i++ {
		if err := rt.Run(func(a *action.Action) error {
			return fs.Write(a, "f", "v")
		}); err != nil {
			t.Fatal(err)
		}
		next, _ := fs.Snapshot("f")
		if next.Stamp <= first.Stamp {
			t.Fatalf("stamp did not advance: %d then %d", first.Stamp, next.Stamp)
		}
		first = next
	}
}
