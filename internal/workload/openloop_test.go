package workload

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"mca/internal/clock"
)

// driveFake runs fn while advancing the fake clock in fixed steps, but
// only when at least `parked` sleepers are pending — the lockstep
// discipline that makes virtual-time runs deterministic: time moves
// only when every worker is blocked on it.
func driveFake(t *testing.T, f *clock.Fake, parked int, step time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-done:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("driveFake: run did not finish (workers never all parked?)")
		}
		if f.Pending() >= parked {
			f.Advance(step)
		} else {
			runtime.Gosched()
		}
	}
}

func TestBuildSchedulePoissonDeterministic(t *testing.T) {
	cfg := OpenConfig{
		Rate:   500,
		Window: 2 * time.Second,
		Seed:   42,
		Mix: []OpClass{
			{Name: "read", Weight: 70},
			{Name: "write", Weight: 30},
		},
		Keys: UniformKeys{N: 64},
	}
	a := BuildSchedule(cfg)
	b := BuildSchedule(cfg)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	cfg.Seed = 43
	c := BuildSchedule(cfg)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced the identical schedule")
	}
	// ~1000 Poisson arrivals expected; stddev ~32, allow 5 sigma.
	if len(a) < 840 || len(a) > 1160 {
		t.Fatalf("Poisson arrival count %d far from expected 1000", len(a))
	}
	// Class draws should roughly match the 70/30 mix.
	var reads int
	for _, ar := range a {
		if ar.At < 0 || ar.At >= cfg.Warmup+cfg.Window {
			t.Fatalf("arrival %v outside horizon", ar.At)
		}
		if ar.Key >= 64 {
			t.Fatalf("key %d outside distribution", ar.Key)
		}
		if ar.Class == 0 {
			reads++
		}
	}
	frac := float64(reads) / float64(len(a))
	if frac < 0.6 || frac > 0.8 {
		t.Fatalf("read fraction %.2f far from 0.70", frac)
	}
}

func TestBuildScheduleUniformSpacing(t *testing.T) {
	cfg := OpenConfig{
		Rate:    1000,
		Window:  50 * time.Millisecond,
		Process: ArrivalUniform,
		Mix:     []OpClass{{Name: "op", Weight: 1}},
	}
	sched := BuildSchedule(cfg)
	if len(sched) != 49 {
		t.Fatalf("len = %d, want 49 (1ms spacing, horizon-exclusive)", len(sched))
	}
	for i, a := range sched {
		want := time.Duration(i+1) * time.Millisecond
		if a.At != want {
			t.Fatalf("arrival %d at %v, want %v", i, a.At, want)
		}
	}
}

func TestRunForFakeClockExactWindow(t *testing.T) {
	f := clock.NewFake()
	const workers = 2
	var res Result
	driveFake(t, f, workers, time.Millisecond, func() {
		res = RunFor(f, workers, 50*time.Millisecond, func(w, i int) error {
			f.Sleep(time.Millisecond)
			return nil
		})
	})
	// Each worker fits exactly 50 one-millisecond ops in the window and
	// the last completes precisely at the deadline: virtual time makes
	// the window edge exact, not approximate.
	if res.Ops != workers*50 {
		t.Fatalf("Ops = %d, want %d", res.Ops, workers*50)
	}
	if res.Elapsed != 50*time.Millisecond {
		t.Fatalf("Elapsed = %v, want exactly 50ms", res.Elapsed)
	}
	if got := res.Latency.Percentile(99); got != time.Millisecond {
		t.Fatalf("closed-loop p99 = %v, want 1ms", got)
	}
}

func TestRunOpenMeasuresFromIntendedArrival(t *testing.T) {
	// Offered 1000/s with a 5ms service time and one worker: the system
	// can only serve 200/s, so a backlog builds. Closed-loop measurement
	// would report every op at ~5ms (coordinated omission); open-loop
	// latency is taken from each op's intended arrival, so the queueing
	// delay must dominate the tail.
	run := func() OpenResult {
		f := clock.NewFake()
		var res OpenResult
		driveFake(t, f, 1, time.Millisecond, func() {
			res = RunOpen(OpenConfig{
				Rate:           1000,
				Window:         50 * time.Millisecond,
				Process:        ArrivalUniform,
				Mix:            []OpClass{{Name: "op", Weight: 1, Op: func(w int, k uint64) error { f.Sleep(5 * time.Millisecond); return nil }}},
				MaxOutstanding: 1,
				MaxLag:         time.Second, // keep the run un-shed
				Clock:          f,
			})
		})
		return res
	}
	res := run()
	if res.Ops != 49 {
		t.Fatalf("Ops = %d, want 49", res.Ops)
	}
	if res.Overloaded {
		t.Fatal("MaxLag=1s run unexpectedly flagged overloaded")
	}
	if res.MaxLag < 100*time.Millisecond {
		t.Fatalf("MaxLag = %v, want >= 100ms of schedule lag", res.MaxLag)
	}
	// Service time is 5ms; queueing pushes the intended-arrival tail two
	// orders of magnitude past it.
	if p99 := res.Latency.Percentile(99); p99 < 100*time.Millisecond {
		t.Fatalf("open-loop p99 = %v, want >= 100ms (queueing must count)", p99)
	}
	if p50 := res.Latency.Percentile(50); p50 < 50*time.Millisecond {
		t.Fatalf("open-loop p50 = %v, want >= 50ms", p50)
	}
	if res.Elapsed <= 50*time.Millisecond {
		t.Fatalf("Elapsed = %v, want > window (backlog drain)", res.Elapsed)
	}
	if res.Achieved >= res.Offered/2 {
		t.Fatalf("Achieved = %.0f/s, want well under offered %.0f/s", res.Achieved, res.Offered)
	}

	// The whole virtual run is deterministic: replaying it yields the
	// identical statistics.
	res2 := run()
	if res.Ops != res2.Ops ||
		res.Latency.Percentile(50) != res2.Latency.Percentile(50) ||
		res.Latency.Percentile(99) != res2.Latency.Percentile(99) ||
		res.MaxLag != res2.MaxLag {
		t.Fatalf("virtual replay diverged: %v vs %v", res, res2)
	}
}

func TestRunOpenShedsOnOverload(t *testing.T) {
	f := clock.NewFake()
	cfg := OpenConfig{
		Rate:           1000,
		Window:         50 * time.Millisecond,
		Process:        ArrivalUniform,
		Mix:            []OpClass{{Name: "op", Weight: 1, Op: func(w int, k uint64) error { f.Sleep(5 * time.Millisecond); return nil }}},
		MaxOutstanding: 1,
		MaxLag:         10 * time.Millisecond,
		ShedOnOverload: true,
		Clock:          f,
	}
	total := len(BuildSchedule(cfg))
	var res OpenResult
	driveFake(t, f, 1, time.Millisecond, func() {
		res = RunOpen(cfg)
	})
	if !res.Overloaded {
		t.Fatal("run at 5x capacity with MaxLag=10ms not flagged overloaded")
	}
	if res.Dropped == 0 {
		t.Fatal("overloaded shedding run dropped nothing")
	}
	if res.Ops+res.Dropped != total {
		t.Fatalf("Ops(%d) + Dropped(%d) != scheduled %d", res.Ops, res.Dropped, total)
	}
}

func TestRunOpenPerClassAndErrors(t *testing.T) {
	f := clock.NewFake()
	var res OpenResult
	boom := func(w int, k uint64) error { f.Sleep(time.Millisecond); return errTest }
	ok := func(w int, k uint64) error { f.Sleep(time.Millisecond); return nil }
	driveFake(t, f, 1, time.Millisecond, func() {
		res = RunOpen(OpenConfig{
			Rate:           100,
			Window:         200 * time.Millisecond,
			Seed:           7,
			Mix:            []OpClass{{Name: "good", Weight: 1, Op: ok}, {Name: "bad", Weight: 1, Op: boom}},
			MaxOutstanding: 1,
			Clock:          f,
		})
	})
	if res.Ops == 0 {
		t.Fatal("no ops")
	}
	if res.Errors == 0 || res.ErrKinds["test failure"] != res.Errors {
		t.Fatalf("Errors = %d, ErrKinds = %v", res.Errors, res.ErrKinds)
	}
	good, bad := res.PerClass["good"], res.PerClass["bad"]
	if good == nil || bad == nil {
		t.Fatalf("missing per-class latencies: %v", res.PerClass)
	}
	if good.Count()+bad.Count() != res.Ops {
		t.Fatalf("per-class counts %d+%d != ops %d", good.Count(), bad.Count(), res.Ops)
	}
	if bad.Count() != res.Errors {
		t.Fatalf("bad class count %d != errors %d", bad.Count(), res.Errors)
	}
	if s := res.String(); s == "" {
		t.Fatal("empty summary")
	}
}

func TestLatenciesHistogramModeBeyondCap(t *testing.T) {
	l := &Latencies{}
	n := exactCap * 4
	exact := make([]time.Duration, 0, n)
	r := clock.NewRand(99)
	for i := 0; i < n; i++ {
		d := time.Duration(r.Intn(100_000_000)) // up to 100ms
		l.Add(d)
		exact = append(exact, d)
	}
	if l.Count() != n {
		t.Fatalf("Count = %d, want %d", l.Count(), n)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, p := range []float64{50, 90, 99, 99.9} {
		got := float64(l.Percentile(p))
		idx := int(float64(n)*p/100) - 1
		if idx < 0 {
			idx = 0
		}
		want := float64(exact[idx])
		if want == 0 {
			continue
		}
		if diff := got/want - 1; diff < -0.10 || diff > 0.10 {
			t.Fatalf("p%v = %v, exact %v: off by %.1f%%, want <=10%% (log-linear bound)",
				p, time.Duration(got), time.Duration(want), diff*100)
		}
	}
	if l.Max() != exact[n-1] {
		t.Fatalf("Max = %v, want %v", l.Max(), exact[n-1])
	}
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "test failure" }
