package workload

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mca/internal/clock"
)

func TestRunCountsOpsAndErrors(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	res := Run(clock.Real(), 4, 10, func(w, i int) error {
		calls.Add(1)
		if i%2 == 1 {
			return boom
		}
		return nil
	})
	if res.Ops != 40 {
		t.Fatalf("Ops = %d", res.Ops)
	}
	if res.Errors != 20 {
		t.Fatalf("Errors = %d", res.Errors)
	}
	if calls.Load() != 40 {
		t.Fatalf("calls = %d", calls.Load())
	}
	if res.Latency.Count() != 40 {
		t.Fatalf("latency samples = %d", res.Latency.Count())
	}
	if res.ErrKinds["boom"] != 20 {
		t.Fatalf("ErrKinds = %v", res.ErrKinds)
	}
	if res.Throughput() <= 0 {
		t.Fatalf("Throughput = %f", res.Throughput())
	}
}

func TestRunForStopsAtDeadline(t *testing.T) {
	start := time.Now()
	res := RunFor(clock.Real(), 2, 50*time.Millisecond, func(w, i int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("RunFor overran: %v", elapsed)
	}
	if res.Ops == 0 {
		t.Fatal("no ops recorded")
	}
}

func TestLatenciesStatistics(t *testing.T) {
	l := &Latencies{}
	for i := 1; i <= 100; i++ {
		l.Add(time.Duration(i) * time.Millisecond)
	}
	if got := l.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("Mean = %v", got)
	}
	if got := l.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := l.Percentile(99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if got := l.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
}

func TestLatenciesEmpty(t *testing.T) {
	l := &Latencies{}
	if l.Mean() != 0 || l.Percentile(50) != 0 || l.Count() != 0 {
		t.Fatal("empty latencies must be all zero")
	}
}

func TestGaugeHighWaterMark(t *testing.T) {
	var g Gauge
	g.Enter()
	g.Enter()
	g.Enter()
	g.Exit()
	g.Enter()
	if got := g.Max(); got != 3 {
		t.Fatalf("Max = %d, want 3", got)
	}
}
