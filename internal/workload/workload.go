// Package workload provides the load generators and metric collectors
// used by the experiment harness (cmd/experiments), cmd/loadgen and the
// benchmarks. Two generator families live here:
//
//   - Closed loop (Run, RunFor): a fixed set of workers issue the next
//     op as soon as the previous one returns. Latency samples measure
//     service time only — when the system stalls, the workers stall
//     with it, so queueing delay is silently omitted (coordinated
//     omission). Right for micro-benchmarks, wrong for SLOs.
//   - Open loop (RunOpen): arrivals follow a deterministic schedule
//     (Poisson or fixed-rate, seeded) that does not react to the
//     system under test, and each op's latency is measured from its
//     intended arrival time, so backlog shows up in the tail instead
//     of disappearing. SearchCapacity bisects offered load for the
//     highest rate that still meets a latency SLO.
package workload

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mca/internal/clock"
	"mca/internal/metrics"
)

// exactCap is how many samples Latencies retains verbatim. Runs at or
// under the cap report exact percentiles; larger runs fall back to the
// log-linear histogram (error <= 1/16 of the value), keeping memory
// constant no matter how long the run.
const exactCap = 4096

// Latencies is a recorded set of operation durations: a log-linear
// histogram of every sample plus the first exactCap samples verbatim
// for exact small-run percentiles.
type Latencies struct {
	hist metrics.LogLinearHistogram

	mu      sync.Mutex
	samples []time.Duration // first exactCap samples
	sorted  bool            // samples are sorted (percentile cache)
	count   int
	sum     time.Duration
	max     time.Duration
}

// Add records one sample. Negative durations (clock steps) clamp to 0.
func (l *Latencies) Add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	l.hist.ObserveDuration(d)
	l.mu.Lock()
	l.count++
	l.sum += d
	if d > l.max {
		l.max = d
	}
	if len(l.samples) < exactCap {
		l.samples = append(l.samples, d)
		l.sorted = false
	}
	l.mu.Unlock()
}

// Count returns the number of samples.
func (l *Latencies) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Mean returns the average sample, or 0 with no samples.
func (l *Latencies) Mean() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count == 0 {
		return 0
	}
	return l.sum / time.Duration(l.count)
}

// Max returns the largest sample.
func (l *Latencies) Max() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.max
}

// Percentile returns the p-th percentile (0 < p <= 100), or 0 with no
// samples: exact while every sample is retained (runs up to exactCap
// ops, sorted once and cached), histogram-interpolated beyond that.
func (l *Latencies) Percentile(p float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count == 0 {
		return 0
	}
	if l.count <= len(l.samples) {
		if !l.sorted {
			sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
			l.sorted = true
		}
		idx := int(float64(len(l.samples))*p/100) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(l.samples) {
			idx = len(l.samples) - 1
		}
		return l.samples[idx]
	}
	s := l.hist.Snapshot()
	return time.Duration(s.Quantile(p / 100))
}

// Result summarises one generated load.
type Result struct {
	Ops      int
	Errors   int
	Elapsed  time.Duration
	Latency  *Latencies
	ErrKinds map[string]int
}

// Throughput returns completed (error-free) operations per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops-r.Errors) / r.Elapsed.Seconds()
}

// String renders a one-line summary for experiment tables.
func (r Result) String() string {
	return fmt.Sprintf("ops=%d errs=%d elapsed=%v thru=%.0f/s p50=%v p99=%v",
		r.Ops, r.Errors, r.Elapsed.Round(time.Millisecond), r.Throughput(),
		r.Latency.Percentile(50).Round(time.Microsecond),
		r.Latency.Percentile(99).Round(time.Microsecond))
}

// Run executes op opsPerWorker times in each of workers goroutines and
// collects latency and error counts, timed by c. op receives (worker,
// iteration). Closed loop: latencies measure service time, not queueing
// delay.
func Run(c clock.Clock, workers, opsPerWorker int, op func(worker, i int) error) Result {
	res := Result{Latency: &Latencies{}, ErrKinds: make(map[string]int)}
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	start := c.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				opStart := c.Now()
				err := op(w, i)
				res.Latency.Add(c.Since(opStart))
				mu.Lock()
				res.Ops++
				if err != nil {
					res.Errors++
					res.ErrKinds[errKind(err)]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Elapsed = c.Since(start)
	return res
}

// RunFor executes op repeatedly in each of workers goroutines until the
// duration elapses on c. Closed loop, like Run. Under a clock.Fake the run
// terminates exactly at the window edge: a worker starts another op
// only while Now() is strictly before start+d, so with ops that
// consume virtual time the last one completes at the deadline and
// Elapsed equals d exactly.
func RunFor(c clock.Clock, workers int, d time.Duration, op func(worker, i int) error) Result {
	res := Result{Latency: &Latencies{}, ErrKinds: make(map[string]int)}
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	start := c.Now()
	deadline := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; c.Now().Before(deadline); i++ {
				opStart := c.Now()
				err := op(w, i)
				res.Latency.Add(c.Since(opStart))
				mu.Lock()
				res.Ops++
				if err != nil {
					res.Errors++
					res.ErrKinds[errKind(err)]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Elapsed = c.Since(start)
	return res
}

func errKind(err error) string {
	msg := err.Error()
	if len(msg) > 40 {
		msg = msg[:40]
	}
	return msg
}

// Gauge tracks a high-water mark of a concurrent quantity.
type Gauge struct {
	mu  sync.Mutex
	cur int
	max int
}

// Enter increments the gauge and updates the maximum.
func (g *Gauge) Enter() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cur++
	if g.cur > g.max {
		g.max = g.cur
	}
}

// Exit decrements the gauge.
func (g *Gauge) Exit() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cur--
}

// Max returns the high-water mark.
func (g *Gauge) Max() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}
