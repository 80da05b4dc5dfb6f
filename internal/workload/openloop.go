package workload

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mca/internal/clock"
)

// ArrivalProcess selects how the open-loop schedule spaces arrivals.
type ArrivalProcess int

const (
	// ArrivalPoisson draws i.i.d. exponential inter-arrival gaps with
	// mean 1/Rate — the memoryless arrival stream of independent
	// clients, and the default.
	ArrivalPoisson ArrivalProcess = iota
	// ArrivalUniform spaces arrivals exactly 1/Rate apart (wrk2-style
	// fixed pacing): no burstiness, useful for calibration runs.
	ArrivalUniform
)

// String renders the process name for reports.
func (p ArrivalProcess) String() string {
	if p == ArrivalUniform {
		return "uniform"
	}
	return "poisson"
}

// OpClass is one operation class in a YCSB-style mix: a name for
// per-class reporting, a relative weight, and the op itself. The op
// receives the issuing worker index and the scheduled key.
type OpClass struct {
	Name   string
	Weight float64
	Op     func(worker int, key uint64) error
}

// Arrival is one scheduled operation: the offset from the start of the
// run at which it is *intended* to begin, its op class and its key.
// The schedule is fixed before the run starts and never reacts to the
// system under test — that independence is what makes the measurement
// open-loop.
type Arrival struct {
	At    time.Duration
	Class int
	Key   uint64
}

// OpenConfig configures one open-loop run.
type OpenConfig struct {
	// Rate is the offered load in arrivals per second. Required.
	Rate float64
	// Warmup is discarded from statistics (ops still execute).
	Warmup time.Duration
	// Window is the measured interval after warmup. Required.
	Window time.Duration
	// Process selects Poisson (default) or uniform arrivals.
	Process ArrivalProcess
	// Seed determines the whole schedule — arrival gaps, class draws
	// and keys. The same seed replays the same schedule.
	Seed uint64
	// Mix is the op classes with their weights. Required, non-empty.
	Mix []OpClass
	// Keys picks each arrival's key; nil schedules key 0 throughout.
	Keys KeyDist
	// MaxOutstanding bounds concurrently executing ops (the issuing
	// worker pool). Arrivals beyond the bound queue against their
	// intended start times, so their wait shows up as latency rather
	// than being omitted. Default 256.
	MaxOutstanding int
	// MaxLag is the overload detector: when the generator falls more
	// than this far behind the arrival schedule (every worker busy,
	// backlog growing), the run is flagged Overloaded. Default 250ms.
	MaxLag time.Duration
	// ShedOnOverload abandons the remaining schedule once overloaded
	// (arrivals are counted as Dropped instead of executed), so
	// capacity probes far past saturation return quickly instead of
	// grinding through the whole backlog.
	ShedOnOverload bool
	// Clock times the run (a clock.Fake makes it fully virtual).
	// Default clock.Real().
	Clock clock.Clock
}

// BuildSchedule generates the run's deterministic arrival schedule:
// every gap, class draw and key comes from one splitmix64 stream
// seeded with cfg.Seed, so two runs with the same config execute the
// identical op sequence.
func BuildSchedule(cfg OpenConfig) []Arrival {
	if cfg.Rate <= 0 {
		panic("workload: open-loop schedule needs a positive rate")
	}
	if len(cfg.Mix) == 0 {
		panic("workload: open-loop schedule needs at least one op class")
	}
	r := clock.NewRand(cfg.Seed)
	cum := make([]float64, len(cfg.Mix))
	var total float64
	for i, oc := range cfg.Mix {
		if oc.Weight < 0 {
			panic(fmt.Sprintf("workload: op class %q has negative weight", oc.Name))
		}
		total += oc.Weight
		cum[i] = total
	}
	if total <= 0 {
		panic("workload: op mix has no positive weight")
	}
	horizon := float64(cfg.Warmup + cfg.Window)
	gap := float64(time.Second) / cfg.Rate
	out := make([]Arrival, 0, int(horizon/gap)+16)
	var at float64
	for {
		if cfg.Process == ArrivalUniform {
			at += gap
		} else {
			at += gap * r.ExpFloat64()
		}
		if at >= horizon {
			return out
		}
		cls := 0
		if len(cfg.Mix) > 1 {
			x := r.Float64() * total
			for cls < len(cum)-1 && x >= cum[cls] {
				cls++
			}
		}
		var key uint64
		if cfg.Keys != nil {
			key = cfg.Keys.Pick(r)
		}
		out = append(out, Arrival{At: time.Duration(at), Class: cls, Key: key})
	}
}

// OpenResult summarises one open-loop run. All statistics cover the
// measured window only (warmup ops execute but are discarded).
type OpenResult struct {
	// Offered is the configured arrival rate.
	Offered float64
	// Achieved is completed error-free ops per second of the measured
	// interval, stretched to include backlog drain time — under
	// overload it falls below Offered.
	Achieved float64
	Ops      int // measured ops executed (including errored ones)
	Errors   int
	Dropped  int // measured arrivals shed after overload
	// Elapsed is the time from the end of warmup until the last op
	// completed (>= Window; larger means the run could not keep up).
	Elapsed time.Duration
	// Latency is measured from each op's *intended* arrival time, so
	// scheduling backlog counts toward the tail instead of being
	// coordinated-omitted.
	Latency  *Latencies
	PerClass map[string]*Latencies
	ErrKinds map[string]int
	// MaxLag is the furthest the generator fell behind the schedule.
	MaxLag time.Duration
	// Overloaded reports the lag bound was exceeded: the offered rate
	// is not sustainable.
	Overloaded bool
}

// String renders a one-line summary for experiment tables.
func (r OpenResult) String() string {
	state := ""
	if r.Overloaded {
		state = " OVERLOADED"
	}
	return fmt.Sprintf("offered=%.0f/s achieved=%.0f/s ops=%d errs=%d dropped=%d p50=%v p99=%v p999=%v%s",
		r.Offered, r.Achieved, r.Ops, r.Errors, r.Dropped,
		r.Latency.Percentile(50).Round(time.Microsecond),
		r.Latency.Percentile(99).Round(time.Microsecond),
		r.Latency.Percentile(99.9).Round(time.Microsecond), state)
}

// RunOpen executes one open-loop run: a pool of MaxOutstanding workers
// consumes the precomputed arrival schedule, each op sleeping until
// its intended start (or beginning immediately if the schedule is
// already behind) and recording latency from that intended start. The
// measurement is coordinated-omission-free: a stalled system delays
// completions, not arrivals, so queueing delay lands in the recorded
// tail exactly as a real client would observe it.
func RunOpen(cfg OpenConfig) OpenResult {
	c := cfg.Clock
	if c == nil {
		c = clock.Real()
	}
	if cfg.Window <= 0 {
		panic("workload: RunOpen needs a positive window")
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 256
	}
	if cfg.MaxLag <= 0 {
		cfg.MaxLag = 250 * time.Millisecond
	}
	sched := BuildSchedule(cfg)

	res := OpenResult{
		Offered:  cfg.Rate,
		Latency:  &Latencies{},
		PerClass: make(map[string]*Latencies, len(cfg.Mix)),
		ErrKinds: make(map[string]int),
	}
	byClass := make([]*Latencies, len(cfg.Mix))
	for i, oc := range cfg.Mix {
		l := res.PerClass[oc.Name]
		if l == nil {
			l = &Latencies{}
			res.PerClass[oc.Name] = l
		}
		byClass[i] = l
	}

	var (
		next       atomic.Int64
		maxLag     atomic.Int64
		overloaded atomic.Bool
		mu         sync.Mutex
		wg         sync.WaitGroup
	)
	start := c.Now()
	measureStart := start.Add(cfg.Warmup)
	for w := 0; w < cfg.MaxOutstanding; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				a := sched[i]
				target := start.Add(a.At)
				measured := !target.Before(measureStart)
				if cfg.ShedOnOverload && overloaded.Load() {
					// Already overloaded: drain the rest of the
					// schedule without pacing, so a hopeless probe
					// ends now instead of at the horizon.
					if measured {
						mu.Lock()
						res.Dropped++
						mu.Unlock()
					}
					continue
				}
				if wait := target.Sub(c.Now()); wait > 0 {
					c.Sleep(wait)
				} else if lag := -wait; lag > 0 {
					for {
						old := maxLag.Load()
						if int64(lag) <= old || maxLag.CompareAndSwap(old, int64(lag)) {
							break
						}
					}
					if lag > cfg.MaxLag {
						overloaded.Store(true)
					}
				}
				if cfg.ShedOnOverload && overloaded.Load() {
					if measured {
						mu.Lock()
						res.Dropped++
						mu.Unlock()
					}
					continue
				}
				err := cfg.Mix[a.Class].Op(w, a.Key)
				lat := c.Since(target)
				if !measured {
					continue
				}
				res.Latency.Add(lat)
				byClass[a.Class].Add(lat)
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
	res.MaxLag = time.Duration(maxLag.Load())
	res.Overloaded = overloaded.Load()
	elapsed := c.Since(measureStart)
	if elapsed < cfg.Window {
		elapsed = cfg.Window
	}
	res.Elapsed = elapsed
	res.Achieved = float64(res.Ops-res.Errors) / elapsed.Seconds()
	return res
}
