package loadgen

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"mca/internal/trace"
	"mca/internal/workload"
)

// Report is the BENCH_capacity.json schema: the capacity-at-SLO
// trajectory for each measured cluster plus the closed-vs-open
// coordinated-omission comparison.
type Report struct {
	Experiment string          `json:"experiment"`
	Machine    string          `json:"machine"`
	Mix        string          `json:"mix"`
	Arrivals   string          `json:"arrivals"`
	Skew       string          `json:"skew"`
	Seed       uint64          `json:"seed"`
	SLO        SLOReport       `json:"slo"`
	Clusters   []ClusterReport `json:"clusters"`
	// ClosedVsOpen demonstrates the coordinated-omission gap; optional.
	ClosedVsOpen *ClosedVsOpen `json:"closed_vs_open,omitempty"`
	// SlowTxns is the tail capture from the last failed SLO probe:
	// the slowest sampled transactions with per-phase attribution.
	// Present only when the cluster ran with tracing enabled and at
	// least one probe missed the SLO.
	SlowTxns *SlowTxnsReport `json:"slow_txns,omitempty"`
}

// SLOReport names the latency objective the search held.
type SLOReport struct {
	Quantile float64 `json:"quantile"`
	TargetMS float64 `json:"target_ms"`
}

// ClusterReport is one cluster's capacity search result.
type ClusterReport struct {
	Backend      string  `json:"backend"`
	Participants int     `json:"participants"`
	Registers    int     `json:"registers"`
	WarmupMS     float64 `json:"warmup_ms"`
	WindowMS     float64 `json:"window_ms"`
	// CapacityQPS is the highest offered rate that met the SLO.
	CapacityQPS float64 `json:"capacity_qps"`
	AtCapacity  *Point  `json:"at_capacity,omitempty"`
	// Trajectory records every probe in search order.
	Trajectory []Point `json:"trajectory"`
}

// Point is one probed offered rate. Latencies are open-loop: measured
// from intended arrival times.
type Point struct {
	RateQPS     float64 `json:"rate_qps"`
	Pass        bool    `json:"pass"`
	Overloaded  bool    `json:"overloaded"`
	AchievedQPS float64 `json:"achieved_qps"`
	Ops         int     `json:"ops"`
	Errors      int     `json:"errors"`
	Dropped     int     `json:"dropped"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	P999MS      float64 `json:"p999_ms"`
	MaxMS       float64 `json:"max_ms"`
}

// ClosedVsOpen is the paired coordinated-omission measurement.
type ClosedVsOpen struct {
	Backend        string  `json:"backend"`
	Workers        int     `json:"workers"`
	ClosedQPS      float64 `json:"closed_qps"`
	ClosedP50MS    float64 `json:"closed_p50_ms"`
	ClosedP99MS    float64 `json:"closed_p99_ms"`
	OpenOfferedQPS float64 `json:"open_offered_qps"`
	OpenP50MS      float64 `json:"open_p50_ms"`
	OpenP99MS      float64 `json:"open_p99_ms"`
	// COGapP99X is open p99 / closed p99 at the same load: how much
	// tail latency closed-loop measurement hides.
	COGapP99X float64 `json:"co_gap_p99_x"`
	Note      string  `json:"note"`
}

// SlowTxnsReport is the slow-transaction capture attached to a report
// when an SLO probe fails: the top-K slowest transactions the tail
// sampler kept, plus the aggregate share of their time per exclusive
// phase bucket (the same view tracecat -attrib prints).
type SlowTxnsReport struct {
	// TriggerRateQPS is the offered rate of the probe that failed.
	TriggerRateQPS float64 `json:"trigger_rate_qps"`
	// Txns lists the captured transactions, slowest first.
	Txns []SlowTxn `json:"txns"`
	// AttributionPct is each exclusive bucket's share of the captured
	// transactions' summed attribution, in percent (sums to ~100; the
	// buckets, not wall time, are the denominator — concurrent waits
	// on parallel fan-out legs can exceed the wall clock).
	AttributionPct map[string]float64 `json:"attribution_pct"`
}

// SlowTxn is one captured slow transaction.
type SlowTxn struct {
	TraceID    string  `json:"trace_id"`
	DurationMS float64 `json:"duration_ms"`
	Outcome    string  `json:"outcome"`
	// Dominant is the largest exclusive bucket (trace.Attribution).
	Dominant string `json:"dominant"`
	// BreakdownMS is the derived exclusive view in milliseconds.
	BreakdownMS map[string]float64 `json:"breakdown_ms"`
}

// NewSlowTxnsReport converts captured traces (Cluster.SlowTraces) to
// report form. Returns nil for an empty capture.
func NewSlowTxnsReport(rate float64, traces [][]trace.Span) *SlowTxnsReport {
	if len(traces) == 0 {
		return nil
	}
	out := &SlowTxnsReport{TriggerRateQPS: round2(rate)}
	totals := make(map[string]int64, len(trace.BreakdownNames))
	var total int64
	for _, spans := range traces {
		root, _ := trace.Root(spans)
		a := trace.Attribute(spans)
		st := SlowTxn{
			TraceID:     fmt.Sprintf("%016x", root.TraceID),
			DurationMS:  ms(root.End.Sub(root.Begin)),
			Outcome:     root.Outcome,
			Dominant:    a.Dominant(),
			BreakdownMS: make(map[string]float64, len(trace.BreakdownNames)),
		}
		for name, v := range a.Buckets() {
			totals[name] += v
			total += v
			st.BreakdownMS[name] = ms(time.Duration(v))
		}
		out.Txns = append(out.Txns, st)
	}
	out.AttributionPct = make(map[string]float64, len(totals))
	for _, name := range trace.BreakdownNames {
		pct := 0.0
		if total > 0 {
			pct = round2(100 * float64(totals[name]) / float64(total))
		}
		out.AttributionPct[name] = pct
	}
	return out
}

// ms converts a duration to float milliseconds, rounded to 3 decimals.
func ms(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// NewPoint converts a probe point to report form.
func NewPoint(p workload.ProbePoint) Point {
	return Point{
		RateQPS:     p.Rate,
		Pass:        p.Pass,
		Overloaded:  p.Overloaded,
		AchievedQPS: round2(p.Achieved),
		Ops:         p.Ops,
		Errors:      p.Errors,
		Dropped:     p.Dropped,
		P50MS:       ms(p.P50),
		P99MS:       ms(p.P99),
		P999MS:      ms(p.P999),
		MaxMS:       ms(p.Max),
	}
}

// NewClusterReport converts a capacity search result to report form.
func NewClusterReport(cfg ClusterConfig, rc RunConfig, res workload.CapacityResult) ClusterReport {
	backend := string(cfg.Backend)
	if backend == "" {
		backend = string(BackendNetsim)
	}
	out := ClusterReport{
		Backend:      backend,
		Participants: cfg.Participants,
		Registers:    cfg.Registers,
		WarmupMS:     ms(rc.Warmup),
		WindowMS:     ms(rc.Window),
		CapacityQPS:  res.Capacity,
		Trajectory:   make([]Point, 0, len(res.Points)),
	}
	for _, p := range res.Points {
		out.Trajectory = append(out.Trajectory, NewPoint(p))
	}
	if res.AtCapacity != nil {
		pt := NewPoint(*res.AtCapacity)
		out.AtCapacity = &pt
	}
	return out
}

// NewClosedVsOpen converts the paired measurement to report form.
func NewClosedVsOpen(backend Backend, co ClosedOpen) *ClosedVsOpen {
	closedP99 := co.Closed.Latency.Percentile(99)
	openP99 := co.Open.Latency.Percentile(99)
	gap := 0.0
	if closedP99 > 0 {
		gap = round2(float64(openP99) / float64(closedP99))
	}
	return &ClosedVsOpen{
		Backend:        string(backend),
		Workers:        co.Workers,
		ClosedQPS:      round2(co.ClosedRate),
		ClosedP50MS:    ms(co.Closed.Latency.Percentile(50)),
		ClosedP99MS:    ms(closedP99),
		OpenOfferedQPS: round2(co.Open.Offered),
		OpenP50MS:      ms(co.Open.Latency.Percentile(50)),
		OpenP99MS:      ms(openP99),
		COGapP99X:      gap,
		Note: "same load, two measurements: closed-loop latency is service time only " +
			"(workers pause arrivals while the system stalls); open-loop latency counts " +
			"from each op's intended arrival, so queueing delay lands in the tail",
	}
}

// Validate checks the report is structurally sound: at least one
// cluster, a positive capacity with its passing point, a non-empty
// trajectory and monotone quantiles at every point. The loadgen smoke
// gate in CI runs this against a fresh BENCH_capacity.json.
func (r *Report) Validate() error {
	if r.Experiment == "" {
		return fmt.Errorf("loadgen: report missing experiment name")
	}
	if r.SLO.Quantile <= 0 || r.SLO.Quantile >= 1 || r.SLO.TargetMS <= 0 {
		return fmt.Errorf("loadgen: bad SLO %+v", r.SLO)
	}
	if len(r.Clusters) == 0 {
		return fmt.Errorf("loadgen: report has no clusters")
	}
	for _, c := range r.Clusters {
		if c.Backend != string(BackendNetsim) && c.Backend != string(BackendTCP) {
			return fmt.Errorf("loadgen: cluster has unknown backend %q", c.Backend)
		}
		if len(c.Trajectory) == 0 {
			return fmt.Errorf("loadgen: %s cluster has an empty trajectory", c.Backend)
		}
		if c.CapacityQPS <= 0 {
			return fmt.Errorf("loadgen: %s cluster reports no sustainable capacity", c.Backend)
		}
		if c.AtCapacity == nil {
			return fmt.Errorf("loadgen: %s cluster has capacity %.0f but no at_capacity point",
				c.Backend, c.CapacityQPS)
		}
		if !c.AtCapacity.Pass || c.AtCapacity.RateQPS != c.CapacityQPS {
			return fmt.Errorf("loadgen: %s at_capacity point %+v does not match capacity %.0f",
				c.Backend, c.AtCapacity, c.CapacityQPS)
		}
		if c.AtCapacity.P99MS > r.SLO.TargetMS {
			return fmt.Errorf("loadgen: %s at_capacity p99 %.3fms exceeds SLO %.3fms",
				c.Backend, c.AtCapacity.P99MS, r.SLO.TargetMS)
		}
		for i, p := range c.Trajectory {
			if p.RateQPS <= 0 || p.Ops < 0 {
				return fmt.Errorf("loadgen: %s trajectory[%d] malformed: %+v", c.Backend, i, p)
			}
			// Quantiles are monotone in q in both exact and histogram
			// mode. MaxMS is excluded: beyond the exact-sample cap the
			// interpolated p999 may legitimately land above the true
			// max (inside its bucket).
			if p.P50MS > p.P99MS || p.P99MS > p.P999MS {
				return fmt.Errorf("loadgen: %s trajectory[%d] quantiles not monotone: %+v",
					c.Backend, i, p)
			}
		}
	}
	if co := r.ClosedVsOpen; co != nil {
		if co.ClosedQPS <= 0 || co.OpenOfferedQPS <= 0 {
			return fmt.Errorf("loadgen: closed_vs_open rates malformed: %+v", co)
		}
	}
	if st := r.SlowTxns; st != nil {
		if st.TriggerRateQPS <= 0 {
			return fmt.Errorf("loadgen: slow_txns has no trigger rate: %+v", st)
		}
		if len(st.Txns) == 0 {
			return fmt.Errorf("loadgen: slow_txns present but captured no transactions")
		}
		for i, t := range st.Txns {
			if t.TraceID == "" || t.DurationMS <= 0 || t.Dominant == "" {
				return fmt.Errorf("loadgen: slow_txns[%d] malformed: %+v", i, t)
			}
			if i > 0 && t.DurationMS > st.Txns[i-1].DurationMS {
				return fmt.Errorf("loadgen: slow_txns not sorted slowest-first at [%d]", i)
			}
		}
		var sum float64
		for name, pct := range st.AttributionPct {
			if pct < 0 || pct > 100 {
				return fmt.Errorf("loadgen: slow_txns attribution %s=%v out of range", name, pct)
			}
			sum += pct
		}
		if sum < 95 || sum > 105 {
			return fmt.Errorf("loadgen: slow_txns attribution sums to %.1f%%, want ~100%%", sum)
		}
	}
	return nil
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

// MachineString mirrors the machine field the other BENCH_*.json
// trajectory files carry.
func MachineString() string {
	model := "unknown CPU"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					model = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return fmt.Sprintf("%s, %d logical cores, %s/%s, %s",
		model, runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version())
}
