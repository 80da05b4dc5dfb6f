package loadgen

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"mca/internal/clock"
	"mca/internal/workload"
)

// MixEntry is one parsed op-mix component.
type MixEntry struct {
	Name   string // read, write or transfer
	Weight float64
}

// ParseMix parses a YCSB-style mix spec like
// "read=70,write=20,transfer=10" into entries. Weights are relative;
// at least one must be positive.
func ParseMix(spec string) ([]MixEntry, error) {
	var out []MixEntry
	var total float64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("loadgen: mix component %q is not name=weight", part)
		}
		name = strings.TrimSpace(name)
		switch name {
		case "read", "write", "transfer":
		default:
			return nil, fmt.Errorf("loadgen: unknown op %q (want read, write or transfer)", name)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("loadgen: bad weight in %q", part)
		}
		total += w
		out = append(out, MixEntry{Name: name, Weight: w})
	}
	if len(out) == 0 || total <= 0 {
		return nil, fmt.Errorf("loadgen: mix %q has no positive weight", spec)
	}
	return out, nil
}

// MixString renders entries back to the canonical spec form.
func MixString(mix []MixEntry) string {
	parts := make([]string, len(mix))
	for i, m := range mix {
		parts[i] = fmt.Sprintf("%s=%g", m.Name, m.Weight)
	}
	return strings.Join(parts, ",")
}

// Classes binds a parsed mix to the cluster's transactions as workload
// op classes. The worker index is unused: every op goes through the
// shared coordinator.
func (c *Cluster) Classes(ctx context.Context, mix []MixEntry) ([]workload.OpClass, error) {
	out := make([]workload.OpClass, len(mix))
	for i, m := range mix {
		var op func(context.Context, uint64) error
		switch m.Name {
		case "read":
			op = c.Read
		case "write":
			op = c.Write
		case "transfer":
			op = c.Transfer
		default:
			return nil, fmt.Errorf("loadgen: unknown op %q", m.Name)
		}
		bound := op
		out[i] = workload.OpClass{
			Name:   m.Name,
			Weight: m.Weight,
			Op:     func(_ int, key uint64) error { return bound(ctx, key) },
		}
	}
	return out, nil
}

// RunConfig parameterises capacity searches and fixed-rate runs
// against a cluster.
type RunConfig struct {
	Mix     []MixEntry
	Keys    workload.KeyDist // default uniform over the registers
	Process workload.ArrivalProcess
	Seed    uint64
	Warmup  time.Duration // default 250ms
	Window  time.Duration // default 1s
	// MaxOutstanding bounds in-flight transactions. Default 128.
	MaxOutstanding int
	SLO            workload.SLO // default p99 <= 50ms
	// Start/Max/BisectIters shape the capacity search (see
	// workload.CapacityConfig). Start defaults to 50/s.
	Start       float64
	Max         float64
	BisectIters int
}

func (rc *RunConfig) setDefaults(c *Cluster) {
	if len(rc.Mix) == 0 {
		rc.Mix = []MixEntry{{Name: "write", Weight: 1}}
	}
	if rc.Keys == nil {
		rc.Keys = workload.UniformKeys{N: uint64(c.cfg.Registers)}
	}
	if rc.Warmup <= 0 {
		rc.Warmup = 250 * time.Millisecond
	}
	if rc.Window <= 0 {
		rc.Window = time.Second
	}
	if rc.MaxOutstanding <= 0 {
		rc.MaxOutstanding = 128
	}
	if rc.SLO.Quantile <= 0 {
		rc.SLO.Quantile = 0.99
	}
	if rc.SLO.Target <= 0 {
		rc.SLO.Target = 50 * time.Millisecond
	}
	if rc.Start <= 0 {
		rc.Start = 50
	}
}

// openConfig builds the open-loop run config for one offered rate.
func (rc *RunConfig) openConfig(classes []workload.OpClass, rate float64, shed bool) workload.OpenConfig {
	return workload.OpenConfig{
		Rate:           rate,
		Warmup:         rc.Warmup,
		Window:         rc.Window,
		Process:        rc.Process,
		Seed:           rc.Seed,
		Mix:            classes,
		Keys:           rc.Keys,
		MaxOutstanding: rc.MaxOutstanding,
		// Overload means the probe rate is already unsustainable;
		// shedding keeps saturated probes from grinding through the
		// whole backlog.
		ShedOnOverload: shed,
	}
}

// RunOpen executes one fixed-rate open-loop run against the cluster.
func (c *Cluster) RunOpen(ctx context.Context, rc RunConfig, rate float64) (workload.OpenResult, error) {
	rc.setDefaults(c)
	classes, err := c.Classes(ctx, rc.Mix)
	if err != nil {
		return workload.OpenResult{}, err
	}
	return workload.RunOpen(rc.openConfig(classes, rate, false)), nil
}

// SearchCapacity ramps and bisects offered load against the cluster,
// returning the capacity-at-SLO trajectory.
func (c *Cluster) SearchCapacity(ctx context.Context, rc RunConfig) (workload.CapacityResult, error) {
	rc.setDefaults(c)
	classes, err := c.Classes(ctx, rc.Mix)
	if err != nil {
		return workload.CapacityResult{}, err
	}
	return workload.SearchCapacity(workload.CapacityConfig{
		SLO:         rc.SLO,
		Start:       rc.Start,
		Max:         rc.Max,
		BisectIters: rc.BisectIters,
		Probe: func(rate float64) (workload.OpenResult, error) {
			if err := ctx.Err(); err != nil {
				return workload.OpenResult{}, err
			}
			res := workload.RunOpen(rc.openConfig(classes, rate, true))
			c.maybeCapture(rc, rate, res)
			return res, nil
		},
	})
}

// slowTxnCaptureK bounds a failed probe's slow-transaction capture.
const slowTxnCaptureK = 8

// maybeCapture snapshots the slowest sampled transactions when a probe
// missed its SLO (tail-latency attribution for the failure); each
// failing probe overwrites the last, so LastCapture reflects the probe
// nearest the capacity boundary.
func (c *Cluster) maybeCapture(rc RunConfig, rate float64, res workload.OpenResult) {
	if c.sampler == nil {
		return
	}
	if res.Latency.Percentile(rc.SLO.Quantile*100) <= rc.SLO.Target {
		return
	}
	if rep := NewSlowTxnsReport(rate, c.SlowTraces(slowTxnCaptureK)); rep != nil {
		c.mu.Lock()
		c.capture = rep
		c.mu.Unlock()
	}
}

// ClosedOpen pairs a closed-loop run with an open-loop run offered the
// closed loop's achieved throughput: the demonstration of coordinated
// omission. The closed loop's latencies are service times (its workers
// wait politely for the system), while the open loop's are measured
// from intended arrivals at the same load — the p99 gap between them
// is the queueing delay closed-loop measurement hides.
type ClosedOpen struct {
	Workers int
	Closed  workload.Result
	// ClosedRate is the closed loop's achieved ops/sec, which the open
	// run then offers.
	ClosedRate float64
	Open       workload.OpenResult
}

// CompareClosedOpen runs the paired measurement on the cluster.
func (c *Cluster) CompareClosedOpen(ctx context.Context, rc RunConfig, workers int) (ClosedOpen, error) {
	rc.setDefaults(c)
	if workers <= 0 {
		workers = 8
	}
	classes, err := c.Classes(ctx, rc.Mix)
	if err != nil {
		return ClosedOpen{}, err
	}
	var total float64
	cum := make([]float64, len(classes))
	for i, cl := range classes {
		total += cl.Weight
		cum[i] = total
	}
	// Per-worker deterministic streams: clock.Rand is not
	// concurrent-safe, so each closed-loop worker draws its own.
	rands := make([]*clock.Rand, workers)
	for w := range rands {
		rands[w] = clock.NewRand(rc.Seed + uint64(w)*0x9E37)
	}
	closed := workload.RunFor(clock.Real(), workers, rc.Window, func(w, _ int) error {
		r := rands[w]
		cls := 0
		if len(classes) > 1 {
			x := r.Float64() * total
			for cls < len(cum)-1 && x >= cum[cls] {
				cls++
			}
		}
		var key uint64
		if rc.Keys != nil {
			key = rc.Keys.Pick(r)
		}
		return classes[cls].Op(w, key)
	})
	out := ClosedOpen{Workers: workers, Closed: closed, ClosedRate: closed.Throughput()}
	if out.ClosedRate <= 0 {
		return out, fmt.Errorf("loadgen: closed loop made no progress (%d ops, %d errors)", closed.Ops, closed.Errors)
	}
	out.Open = workload.RunOpen(rc.openConfig(classes, out.ClosedRate, false))
	return out, nil
}
