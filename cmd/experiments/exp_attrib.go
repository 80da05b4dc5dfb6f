package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"mca/internal/clock"
	"mca/internal/loadgen"
	"mca/internal/trace"
	"mca/internal/workload"
)

// attribJSONPath, when set by the -attribjson flag, receives the E26
// measurement as BENCH_attrib.json.
var attribJSONPath string

// expAttrib is E26: tail-latency attribution. Two known slowdowns are
// injected into otherwise identical traced clusters — a 20ms WAL force
// delay (slow disk) and an 8-10ms link delay on one participant (slow
// peer) — and the slow-transaction capture taken at a failed SLO probe
// must localize each to the right exclusive phase bucket: force-wait
// dominant for the disk fault, network dominant for the link fault.
// The third section prices the instrumentation itself: an E23-style
// commit-bound workload with tracing+sampling+exemplars on versus off
// must stay within a 5% throughput budget.
func expAttrib(rep *report) error {
	ctx := context.Background()

	// attribScenario runs one fault-injection capture: a traced netsim
	// cluster, the injected fault, and a capacity probe whose SLO the
	// fault makes unreachable, so the failed probe auto-captures the
	// slowest sampled transactions with their phase attribution.
	attribScenario := func(inject func(*loadgen.Cluster)) (*loadgen.SlowTxnsReport, error) {
		cluster, err := loadgen.NewCluster(loadgen.ClusterConfig{
			Backend:      loadgen.BackendNetsim,
			Participants: 3,
			Registers:    24,
			// Keep everything slower than 10ms: the injected faults put
			// affected transactions well past that, the healthy rest
			// stays sub-millisecond and is sampled away.
			Trace: &trace.SamplerConfig{Threshold: 10 * time.Millisecond, Seed: 26},
		})
		if err != nil {
			return nil, err
		}
		defer cluster.Close()
		inject(cluster)
		rc := loadgen.RunConfig{
			Mix:    []loadgen.MixEntry{{Name: "write", Weight: 1}},
			Seed:   26,
			Warmup: 50 * time.Millisecond,
			Window: 300 * time.Millisecond,
			// Unreachable under either fault: every probe fails and the
			// capture reflects the probe nearest the (zero) capacity.
			SLO:         workload.SLO{Quantile: 0.99, Target: 5 * time.Millisecond},
			Start:       50,
			Max:         100,
			BisectIters: 0,
		}
		if _, err := cluster.SearchCapacity(ctx, rc); err != nil {
			return nil, err
		}
		return cluster.LastCapture(), nil
	}

	// checkScenario asserts a capture localized the fault: the wanted
	// bucket holds the strict plurality of the aggregate attribution and
	// the majority of captured transactions name it dominant.
	checkScenario := func(name, want string, st *loadgen.SlowTxnsReport) {
		if st == nil {
			rep.check(fmt.Sprintf("%s: failed SLO probe captured slow transactions", name), false)
			return
		}
		rep.check(fmt.Sprintf("%s: failed SLO probe captured slow transactions", name), len(st.Txns) > 0)
		rowPct := make([]string, 0, len(trace.BreakdownNames))
		top, topPct := "", -1.0
		for _, b := range trace.BreakdownNames {
			pct := st.AttributionPct[b]
			rowPct = append(rowPct, fmt.Sprintf("%s=%.1f%%", b, pct))
			if pct > topPct {
				top, topPct = b, pct
			}
		}
		dominant := 0
		for _, t := range st.Txns {
			if t.Dominant == want {
				dominant++
			}
		}
		rep.rowf("  %-14s %d txns at %.0f/s: %s", name, len(st.Txns), st.TriggerRateQPS,
			joinRows(rowPct))
		rep.check(fmt.Sprintf("%s: aggregate attribution names %q (got %q at %.1f%%)",
			name, want, top, topPct), top == want)
		rep.check(fmt.Sprintf("%s: majority of captured txns dominant=%q (%d/%d)",
			name, want, dominant, len(st.Txns)), 2*dominant > len(st.Txns))
	}

	// Scenario A — slow disk: 20ms per WAL force on every node. A 2PC
	// write pays prepare and commit forces, so force-wait should own
	// nearly all of the captured transactions' time.
	forceCap, err := attribScenario(func(c *loadgen.Cluster) {
		c.SetForceDelay(20 * time.Millisecond)
	})
	if err != nil {
		return fmt.Errorf("wal-force scenario: %w", err)
	}
	checkScenario("wal-force-20ms", "force", forceCap)

	// Scenario B — slow peer: 8-10ms extra delay on every message to or
	// from participant 0. Only transactions touching that participant
	// cross the slow link, and their time is wire time: network
	// dominant, while forces on the in-memory store stay near zero.
	netCap, err := attribScenario(func(c *loadgen.Cluster) {
		c.Netsim().SetNodeDelay(c.ParticipantID(0), 8*time.Millisecond, 10*time.Millisecond)
	})
	if err != nil {
		return fmt.Errorf("slow-peer scenario: %w", err)
	}
	checkScenario("slow-peer-8ms", "net", netCap)

	// Overhead: E23-style commit-bound closed loop (disjoint writes,
	// 1ms simulated force, throughput gated by group commit) on an
	// untraced cluster versus one with recorders, the tail sampler and
	// commit-latency exemplars live. Best-of-3 interleaved cells damp
	// scheduler noise; the budget is 5%.
	const (
		overheadWorkers = 16
		overheadCell    = 250 * time.Millisecond
		overheadRuns    = 3
	)
	newOverheadCluster := func(tr *trace.SamplerConfig) (*loadgen.Cluster, error) {
		c, err := loadgen.NewCluster(loadgen.ClusterConfig{
			Backend:      loadgen.BackendNetsim,
			Participants: 3,
			Registers:    2 * overheadWorkers,
			Trace:        tr,
		})
		if err != nil {
			return nil, err
		}
		c.SetForceDelay(time.Millisecond)
		return c, nil
	}
	measure := func(c *loadgen.Cluster) (float64, error) {
		res := workload.RunFor(clock.Real(), overheadWorkers, overheadCell, func(w, _ int) error {
			return c.Write(ctx, uint64(w)) // worker-disjoint keys
		})
		if res.Errors > 0 {
			return 0, fmt.Errorf("%d/%d writes failed: %v", res.Errors, res.Ops, res.ErrKinds)
		}
		return res.Throughput(), nil
	}
	base, err := newOverheadCluster(nil)
	if err != nil {
		return err
	}
	defer base.Close()
	// Production-shaped sampling: a tail threshold nothing in this
	// healthy cluster reaches plus a 1-in-128 baseline lottery, so the
	// cost measured is buffering and deciding, not span export.
	traced, err := newOverheadCluster(&trace.SamplerConfig{
		Threshold: 100 * time.Millisecond,
		BaselineN: 128,
		Seed:      26,
	})
	if err != nil {
		return err
	}
	defer traced.Close()
	var baseTPS, tracedTPS float64
	for i := 0; i < overheadRuns; i++ {
		b, err := measure(base)
		if err != nil {
			return fmt.Errorf("untraced run %d: %w", i, err)
		}
		t, err := measure(traced)
		if err != nil {
			return fmt.Errorf("traced run %d: %w", i, err)
		}
		if b > baseTPS {
			baseTPS = b
		}
		if t > tracedTPS {
			tracedTPS = t
		}
	}
	overheadPct := 100 * (1 - tracedTPS/baseTPS)
	rep.rowf("  overhead: untraced %8.0f txn/s   traced %8.0f txn/s   %+.2f%%",
		baseTPS, tracedTPS, overheadPct)
	rep.check(fmt.Sprintf("tracing overhead within 5%% budget (%.2f%%)", overheadPct),
		tracedTPS >= 0.95*baseTPS)

	if attribJSONPath != "" {
		scenario := func(want string, st *loadgen.SlowTxnsReport) map[string]any {
			out := map[string]any{"want_dominant": want}
			if st != nil {
				out["trigger_rate_qps"] = st.TriggerRateQPS
				out["captured_txns"] = len(st.Txns)
				out["attribution_pct"] = st.AttributionPct
			}
			return out
		}
		out := map[string]any{
			"experiment": "E26 tail-latency attribution: injected slowdowns localized by span attribution",
			"machine":    machineString(),
			"scenarios": map[string]any{
				"wal_force_20ms": scenario("force", forceCap),
				"slow_peer_8ms":  scenario("net", netCap),
			},
			"overhead": map[string]any{
				"workload":     fmt.Sprintf("E23-style disjoint writes, force=1ms, %d workers, best of %d x %v cells", overheadWorkers, overheadRuns, overheadCell),
				"untraced_tps": round2(baseTPS),
				"traced_tps":   round2(tracedTPS),
				"overhead_pct": round2(overheadPct),
				"budget_pct":   5,
			},
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(attribJSONPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		rep.rowf("  wrote %s", attribJSONPath)
	}
	return nil
}

// joinRows joins short row fragments with two-space separators.
func joinRows(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += "  "
		}
		out += p
	}
	return out
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

// machineString mirrors the BENCH_*.json machine field.
func machineString() string {
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
	return fmt.Sprintf("%s, %d hardware CPU, %s/%s", model, runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
}
