package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"mca/internal/loadgen"
	"mca/internal/trace"
	"mca/internal/workload"
)

// capacityJSONPath, when set by the -capacityjson flag, receives the
// E25 measurement as BENCH_capacity.json.
var capacityJSONPath string

// expCapacity is E25: open-loop capacity-at-SLO for real 2PC clusters
// on both transports, plus the closed-vs-open demonstration of
// coordinated omission. Unlike a closed-loop throughput cell, this
// measures the whole stack the way clients experience it:
// arrivals keep coming whether or not the system keeps up, and latency
// counts from each op's intended arrival.
func expCapacity(rep *report) error {
	ctx := context.Background()
	mix, err := loadgen.ParseMix("read=70,write=20,transfer=10")
	if err != nil {
		return err
	}
	const (
		participants = 3
		registers    = 48
		theta        = 0.99
		seed         = 1
	)
	slo := workload.SLO{Quantile: 0.99, Target: 50 * time.Millisecond}
	rc := loadgen.RunConfig{
		Mix:         mix,
		Keys:        workload.NewZipf(registers, theta),
		Seed:        seed,
		Warmup:      100 * time.Millisecond,
		Window:      400 * time.Millisecond,
		SLO:         slo,
		Start:       50,
		Max:         12800,
		BisectIters: 3,
	}

	out := &loadgen.Report{
		Experiment: "E25 capacity-at-SLO: open-loop load vs 3-participant 2PC clusters",
		Machine:    loadgen.MachineString(),
		Mix:        loadgen.MixString(mix),
		Arrivals:   rc.Process.String(),
		Skew:       fmt.Sprintf("zipf theta=%g", theta),
		Seed:       seed,
		SLO:        loadgen.SLOReport{Quantile: slo.Quantile, TargetMS: float64(slo.Target.Microseconds()) / 1000},
	}

	rep.rowf("  mix %s, zipf(%d keys, theta=%g), poisson arrivals, SLO p99 <= %v",
		out.Mix, registers, theta, slo.Target)
	for _, backend := range []loadgen.Backend{loadgen.BackendNetsim, loadgen.BackendTCP} {
		ccfg := loadgen.ClusterConfig{
			Backend:      backend,
			Participants: participants,
			Registers:    registers,
		}
		if backend == loadgen.BackendNetsim {
			// Trace the simulated cluster with a keep-if-over-SLO tail
			// sampler: probes past capacity then auto-capture their
			// slowest transactions with phase attribution (E26 machinery
			// on the real search path).
			ccfg.Trace = &trace.SamplerConfig{Threshold: slo.Target, Seed: seed}
		}
		cluster, err := loadgen.NewCluster(ccfg)
		if err != nil {
			return fmt.Errorf("%s cluster: %w", backend, err)
		}
		res, err := cluster.SearchCapacity(ctx, rc)
		if err != nil {
			cluster.Close()
			return fmt.Errorf("%s capacity search: %w", backend, err)
		}
		cr := loadgen.NewClusterReport(cluster.Config(), rc, res)
		out.Clusters = append(out.Clusters, cr)
		for _, p := range res.Points {
			verdict := "FAIL"
			if p.Pass {
				verdict = "pass"
			}
			rep.rowf("  %-7s probe %7.0f/s %s  p50=%8v p99=%8v p999=%8v drop=%d",
				backend, p.Rate, verdict,
				p.P50.Round(10*time.Microsecond), p.P99.Round(10*time.Microsecond),
				p.P999.Round(10*time.Microsecond), p.Dropped)
		}
		rep.rowf("  %-7s capacity %.0f ops/s (%d probes)", backend, res.Capacity, len(res.Points))
		rep.check(fmt.Sprintf("%s cluster sustains a nonzero rate at the SLO", backend),
			res.Capacity > 0 && res.AtCapacity != nil)
		if st := cluster.LastCapture(); st != nil && out.SlowTxns == nil {
			out.SlowTxns = st
			rep.rowf("  %-7s slow-txn capture at %.0f/s: %d txns, attribution %v",
				backend, st.TriggerRateQPS, len(st.Txns), st.AttributionPct)
		}

		// Coordinated-omission demonstration on the simulated cluster:
		// a closed loop at N workers reports service-time latency; an
		// open loop offered the same throughput reports what clients
		// would actually see.
		if backend == loadgen.BackendNetsim {
			co, err := cluster.CompareClosedOpen(ctx, rc, 8)
			if err != nil {
				cluster.Close()
				return fmt.Errorf("closed-vs-open: %w", err)
			}
			out.ClosedVsOpen = loadgen.NewClosedVsOpen(backend, co)
			closedP99 := co.Closed.Latency.Percentile(99)
			openP99 := co.Open.Latency.Percentile(99)
			rep.rowf("  closed loop, 8 workers: %8.0f ops/s p99=%v (service time only)",
				co.ClosedRate, closedP99.Round(10*time.Microsecond))
			rep.rowf("  open loop, same load:   offered %.0f/s p99=%v from intended arrivals (%.2fx)",
				co.Open.Offered, openP99.Round(10*time.Microsecond), out.ClosedVsOpen.COGapP99X)
			rep.check("open-loop p99 >= closed-loop p99 at the same load (coordinated-omission gap)",
				openP99 >= closedP99)
		}
		cluster.Close()
	}

	if err := out.Validate(); err != nil {
		return fmt.Errorf("capacity report failed validation: %w", err)
	}
	rep.check("capacity report validates (both backends, nonzero capacity)", true)

	if capacityJSONPath != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(capacityJSONPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		rep.rowf("  wrote %s", capacityJSONPath)
	}
	return nil
}
