package loadgen

import (
	"context"
	"strings"
	"testing"
	"time"

	"mca/internal/trace"
	"mca/internal/workload"
)

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("read=70, write=20,transfer=10")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 || mix[0].Name != "read" || mix[0].Weight != 70 ||
		mix[2].Name != "transfer" || mix[2].Weight != 10 {
		t.Fatalf("mix = %+v", mix)
	}
	if s := MixString(mix); s != "read=70,write=20,transfer=10" {
		t.Fatalf("MixString = %q", s)
	}
	for _, bad := range []string{"", "scan=1", "read", "read=-1", "read=x", "read=0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) accepted", bad)
		}
	}
}

// newTestCluster builds a small netsim cluster for real-time runs.
func newTestCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{Backend: BackendNetsim, Participants: 2, Registers: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestClusterOps(t *testing.T) {
	c := newTestCluster(t)
	ctx := context.Background()
	for key := uint64(0); key < 8; key++ {
		if err := c.Write(ctx, key); err != nil {
			t.Fatalf("write key %d: %v", key, err)
		}
		if err := c.Read(ctx, key); err != nil {
			t.Fatalf("read key %d: %v", key, err)
		}
		if err := c.Transfer(ctx, key); err != nil {
			t.Fatalf("transfer key %d: %v", key, err)
		}
	}
}

func TestClusterOpenLoopRun(t *testing.T) {
	c := newTestCluster(t)
	mix, err := ParseMix("read=50,write=40,transfer=10")
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunOpen(context.Background(), RunConfig{
		Mix:    mix,
		Seed:   1,
		Warmup: 50 * time.Millisecond,
		Window: 250 * time.Millisecond,
	}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no measured ops")
	}
	if res.Errors > res.Ops/10 {
		t.Fatalf("too many errors: %d/%d: %v", res.Errors, res.Ops, res.ErrKinds)
	}
	var perClass int
	for _, l := range res.PerClass {
		perClass += l.Count()
	}
	if perClass != res.Ops {
		t.Fatalf("per-class sum %d != ops %d", perClass, res.Ops)
	}
}

func TestSearchCapacityOnCluster(t *testing.T) {
	c := newTestCluster(t)
	rc := RunConfig{
		Mix:         []MixEntry{{Name: "write", Weight: 1}},
		Seed:        2,
		Warmup:      25 * time.Millisecond,
		Window:      150 * time.Millisecond,
		SLO:         workload.SLO{Quantile: 0.99, Target: 100 * time.Millisecond},
		Start:       50,
		Max:         800,
		BisectIters: 2,
	}
	res, err := c.SearchCapacity(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Capacity <= 0 {
		t.Fatalf("netsim cluster reports no capacity: %+v", res.Points)
	}
	rep := NewClusterReport(c.Config(), rc, res)
	if rep.CapacityQPS != res.Capacity || len(rep.Trajectory) != len(res.Points) {
		t.Fatalf("report mismatch: %+v", rep)
	}
}

// TestTracedClusterCapture runs the slow-transaction pipeline end to
// end: a traced cluster with an injected WAL force delay keeps every
// transaction (all beat the threshold), SlowTraces returns them slowest
// root first with each one's spans from every node, and the breakdown
// derived from those spans names the injected fault dominant.
func TestTracedClusterCapture(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Backend:      BackendNetsim,
		Participants: 2,
		Registers:    8,
		Trace:        &trace.SamplerConfig{Threshold: 5 * time.Millisecond, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.SetForceDelay(10 * time.Millisecond)
	ctx := context.Background()
	for key := uint64(0); key < 6; key++ {
		if err := c.Write(ctx, key); err != nil {
			t.Fatalf("write key %d: %v", key, err)
		}
	}
	traces := c.SlowTraces(4)
	if len(traces) != 4 {
		t.Fatalf("SlowTraces(4) returned %d traces, want 4 (every write pays >=10ms of forces)", len(traces))
	}
	var prev time.Duration
	for i, spans := range traces {
		root, ok := trace.Root(spans)
		if !ok {
			t.Fatalf("trace %d has no root span", i)
		}
		if d := root.End.Sub(root.Begin); i > 0 && d > prev {
			t.Fatalf("traces not sorted slowest-first at %d", i)
		} else {
			prev = d
		}
		if a := trace.Attribute(spans); a.Force < (10 * time.Millisecond).Nanoseconds() {
			t.Fatalf("trace %d charges %v to forces, want the injected 10ms at least (spans %+v)", i, time.Duration(a.Force), spans)
		}
	}
	st := NewSlowTxnsReport(123, traces)
	if st == nil || st.TriggerRateQPS != 123 || len(st.Txns) != 4 {
		t.Fatalf("NewSlowTxnsReport = %+v", st)
	}
	for i, txn := range st.Txns {
		if txn.Dominant != "force" {
			t.Fatalf("txn %d dominant = %q (breakdown %v), want force", i, txn.Dominant, txn.BreakdownMS)
		}
	}
	if st.AttributionPct["force"] < 50 {
		t.Fatalf("force share %v%% with 10ms injected forces, want majority (%v)",
			st.AttributionPct["force"], st.AttributionPct)
	}
	// An untraced cluster exposes none of this.
	plain := newTestCluster(t)
	if plain.SlowTraces(4) != nil || plain.LastCapture() != nil {
		t.Fatal("untraced cluster returned sampled roots")
	}
}

func TestSearchCapacityHonoursContext(t *testing.T) {
	c := newTestCluster(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.SearchCapacity(ctx, RunConfig{Window: 100 * time.Millisecond})
	if err == nil {
		t.Fatal("cancelled context not propagated")
	}
}

func TestReportValidate(t *testing.T) {
	good := func() *Report {
		pt := Point{RateQPS: 100, Pass: true, AchievedQPS: 99, Ops: 50, P50MS: 1, P99MS: 2, P999MS: 3, MaxMS: 4}
		return &Report{
			Experiment: "test",
			SLO:        SLOReport{Quantile: 0.99, TargetMS: 50},
			Clusters: []ClusterReport{{
				Backend:     "netsim",
				CapacityQPS: 100,
				AtCapacity:  &pt,
				Trajectory:  []Point{pt},
			}},
			SlowTxns: &SlowTxnsReport{
				TriggerRateQPS: 200,
				Txns: []SlowTxn{
					{TraceID: "0000000000000001", DurationMS: 3, Outcome: "commit", Dominant: "force",
						BreakdownMS: map[string]float64{"force": 2.5}},
					{TraceID: "0000000000000002", DurationMS: 2, Outcome: "commit", Dominant: "net",
						BreakdownMS: map[string]float64{"net": 1.5}},
				},
				AttributionPct: map[string]float64{"lock": 0, "force": 70, "net": 25, "queue": 3, "compute": 2},
			},
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	mutations := map[string]func(*Report){
		"no clusters":        func(r *Report) { r.Clusters = nil },
		"zero capacity":      func(r *Report) { r.Clusters[0].CapacityQPS = 0 },
		"no at_capacity":     func(r *Report) { r.Clusters[0].AtCapacity = nil },
		"empty trajectory":   func(r *Report) { r.Clusters[0].Trajectory = nil },
		"bad backend":        func(r *Report) { r.Clusters[0].Backend = "carrier-pigeon" },
		"bad slo":            func(r *Report) { r.SLO.TargetMS = 0 },
		"non-monotone tails": func(r *Report) { r.Clusters[0].Trajectory[0].P99MS = 99 },
		"slo violated at capacity": func(r *Report) {
			p := *r.Clusters[0].AtCapacity
			p.P99MS = 51
			p.P999MS = 52
			r.Clusters[0].AtCapacity = &p
		},
		"slow_txns no trigger rate": func(r *Report) { r.SlowTxns.TriggerRateQPS = 0 },
		"slow_txns empty":           func(r *Report) { r.SlowTxns.Txns = nil },
		"slow_txns no dominant":     func(r *Report) { r.SlowTxns.Txns[0].Dominant = "" },
		"slow_txns unsorted": func(r *Report) {
			r.SlowTxns.Txns[0], r.SlowTxns.Txns[1] = r.SlowTxns.Txns[1], r.SlowTxns.Txns[0]
		},
		"slow_txns pct out of range": func(r *Report) { r.SlowTxns.AttributionPct["force"] = 300 },
		"slow_txns pct sum off":      func(r *Report) { r.SlowTxns.AttributionPct["force"] = 10 },
	}
	for name, mutate := range mutations {
		r := good()
		mutate(r)
		if err := r.Validate(); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	if m := MachineString(); !strings.Contains(m, "cores") {
		t.Fatalf("MachineString = %q", m)
	}
}
