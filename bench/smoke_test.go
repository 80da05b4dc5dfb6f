package main

import (
	"io"
	"testing"
	"time"

	"mca/internal/flightrec"
)

// TestSmoke drives the whole harness the way -smoke does: every
// workload, both passes, the probes, the correctness gates and the
// layer-separation checks, with at least one crash cycle.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads for a second each")
	}
	defer flightrec.SetAutoDump(flightrec.SetAutoDump(io.Discard))
	began := time.Now()
	rep, err := runAll(io.Discard, 1, 1, true, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(began); d > 20*time.Second {
		t.Errorf("smoke took %v, want under 20 s", d)
	}
	if len(rep.Passes) != 2*len(workloads) {
		t.Fatalf("%d passes, want %d", len(rep.Passes), 2*len(workloads))
	}
	for _, res := range rep.Passes {
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %s", res.Workload, res.Traced, res.Correct, res.Attempted, res.Failed, res.Violation)
		}
		if res.Workload == wlRecovery && res.Cycles < 1 {
			t.Errorf("%s traced=%v: no crash cycle completed", res.Workload, res.Traced)
		}
		if !res.Traced {
			// The contract forbids an end-to-end metric that reads 0.
			for _, m := range endToEndMetrics {
				if res.Metrics[m.Name] <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", res.Workload, m.Name, res.Metrics[m.Name])
				}
			}
		}
	}
}
