// Command experiments runs the full reproduction suite: one experiment
// per paper figure (behavioural outcome matrices) plus the performance
// studies backing the paper's qualitative claims. EXPERIMENTS.md records
// a reference run.
//
// Usage:
//
//	experiments [-run substring] [-list]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// experiment is one named, self-checking reproduction unit.
type experiment struct {
	id    string
	title string
	run   func(*report) error
}

// report collects an experiment's table rows and pass/fail checks.
type report struct {
	rows   []string
	failed []string
}

func (r *report) rowf(format string, args ...any) {
	r.rows = append(r.rows, fmt.Sprintf(format, args...))
}

// check records a named boolean expectation.
func (r *report) check(name string, ok bool) {
	status := "PASS"
	if !ok {
		status = "FAIL"
		r.failed = append(r.failed, name)
	}
	r.rows = append(r.rows, fmt.Sprintf("  [%s] %s", status, name))
}

func main() {
	var (
		runFilter = flag.String("run", "", "run only experiments whose id or title contains this substring")
		list      = flag.Bool("list", false, "list experiments and exit")
		capJSON   = flag.String("capacityjson", "", "write the E25 capacity-at-SLO measurement to this JSON file")
		attJSON   = flag.String("attribjson", "", "write the E26 tail-latency attribution measurement to this JSON file")
	)
	flag.Parse()
	capacityJSONPath = *capJSON
	attribJSONPath = *attJSON

	all := []experiment{
		{"E1", "Fig 1: concurrent nested atomic actions", expFig1},
		{"E2", "Figs 2/3: nested vs serializing outcomes", expFig2Fig3},
		{"E3", "Figs 4/5: glued vs serializing vs unprotected", expFig4Fig5},
		{"E4", "Fig 6: concurrent glued chains", expFig6},
		{"E5", "Fig 7: sync/async top-level independent actions", expFig7},
		{"E6", "Fig 8: distributed make", expFig8},
		{"E7", "Fig 9: meeting scheduler lock narrowing", expFig9},
		{"E8", "Fig 10: two-coloured action basics", expFig10},
		{"E9", "Fig 11: serializing via colours equivalence", expFig11},
		{"E10", "Fig 12: glued via colours", expFig12},
		{"E11", "Fig 13: independent via colours / deadlock contrast", expFig13},
		{"E12", "Figs 14/15: n-level independent actions", expFig15},
		{"E13", "Single colour degenerates to conventional actions", expSingleColour},
		{"E14", "Two-phase locking serializability invariant", expSerializability},
		{"E15", "Two-phase commit: latency and crash matrix", expTwoPhaseCommit},
		{"E16", "Examples i-iii: board, name server, billing", expIndependentApps},
		{"E17", "Contention sweep: throughput and abort rate", expContention},
		{"E19", "Distributed serializing actions (the paper's next step)", expRemoteSerializing},
		{"E25", "Capacity at SLO: open-loop load, coordinated-omission-free latency", expCapacity},
		{"E26", "Tail-latency attribution: span attribution localizes injected slowdowns", expAttrib},
	}

	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return
	}

	failures := 0
	start := time.Now()
	for _, e := range all {
		if *runFilter != "" &&
			!strings.Contains(e.id, *runFilter) &&
			!strings.Contains(strings.ToLower(e.title), strings.ToLower(*runFilter)) {
			continue
		}
		fmt.Printf("\n=== %s — %s ===\n", e.id, e.title)
		rep := &report{}
		expStart := time.Now()
		if err := e.run(rep); err != nil {
			rep.check(fmt.Sprintf("experiment completed (%v)", err), false)
		}
		for _, row := range rep.rows {
			fmt.Println(row)
		}
		fmt.Printf("  (%v)\n", time.Since(expStart).Round(time.Millisecond))
		failures += len(rep.failed)
	}
	fmt.Printf("\ntotal: %v", time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		fmt.Printf(", %d FAILED checks\n", failures)
		os.Exit(1)
	}
	fmt.Println(", all checks passed")
}
