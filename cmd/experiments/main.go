// Command experiments runs the two measurement studies that are not
// tier-1 tests: E25, capacity at SLO under open-loop load, and E26,
// tail-latency attribution of injected slowdowns. The paper's figure
// checks are assertions in `go test ./...`. EXPERIMENTS.md records
// reference runs.
//
// Usage:
//
//	experiments [-run substring] [-list] [-capacityjson file] [-attribjson file]
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
