// Command mcalint runs the repository's custom static analyses over the
// given packages (default ./...): the invariants of the colour/lock/2PC
// core that the compiler cannot see.
//
//	go run ./cmd/mcalint ./...
//
// Analyzers (suppress a finding with `//mcalint:ignore <name> <reason>`
// on the flagged line or the line above — the reason is required, a bare
// directive is itself reported):
//
//	lockheld     mutex held across a blocking operation
//	ctxprop      bare context.Background/TODO in library code
//	colourzero   zero-colour lock requests, hand-minted colours
//	goleak       goroutine launches with no cancellation or join
//	metricsname  metric registrations without the mca_<pkg>_ prefix
//	detclock     ambient time/math-rand in deterministic-critical packages
//	forceorder   WAL completions, 2PC votes and committed decision replies not dominated by a force
//	errdrop      discarded errors from internal/store and internal/rpc
//
// Exit status: 0 clean, 1 findings, 2 load or internal failure. With
// findings, a per-analyzer count summary prints to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"mca/internal/analysis"
	"mca/internal/analysis/colourzero"
	"mca/internal/analysis/ctxprop"
	"mca/internal/analysis/detclock"
	"mca/internal/analysis/errdrop"
	"mca/internal/analysis/forceorder"
	"mca/internal/analysis/goleak"
	"mca/internal/analysis/lockheld"
	"mca/internal/analysis/metricsname"
)

var analyzers = []*analysis.Analyzer{
	colourzero.Analyzer,
	ctxprop.Analyzer,
	detclock.Analyzer,
	errdrop.Analyzer,
	forceorder.Analyzer,
	goleak.Analyzer,
	lockheld.Analyzer,
	metricsname.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mcalint [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	pkgs, err := analysis.Load(".", flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcalint:", err)
		os.Exit(2)
	}
	findings := 0
	perAnalyzer := make(map[string]int)
	for _, pkg := range pkgs {
		if !pkg.Target {
			continue
		}
		diags, err := pkg.Run(analyzers...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcalint:", err)
			os.Exit(2)
		}
		for _, d := range diags {
			fmt.Printf("%s: %s (%s)\n", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer.Name)
			perAnalyzer[d.Analyzer.Name]++
			findings++
		}
	}
	if findings > 0 {
		names := make([]string, 0, len(perAnalyzer))
		for name := range perAnalyzer {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "mcalint: %d finding(s):", findings)
		for _, name := range names {
			fmt.Fprintf(os.Stderr, " %s=%d", name, perAnalyzer[name])
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(1)
	}
}
