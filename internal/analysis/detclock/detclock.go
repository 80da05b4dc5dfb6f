// Package detclock keeps ambient time and global randomness out of the
// deterministic-critical packages. Those packages (the runtime layers a
// simulated schedule must be able to replay: node, lock, dist, rpc,
// netsim, store, flightrec, workload, loadgen, action, dmake, trace,
// tcpnet) take
// an internal/clock.Clock and a seeded clock.Rand instead, so a virtual
// clock can drive every timer and a fixed seed reproduces every random
// draw. A direct call to time.Now, time.Sleep, time.After, timer and
// ticker constructors, or anything in math/rand re-introduces the
// hidden global the refactor removed — this analyzer flags each one.
//
// Out of scope: time.Duration arithmetic and constants (pure values,
// no ambient state), context deadlines (context.WithTimeout reads the
// runtime clock internally, but the deadline is part of the call
// contract, not a schedule source), tests (not loaded), cmd/ and
// examples/ (entry points wire the real clock), and internal/clock
// itself — the one place the forwarding is the point.
package detclock

import (
	"go/ast"

	"mca/internal/analysis"
)

// Analyzer is the detclock analysis.
var Analyzer = &analysis.Analyzer{
	Name: "detclock",
	Doc:  "forbid ambient time (time.Now/Sleep/timers) and math/rand in deterministic-critical packages",
	Run:  run,
}

// criticalPkgs are the deterministic-critical package paths, matched by
// suffix so fixture trees mirror them.
var criticalPkgs = []string{
	"internal/action",
	"internal/dist",
	"internal/dmake",
	"internal/flightrec",
	"internal/loadgen",
	"internal/lock",
	"internal/netsim",
	"internal/node",
	"internal/rpc",
	"internal/store",
	"internal/tcpnet",
	"internal/trace",
	"internal/wire",
	"internal/workload",
}

// ambientTime lists the package time functions that read or schedule
// against the process clock. Everything else in package time (Duration,
// Unix, Date, parsing) is pure and stays allowed.
var ambientTime = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
	"Tick":      true,
}

// Critical reports whether the package at path is deterministic-critical.
func Critical(path string) bool {
	for _, p := range criticalPkgs {
		if analysis.PathMatches(path, p) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !Critical(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := analysis.CalleeFunc(pass.TypesInfo, call)
			if !ok {
				return true
			}
			switch path := analysis.FuncPkgPath(fn); path {
			case "time":
				// Methods (t.Add, end.After(start), d.Seconds) are pure
				// value arithmetic; only the package-level functions
				// read the process clock.
				if analysis.RecvType(fn) == nil && ambientTime[fn.Name()] {
					pass.Reportf(call.Pos(), "time.%s in deterministic-critical package %s; use the threaded clock.Clock", fn.Name(), pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				pass.Reportf(call.Pos(), "%s.%s in deterministic-critical package %s; use a seeded clock.Rand", path, fn.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
