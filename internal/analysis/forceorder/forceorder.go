// Package forceorder checks the write-ahead discipline of the commit
// path: nothing may acknowledge durability before the matching force.
// The rules are the force-ordering invariants of the 2PC/WAL design
// (DESIGN.md), each anchored at the syntactic point where an
// acknowledgement escapes, and each checked with a must-dominate walk
// (internal/analysis.MustReach): the acknowledgement is flagged when
// ANY path from function entry reaches it without passing a force.
//
// Rule a (store): completing a WAL batch — close of a done-named
// channel — must be dominated by a force-family call (force, Force,
// Sync, appendSync, fsync, syncDir). Waking the appenders before the
// fsync would let a participant vote YES on an intention, or ack an
// object install, that a crash can still lose.
//
// Rule b (dist): assigning a 2PC vote — a store into the OK field of a
// vote-named struct — must be dominated by a stable-log operation
// (Record, Force, Lookup, Commit, Sync declared in internal/store or
// internal/action). A YES vote is a durability promise; deriving it
// before the log round-trip re-introduces the unforced-vote bug class.
// Assigning the literal false is exempt: a NO vote promises nothing
// (presumed abort). The committed outcome — any use of the committedBody
// reply, which answers a decision query — is held to the same rule: a
// committed answer promises a durable decision record, so it must follow
// the force of that record (Record, or the CommitWith that wraps it) or
// the Lookup that found it.
//
// Rule c (store): a function calling os.Rename must also call syncDir.
// Renaming installs the file in the directory, but only a directory
// fsync makes the installation itself durable (the dir-fsync crash bug
// class). This rule is a whole-function may-check, not a dominance
// check: error paths may legitimately return between the two calls.
//
// Helper indirection is handled by function summaries: a local function
// that always forces (analysis.AlwaysSatisfies) counts as a force at
// its call sites.
package forceorder

import (
	"go/ast"
	"go/types"
	"strings"

	"mca/internal/analysis"
)

// Analyzer is the forceorder analysis.
var Analyzer = &analysis.Analyzer{
	Name: "forceorder",
	Doc:  "require WAL completions, 2PC votes and committed outcomes to be dominated by the matching force",
	Run:  run,
}

// forceFamily (rule a) are the callee names that make bytes durable.
var forceFamily = map[string]bool{
	"force":      true,
	"Force":      true,
	"Sync":       true,
	"appendSync": true,
	"fsync":      true,
	"syncDir":    true,
}

// stableFamily (rule b) are the stable-log operations a vote may be
// derived from, when declared in the storage or action layer.
var stableFamily = map[string]bool{
	"Record":     true,
	"Force":      true,
	"Lookup":     true,
	"Commit":     true,
	"CommitWith": true,
	"Sync":       true,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	switch {
	case analysis.PathMatches(path, "internal/store"):
		runStore(pass)
	case analysis.PathMatches(path, "internal/dist"):
		runDist(pass)
	}
	return nil
}

// --- rule a + c: store ---

func runStore(pass *analysis.Pass) {
	satisfies := withSummaries(pass, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := analysis.CalleeFunc(pass.TypesInfo, call)
		if !ok {
			return false
		}
		return forceFamily[fn.Name()]
	})
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDoneCloses(pass, fd, satisfies)
			checkRenameSync(pass, fd)
		}
	}
}

// checkDoneCloses flags close(…done) not dominated by a force (rule a).
func checkDoneCloses(pass *analysis.Pass, fd *ast.FuncDecl, satisfies func(ast.Node) bool) {
	m := &analysis.MustReach{
		Satisfies: satisfies,
		Visit: func(n ast.Node, established bool) {
			if established {
				return
			}
			arg, ok := doneCloseArg(n)
			if !ok {
				return
			}
			pass.Reportf(n.Pos(), "close(%s) reachable without a dominating force; appenders would observe the batch complete before its records are durable", arg)
		},
	}
	m.Run(fd.Body)
}

// doneCloseArg matches close(x) where x is a done-named channel field
// or variable, returning its spelling.
func doneCloseArg(n ast.Node) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return "", false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" {
		return "", false
	}
	key, ok := analysis.ExprKey(call.Args[0])
	if !ok {
		return "", false
	}
	if key == "done" || strings.HasSuffix(key, ".done") || strings.HasSuffix(key, "Done") {
		return key, true
	}
	return "", false
}

// checkRenameSync flags os.Rename in functions with no syncDir (rule c).
func checkRenameSync(pass *analysis.Pass, fd *ast.FuncDecl) {
	var renames []*ast.CallExpr
	synced := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if analysis.CallTo(pass.TypesInfo, call, "os", "Rename") {
			renames = append(renames, call)
		}
		if fn, ok := analysis.CalleeFunc(pass.TypesInfo, call); ok && fn.Name() == "syncDir" {
			synced = true
		}
		return true
	})
	if synced {
		return
	}
	for _, call := range renames {
		pass.Reportf(call.Pos(), "os.Rename with no directory fsync (syncDir) in %s; the installed name may not survive a crash", fd.Name.Name)
	}
}

// --- rule b: dist ---

func runDist(pass *analysis.Pass) {
	satisfies := withSummaries(pass, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := analysis.CalleeFunc(pass.TypesInfo, call)
		if !ok || !stableFamily[fn.Name()] {
			return false
		}
		p := analysis.FuncPkgPath(fn)
		return analysis.PathMatches(p, "internal/store") || analysis.PathMatches(p, "internal/action")
	})
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			m := &analysis.MustReach{
				Satisfies: satisfies,
				Visit: func(n ast.Node, established bool) {
					if established {
						return
					}
					if as, ok := voteOKAssign(pass, n); ok {
						pass.Reportf(as.Pos(), "vote derived with no dominating stable-log operation; a YES here could acknowledge an intention a crash can still lose")
					}
					if id, ok := n.(*ast.Ident); ok && id.Name == "committedBody" {
						pass.Reportf(id.Pos(), "committed answered with no dominating stable-log operation; the outcome could be one a crash can still lose")
					}
				},
			}
			m.Run(fd.Body)
		}
	}
}

// voteOKAssign matches an assignment into the OK field of a vote-named
// struct whose right-hand side is not the literal false (an explicit NO
// vote needs no durability).
func voteOKAssign(pass *analysis.Pass, n ast.Node) (*ast.AssignStmt, bool) {
	as, ok := n.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, false
	}
	sel, ok := ast.Unparen(as.Lhs[0]).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "OK" {
		return nil, false
	}
	t := pass.TypeOf(sel.X)
	named, ok := analysis.Deref(t).(*types.Named)
	if !ok || !strings.Contains(strings.ToLower(named.Obj().Name()), "vote") {
		return nil, false
	}
	if id, ok := ast.Unparen(as.Rhs[0]).(*ast.Ident); ok && id.Name == "false" {
		return nil, false
	}
	return as, true
}

// withSummaries extends a direct satisfier with one-package function
// summaries: a call to a local function whose body always satisfies
// counts too. Iterated to a fixpoint so helpers may nest.
func withSummaries(pass *analysis.Pass, direct func(ast.Node) bool) func(ast.Node) bool {
	always := make(map[*types.Func]bool)
	var satisfies func(ast.Node) bool
	satisfies = func(n ast.Node) bool {
		if direct(n) {
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := analysis.CalleeFunc(pass.TypesInfo, call)
		return ok && always[fn]
	}
	for changed := true; changed; {
		changed = false
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok || always[obj] {
					continue
				}
				if analysis.AlwaysSatisfies(fd.Body, satisfies) {
					always[obj] = true
					changed = true
				}
			}
		}
	}
	return satisfies
}
