package dmake

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrBadMakefile is returned for syntactically invalid makefiles.
var ErrBadMakefile = errors.New("dmake: bad makefile")

// ErrCycle is returned when the dependency graph is cyclic.
var ErrCycle = errors.New("dmake: dependency cycle")

// Rule is one makefile rule: a target, its prerequisite files, and the
// recipe that reestablishes the target's consistency.
type Rule struct {
	Target  string
	Prereqs []string
	Recipe  string
}

// Makefile is a parsed dependency description.
type Makefile struct {
	rules map[string]*Rule
	order []string // targets in file order
}

// ParseMakefile parses the subset of make syntax the paper's example
// uses: "target: prereq..." lines, each followed by optional
// tab-indented recipe lines (joined with "; "), plus blank lines and
// '#' comments.
func ParseMakefile(src string) (*Makefile, error) {
	mf := &Makefile{rules: make(map[string]*Rule)}
	var current *Rule
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimRight(raw, " \r")
		switch {
		case strings.TrimSpace(line) == "" || strings.HasPrefix(strings.TrimSpace(line), "#"):
			continue
		case strings.HasPrefix(line, "\t"):
			if current == nil {
				return nil, fmt.Errorf("%w: line %d: recipe before any rule", ErrBadMakefile, lineNo+1)
			}
			cmd := strings.TrimSpace(line)
			if current.Recipe == "" {
				current.Recipe = cmd
			} else {
				current.Recipe += "; " + cmd
			}
		default:
			colon := strings.Index(line, ":")
			if colon < 0 {
				return nil, fmt.Errorf("%w: line %d: expected 'target: prereqs'", ErrBadMakefile, lineNo+1)
			}
			target := strings.TrimSpace(line[:colon])
			if target == "" {
				return nil, fmt.Errorf("%w: line %d: empty target", ErrBadMakefile, lineNo+1)
			}
			if _, dup := mf.rules[target]; dup {
				return nil, fmt.Errorf("%w: line %d: duplicate rule for %q", ErrBadMakefile, lineNo+1, target)
			}
			rule := &Rule{Target: target, Prereqs: strings.Fields(line[colon+1:])}
			mf.rules[target] = rule
			mf.order = append(mf.order, target)
			current = rule
		}
	}
	if len(mf.order) == 0 {
		return nil, fmt.Errorf("%w: no rules", ErrBadMakefile)
	}
	if err := mf.checkAcyclic(); err != nil {
		return nil, err
	}
	return mf, nil
}

func (mf *Makefile) checkAcyclic() error {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(mf.rules))
	var visit func(string, []string) error
	visit = func(t string, path []string) error {
		switch state[t] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("%w: %s", ErrCycle, strings.Join(append(path, t), " -> "))
		}
		state[t] = visiting
		if r := mf.rules[t]; r != nil {
			for _, p := range r.Prereqs {
				if err := visit(p, append(path, t)); err != nil {
					return err
				}
			}
		}
		state[t] = done
		return nil
	}
	for _, t := range mf.order {
		if err := visit(t, nil); err != nil {
			return err
		}
	}
	return nil
}

// Rule returns the rule for a target, or nil for source files.
func (mf *Makefile) Rule(target string) *Rule { return mf.rules[target] }

// Targets returns every target with a rule, sorted.
func (mf *Makefile) Targets() []string {
	out := make([]string, 0, len(mf.rules))
	for t := range mf.rules {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// PaperMakefile is the makefile of paper §4 (iv), used by tests and
// examples.
const PaperMakefile = `Test: Test0.o Test1.o
	cc -o Test Test0.o Test1.o
Test0.o: Test0.h Test1.h Test0.c
	cc -c Test0.c
Test1.o: Test1.h Test1.c
	cc -c Test1.c
`
