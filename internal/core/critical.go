package core

import (
	"sort"

	"hpfperf/internal/hir"
)

// CriticalVariable describes one critical variable of the application:
// a variable whose value affects the flow of execution (§4.2 — loop
// limits, strides, scalar branch conditions, shift amounts).
type CriticalVariable struct {
	// Name of the scalar variable.
	Name string
	// Lines where it controls execution flow.
	Lines []int
	// Uses counts controlling references.
	Uses int
}

// CriticalVariables identifies the critical variables of a compiled
// program: the abstraction parse walks the node program and collects
// every scalar controlling loop bounds, branch conditions and shift
// amounts. (Whether each can be resolved by definition tracing is decided
// during interpretation; unresolved ones must be supplied through
// Options.Values or Options.TripCounts.)
func CriticalVariables(p *hir.Program) []CriticalVariable {
	byName := make(map[string]*CriticalVariable)
	record := func(e hir.Expr, line int) {
		for _, name := range hir.ScalarRefs(e) {
			if name == "" || name[0] == '$' {
				continue // compiler temporaries are internal
			}
			cv := byName[name]
			if cv == nil {
				cv = &CriticalVariable{Name: name}
				byName[name] = cv
			}
			cv.Uses++
			if len(cv.Lines) == 0 || cv.Lines[len(cv.Lines)-1] != line {
				cv.Lines = append(cv.Lines, line)
			}
		}
	}
	var walk func(ss []hir.Stmt)
	walk = func(ss []hir.Stmt) {
		for _, s := range ss {
			switch x := s.(type) {
			case *hir.Loop:
				record(x.Lo, x.SrcLine)
				record(x.Hi, x.SrcLine)
				record(x.Step, x.SrcLine)
				walk(x.Body)
			case *hir.While:
				record(x.Cond, x.SrcLine)
				walk(x.Body)
			case *hir.If:
				// Only replicated scalar conditions are critical; masked
				// element conditionals are data parallel, not control flow.
				if !hir.Elemental(x.Cond) {
					record(x.Cond, x.SrcLine)
				}
				walk(x.Then)
				walk(x.Else)
			case *hir.CShift:
				record(x.Shift, x.SrcLine)
			case *hir.EOShift:
				record(x.Shift, x.SrcLine)
			}
		}
	}
	walk(p.Body)
	out := make([]CriticalVariable, 0, len(byName))
	for _, cv := range byName {
		out = append(out, *cv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
