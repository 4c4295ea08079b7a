package analysis

import (
	"fmt"
	"sort"
	"strings"

	"hpfperf/internal/ast"
	"hpfperf/internal/dist"
	"hpfperf/internal/sem"
)

// directivePass checks HPF mapping-directive hygiene: declared
// arrangements and templates that map nothing, ALIGNs whose target never
// acquires a distribution (leaving the array replicated despite the
// directive), and BLOCK distributions whose extents split unevenly over
// the processor grid (load imbalance the predicted profile will show as
// idle time).
//
// Codes: HPF0301 unreferenced TEMPLATE, HPF0302 ALIGN to an
// undistributed template, HPF0303 unused PROCESSORS, HPF0304 ALIGN left
// the array replicated, HPF0305 uneven BLOCK distribution.
type directivePass struct{}

func (directivePass) Name() string { return "directive-hygiene" }

func (directivePass) Run(u *Unit) []Diagnostic {
	info := u.Prog.Info
	var out []Diagnostic

	alignsTo := make(map[string][]*ast.AlignDir) // template -> ALIGNs targeting it
	distLine := make(map[string]int)             // target -> DISTRIBUTE line
	var procs []*ast.ProcessorsDir               // declared arrangements
	var templates []*ast.TemplateDir             // declared templates
	var aligns []*ast.AlignDir                   // all ALIGNs
	usedProcs := make(map[string]bool)           // arrangements named in ONTO
	distributed := make(map[string]bool)         // targets of DISTRIBUTE
	anonymousDistribute := false                 // DISTRIBUTE without ONTO
	for _, d := range info.Prog.Directives {
		switch x := d.(type) {
		case *ast.ProcessorsDir:
			procs = append(procs, x)
		case *ast.TemplateDir:
			templates = append(templates, x)
		case *ast.AlignDir:
			aligns = append(aligns, x)
			alignsTo[x.Target] = append(alignsTo[x.Target], x)
		case *ast.DistributeDir:
			distributed[x.Target] = true
			distLine[x.Target] = x.DPos.Line
			if x.Onto != "" {
				usedProcs[x.Onto] = true
			} else {
				anonymousDistribute = true
			}
		}
	}

	for _, td := range templates {
		if len(alignsTo[td.Name]) == 0 && !distributed[td.Name] {
			out = append(out, Diagnostic{
				Code:     "HPF0301",
				Severity: SevWarning,
				Line:     td.DPos.Line,
				Message:  fmt.Sprintf("TEMPLATE %s is never aligned to or distributed: the directive has no effect", td.Name),
				Hint:     "remove the directive, or ALIGN arrays with it and DISTRIBUTE it",
			})
			continue
		}
		if dims, ok := info.Templates[td.Name]; ok && len(alignsTo[td.Name]) > 0 {
			allCollapsed := true
			for _, dd := range dims {
				if dd.Kind != dist.Collapsed && dd.NProc > 1 {
					allCollapsed = false
					break
				}
			}
			if allCollapsed {
				out = append(out, Diagnostic{
					Code:     "HPF0302",
					Severity: SevWarning,
					Line:     td.DPos.Line,
					Message:  fmt.Sprintf("TEMPLATE %s is an ALIGN target but no dimension is distributed over processors: aligned arrays stay replicated", td.Name),
					Hint:     fmt.Sprintf("add !HPF$ DISTRIBUTE %s(BLOCK) ONTO a processor arrangement", td.Name),
				})
			}
		}
	}

	for _, pd := range procs {
		if !usedProcs[pd.Name] && !anonymousDistribute {
			out = append(out, Diagnostic{
				Code:     "HPF0303",
				Severity: SevWarning,
				Line:     pd.DPos.Line,
				Message:  fmt.Sprintf("PROCESSORS %s is never used by a DISTRIBUTE ... ONTO: the arrangement maps nothing", pd.Name),
				Hint:     "remove the directive or distribute a template/array onto it",
			})
		}
	}

	for _, ad := range aligns {
		sym := info.Sym(ad.Array)
		if sym == nil || sym.Map == nil {
			continue
		}
		if sym.Map.Replicated {
			out = append(out, Diagnostic{
				Code:     "HPF0304",
				Severity: SevWarning,
				Line:     ad.DPos.Line,
				Message:  fmt.Sprintf("ALIGN left %s fully replicated: its align target %s has no distributed dimension", ad.Array, ad.Target),
				Hint:     fmt.Sprintf("DISTRIBUTE %s so the alignment partitions %s", ad.Target, ad.Array),
			})
		}
	}

	// Uneven BLOCK splits: report once per mapped array, at the line of
	// the directive that governs its mapping.
	for _, name := range sortedSymbols(info) {
		sym := info.Sym(name)
		if sym == nil || sym.Map == nil || sym.Map.Replicated || isCompilerTemp(name) {
			continue
		}
		for di, dd := range sym.Map.Dims {
			if dd.Kind != dist.Block || dd.NProc <= 1 {
				continue
			}
			if dd.Extent()%dd.NProc == 0 {
				continue
			}
			line := distLine[name]
			if line == 0 {
				for _, ad := range aligns {
					if ad.Array == name {
						line = ad.DPos.Line
						break
					}
				}
			}
			out = append(out, Diagnostic{
				Code:     "HPF0305",
				Severity: SevInfo,
				Line:     line,
				Message: fmt.Sprintf("BLOCK distribution of %s dimension %d is uneven: %d elements over %d processors (last block holds %d)",
					name, di+1, dd.Extent(), dd.NProc, dd.Extent()-(dd.NProc-1)*dd.BlockSize()),
			})
		}
	}
	return out
}

// sortedSymbols returns the user-declared array names in deterministic
// order.
func sortedSymbols(info *sem.Info) []string {
	var names []string
	for n, s := range info.Symbols {
		if s.Kind == sem.SymArray {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// isCompilerTemp reports a compiler-introduced name ($A1, $I2, ...).
func isCompilerTemp(name string) bool { return strings.HasPrefix(name, "$") }
