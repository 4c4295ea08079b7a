package analysis

import (
	"fmt"
	"strings"
)

// Report is the renderable result of one analysis run: the diagnostics
// plus enough program identity to label them. Its JSON form is the
// schema served by hpfserve's /v1/analyze and printed by hpflint -json,
// pinned by golden tests.
type Report struct {
	File        string       `json:"file,omitempty"`
	Program     string       `json:"program"`
	Procs       int          `json:"procs"`
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Price is the static cost pre-estimate (see Price); present on every
	// report produced by NewReport.
	Price *PriceReport `json:"price,omitempty"`
}

// NewReport runs every pass over an analysis unit, prices it, and labels
// the result with an optional file name. Diagnostics is always non-nil
// so the JSON schema stays `[]` rather than `null` for clean programs.
// The unit's definition trace is shared by the passes and the pricer,
// and neither modifies it, so a unit another consumer holds (hpfserve's
// compile cache shares one with admission and prediction) can be
// reported without tracing the program again.
func NewReport(file string, u *Unit) *Report {
	prog := u.Prog
	ds := AnalyzeUnit(u)
	if ds == nil {
		ds = []Diagnostic{}
	}
	procs := 0
	if prog.Info != nil && prog.Info.Grid != nil {
		procs = prog.Info.Grid.Size()
	}
	return &Report{File: file, Program: prog.Name, Procs: procs, Diagnostics: ds, Price: Price(u)}
}

// Counts tallies the diagnostics by severity.
func (r *Report) Counts() (errors, warnings, infos int) {
	for _, d := range r.Diagnostics {
		switch d.Severity {
		case SevError:
			errors++
		case SevWarning:
			warnings++
		default:
			infos++
		}
	}
	return
}

// Max returns the highest severity present, and false for an empty report.
func (r *Report) Max() (Severity, bool) {
	if len(r.Diagnostics) == 0 {
		return 0, false
	}
	max := SevInfo
	for _, d := range r.Diagnostics {
		if d.Severity > max {
			max = d.Severity
		}
	}
	return max, true
}

// Text renders the report in the conventional file:line compiler-output
// format, one diagnostic per line (plus indented hints), ending with a
// one-line summary.
func (r *Report) Text() string {
	var b strings.Builder
	file := r.File
	if file == "" {
		file = "<source>"
	}
	for _, d := range r.Diagnostics {
		fmt.Fprintf(&b, "%s:%d: %s: %s [%s]\n", file, d.Line, d.Severity, d.Message, d.Code)
		if d.Hint != "" {
			fmt.Fprintf(&b, "    hint: %s\n", d.Hint)
		}
	}
	e, w, i := r.Counts()
	fmt.Fprintf(&b, "%s: %s on %d processors: %d error(s), %d warning(s), %d info(s)\n",
		file, r.Program, r.Procs, e, w, i)
	return b.String()
}
