package analysis

import (
	"encoding/json"
	"strings"
	"testing"

	"hpfperf/internal/analysis/dep"
)

// reportOf compiles a program and builds its full report (diagnostics
// plus price), as hpflint and /v1/analyze do.
func reportOf(t *testing.T, src string) *Report {
	t.Helper()
	return NewReport("prog.hpf", NewUnit(mustCompile(t, src)))
}

// TestReportSeverityAccounting: Counts and Max agree with the
// diagnostics, across empty, warning-only, and mixed-severity reports.
func TestReportSeverityAccounting(t *testing.T) {
	clean := reportOf(t, preamble+`FORALL (I=2:N-1) B(I) = 0.5*(A(I-1) + A(I+1))
END`)
	if e, w, i := clean.Counts(); e+w+i != len(clean.Diagnostics) {
		t.Fatalf("counts %d+%d+%d disagree with %d diagnostics", e, w, i, len(clean.Diagnostics))
	}

	empty := &Report{Diagnostics: []Diagnostic{}}
	if _, ok := empty.Max(); ok {
		t.Error("Max on an empty report must report absence")
	}

	mixed := &Report{Diagnostics: []Diagnostic{
		{Code: "X1", Severity: SevInfo},
		{Code: "X2", Severity: SevError},
		{Code: "X3", Severity: SevWarning},
		{Code: "X4", Severity: SevWarning},
	}}
	if max, ok := mixed.Max(); !ok || max != SevError {
		t.Errorf("Max = %v,%v, want error,true", max, ok)
	}
	e, w, i := mixed.Counts()
	if e != 1 || w != 2 || i != 1 {
		t.Errorf("Counts = %d,%d,%d, want 1,2,1", e, w, i)
	}
	if !(SevError > SevWarning && SevWarning > SevInfo) {
		t.Error("severity ordering must be error > warning > info")
	}
}

// TestReportOrdering: NewReport emits diagnostics sorted by line, then
// code, regardless of pass registration order.
func TestReportOrdering(t *testing.T) {
	rep := reportOf(t, preamble+`INTEGER M
M = INT(A(1))
DO I = 1, M
  X = X + 1.0
END DO
DO K = 10, 1
  X = X + 1.0
END DO
FORALL (J=2:N) A(J) = A(J-1)
END`)
	if len(rep.Diagnostics) < 3 {
		t.Fatalf("expected several diagnostics, got %v", rep.Diagnostics)
	}
	for i := 1; i < len(rep.Diagnostics); i++ {
		prev, cur := rep.Diagnostics[i-1], rep.Diagnostics[i]
		if cur.Line < prev.Line || (cur.Line == prev.Line && cur.Code < prev.Code) {
			t.Errorf("diagnostics out of (line, code) order at %d: %v then %v", i, prev, cur)
		}
	}
}

// TestReportJSONSchema pins the wire schema of /v1/analyze and
// hpflint -json: stable key names, diagnostics `[]` (never null) on
// clean programs, a price block with positive cost, and severities as
// their lowercase string forms.
func TestReportJSONSchema(t *testing.T) {
	rep := reportOf(t, preamble+`FORALL (J=2:N) A(J) = A(J-1)
END`)
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"file", "program", "procs", "diagnostics", "price"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("schema key %q missing from %s", key, raw)
		}
	}
	diags, ok := decoded["diagnostics"].([]any)
	if !ok || len(diags) == 0 {
		t.Fatalf("diagnostics must be a non-empty array, got %s", raw)
	}
	first, ok := diags[0].(map[string]any)
	if !ok {
		t.Fatalf("diagnostic shape: %s", raw)
	}
	for _, key := range []string{"code", "severity", "line", "message"} {
		if _, ok := first[key]; !ok {
			t.Errorf("diagnostic key %q missing from %s", key, raw)
		}
	}
	if sev, _ := first["severity"].(string); sev != "error" && sev != "warning" && sev != "info" {
		t.Errorf("severity must serialize as its name, got %v", first["severity"])
	}
	price, ok := decoded["price"].(map[string]any)
	if !ok {
		t.Fatalf("price block missing: %s", raw)
	}
	if cu, _ := price["cost_units"].(float64); cu <= 0 {
		t.Errorf("price.cost_units must be positive, got %v", price["cost_units"])
	}

	// Clean program: diagnostics must serialize as [] rather than null.
	clean := reportOf(t, preamble+`FORALL (I=2:N-1) B(I) = 0.5*(A(I-1) + A(I+1))
END`)
	clean.Diagnostics = clean.Diagnostics[:0]
	raw, err = json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"diagnostics":null`) {
		t.Errorf("empty diagnostics must marshal as [], got %s", raw)
	}
}

// TestReportText: the text rendering carries one line per diagnostic
// (plus indented hints) and a trailing summary naming the program.
func TestReportText(t *testing.T) {
	rep := reportOf(t, preamble+`FORALL (J=2:N) A(J) = A(J-1)
DO K = 10, 1
  X = X + 1.0
END DO
END`)
	text := rep.Text()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	var hints int
	for _, l := range lines[:len(lines)-1] {
		if strings.HasPrefix(l, "    hint: ") {
			hints++
			continue
		}
		if !strings.HasPrefix(l, "prog.hpf:") {
			t.Errorf("diagnostic line lacks file prefix: %q", l)
		}
	}
	if len(lines)-1-hints != len(rep.Diagnostics) {
		t.Errorf("%d diagnostic lines for %d diagnostics", len(lines)-1-hints, len(rep.Diagnostics))
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, rep.Program) || !strings.Contains(last, "error(s)") {
		t.Errorf("summary line malformed: %q", last)
	}

	// Unnamed input falls back to the <source> label.
	rep.File = ""
	if !strings.HasPrefix(rep.Text(), "<source>:") {
		t.Error("empty file name must render as <source>")
	}
}

// TestDirListTruncation: diagnostics over many feasible direction
// vectors cap the rendered list at three entries plus a count, keeping
// multi-diagnostic reports readable.
func TestDirListTruncation(t *testing.T) {
	dirs := [][]dep.Dir{
		{dep.DirLT, dep.DirLT},
		{dep.DirLT, dep.DirEQ},
		{dep.DirLT, dep.DirGT},
		{dep.DirEQ, dep.DirLT},
		{dep.DirGT, dep.DirGT},
	}
	got := dirList(dirs)
	if !strings.Contains(got, "+2 more") {
		t.Errorf("dirList = %q, want a +2 more suffix", got)
	}
	if strings.Contains(got, "(=,<)") || strings.Contains(got, "(>,>)") {
		t.Errorf("dirList = %q leaked entries past the cap", got)
	}
	if got := dirList(dirs[:2]); strings.Contains(got, "more") {
		t.Errorf("dirList below the cap must not truncate: %q", got)
	}
}
