package hpfperf_test

// Tests of the static-analysis layer's user-facing surfaces: the golden
// files pin hpflint's text and JSON renderings (the -json schema is a
// compatibility contract for CI consumers), the corpus sweep keeps every
// checked-in program free of error-severity findings, and the
// traced-bounds test demonstrates the acceptance criterion that a
// program whose loop bound previously demanded PredictOptions.IntValues
// now predicts with no user-supplied values.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hpfperf"

	"hpfperf/internal/analysis"
	"hpfperf/internal/compiler"
)

func lintReport(t *testing.T, file string) *analysis.Report {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(string(src))
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return analysis.NewReport(file, analysis.NewUnit(prog))
}

// TestGoldenLintLaplace pins hpflint's text output on the laplace
// program — a clean program, so this is the shape of an all-clear run.
func TestGoldenLintLaplace(t *testing.T) {
	rep := lintReport(t, filepath.Join("testdata", "laplace.hpf"))
	checkGolden(t, "lint_laplace.txt", []byte(rep.Text()))
}

// TestGoldenLintShowcase pins hpflint's text and JSON output on the
// showcase program that fires most diagnostic codes. The JSON golden is
// the schema-stability contract for `hpflint -json`.
func TestGoldenLintShowcase(t *testing.T) {
	rep := lintReport(t, filepath.Join("testdata", "lint.hpf"))
	checkGolden(t, "lint_showcase.txt", []byte(rep.Text()))
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "lint_showcase.json", append(b, '\n'))
}

// TestLintCorpusClean mirrors the CI step `hpflint -severity error` over
// every checked-in program: the corpus must stay free of error-severity
// findings (and must all compile).
func TestLintCorpusClean(t *testing.T) {
	var files []string
	for _, pattern := range []string{
		filepath.Join("testdata", "*.hpf"),
		filepath.Join("examples", "*", "*.hpf"),
	} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 5 {
		t.Fatalf("corpus glob found only %d files: %v", len(files), files)
	}
	for _, f := range files {
		rep := lintReport(t, f)
		for _, d := range rep.Diagnostics {
			if d.Severity >= analysis.SevError {
				t.Errorf("%s: error-severity finding: %s", f, d)
			}
		}
	}
}

// TestTracedBoundsPredictsWithoutValues proves the acceptance criterion:
// examples/traced-bounds/bounds.hpf has its main loop bound (NITER)
// assigned inside an earlier loop, which the interpretation engine's
// inline propagation loses — definition tracing resolves it, so Predict
// succeeds with no IntValues and no TripCounts.
func TestTracedBoundsPredictsWithoutValues(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("examples", "traced-bounds", "bounds.hpf"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := hpfperf.Compile(string(src))
	if err != nil {
		t.Fatal(err)
	}

	// The analyzer reports the resolution (HPF0003) so users can see
	// tracing did the work.
	var traced *hpfperf.Diagnostic
	for _, d := range hpfperf.AnalyzeProgram(prog) {
		if d.Code == "HPF0003" {
			dd := d
			traced = &dd
		}
	}
	if traced == nil {
		t.Fatal("want an HPF0003 resolved-by-tracing diagnostic")
	}

	pred, err := hpfperf.Predict(prog, nil)
	if err != nil {
		t.Fatalf("Predict with no user-supplied values: %v", err)
	}
	if pred.Microseconds() <= 0 {
		t.Fatalf("want positive predicted time, got %v", pred.Microseconds())
	}
}
