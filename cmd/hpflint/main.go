// Command hpflint is the static analyzer for HPF/Fortran 90D programs:
// it compiles each source file and runs the analysis passes — critical-
// variable definition tracing, communication anti-pattern lints, FORALL
// dependence tests, directive hygiene, and degenerate control-flow
// detection — reporting structured diagnostics instead of predictions.
//
// Usage:
//
//	hpflint [flags] file.hpf [file2.hpf ...]
//
//	-json             emit one JSON report per file instead of text
//	-price            print the static cost pre-estimate after each report
//	-severity LEVEL   exit non-zero when a diagnostic at or above LEVEL
//	                  (info, warning, error) is found; default warning
//
// Exit status: 0 clean (below threshold), 1 findings at or above the
// threshold, 2 usage or I/O errors. Programs that fail to compile
// produce an HPF0000 error diagnostic rather than aborting the run, so
// a corpus sweep reports every file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"hpfperf/internal/analysis"
	"hpfperf/internal/compiler"
	"hpfperf/internal/parser"
	"hpfperf/internal/scanner"
	"hpfperf/internal/sem"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("hpflint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit JSON reports instead of text")
	priceOut := fs.Bool("price", false, "print the static cost pre-estimate after each report")
	sevFlag := fs.String("severity", "warning", "exit threshold: info, warning or error")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	threshold, err := analysis.ParseSeverity(*sevFlag)
	if err != nil {
		fmt.Fprintln(stderr, "hpflint:", err)
		return 2
	}
	files := fs.Args()
	if len(files) == 0 {
		fmt.Fprintln(stderr, "hpflint: no input files (usage: hpflint [-json] [-severity level] file.hpf ...)")
		return 2
	}

	exit := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(stderr, "hpflint:", err)
			return 2
		}
		rep := lintSource(file, string(src))
		if *jsonOut {
			b, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fmt.Fprintln(stderr, "hpflint:", err)
				return 2
			}
			fmt.Fprintln(stdout, string(b))
		} else {
			fmt.Fprint(stdout, rep.Text())
			if *priceOut && rep.Price != nil {
				fmt.Fprint(stdout, rep.Price.String())
			}
		}
		if max, ok := rep.Max(); ok && max >= threshold && exit == 0 {
			exit = 1
		}
	}
	return exit
}

// lintSource compiles and analyzes one source file. Compile failures
// become an HPF0000 error diagnostic carrying the frontend's message and
// source line, keeping the report schema uniform.
func lintSource(file, src string) *analysis.Report {
	prog, err := compiler.Compile(src)
	if err != nil {
		return &analysis.Report{
			File:    file,
			Program: "",
			Diagnostics: []analysis.Diagnostic{{
				Code:     "HPF0000",
				Severity: analysis.SevError,
				Pass:     "compile",
				Line:     errorLine(err),
				Message:  err.Error(),
			}},
		}
	}
	return analysis.NewReport(file, analysis.NewUnit(prog))
}

// errorLine extracts the source line from any of the frontend's
// positioned error types.
func errorLine(err error) int {
	var (
		ce *compiler.Error
		se *sem.Error
		pl parser.ErrorList
		pe *parser.Error
		le *scanner.Error
	)
	switch {
	case errors.As(err, &ce):
		return ce.Pos.Line
	case errors.As(err, &se):
		return se.Pos.Line
	case errors.As(err, &pl) && len(pl) > 0:
		return pl[0].Pos.Line
	case errors.As(err, &pe):
		return pe.Pos.Line
	case errors.As(err, &le):
		return le.Pos.Line
	}
	return 0
}
