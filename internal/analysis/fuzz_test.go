package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hpfperf/internal/compiler"
	"hpfperf/internal/suite"
)

// FuzzAnalyze runs every analysis pass (including the definition tracer's
// fixpoint) and the pricer over arbitrary compilable input, asserting the
// analyzer never panics, terminates within its budget, and emits only
// well-formed diagnostics. It also checks that the passes and the pricer
// leave the unit's trace untouched: a compiled program's unpinned unit
// is shared by admission, prediction and /v1/analyze, which is sound
// only while every consumer reads it. Inputs that fail to compile are
// simply skipped — hpflint reports those as HPF0000 without ever
// reaching the passes.
func FuzzAnalyze(f *testing.F) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.hpf"))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatalf("seed %s: %v", p, err)
		}
		f.Add(string(b))
	}
	for _, prog := range suite.All() {
		f.Add(prog.Source(prog.Sizes[0], prog.Procs[0]))
	}
	// Shapes that stress individual passes: deep loop nests (trace budget),
	// zero-trip loops, self-referential bounds, whole-array shifts.
	f.Add("PROGRAM P\nREAL A(8)\nM = 0\nDO K = 1, 4\nM = M + 1\nEND DO\nDO I = 1, M\nX = X + 1.0\nEND DO\nEND\n")
	f.Add("PROGRAM P\nREAL A(8), B(8)\nB = CSHIFT(A, 2)\nDO I = 10, 1\nX = 1.0\nEND DO\nEND\n")
	f.Add("PROGRAM P\nREAL A(8)\nFORALL (I=2:7) A(I) = A(I-1)\nEND\n")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := compiler.Compile(src)
		if err != nil {
			return
		}
		u := NewUnit(prog)
		ds := AnalyzeUnit(u)
		Price(u)
		if !reflect.DeepEqual(u.Trace, TraceProgram(prog, nil)) {
			t.Fatal("analysis passes or the pricer modified the shared unit's trace")
		}
		for _, d := range ds {
			if d.Code == "" || d.Pass == "" || d.Message == "" {
				t.Fatalf("malformed diagnostic %+v", d)
			}
			if d.Line < 0 {
				t.Fatalf("diagnostic with negative line: %+v", d)
			}
			if s := d.Severity; s != SevInfo && s != SevWarning && s != SevError {
				t.Fatalf("diagnostic with invalid severity: %+v", d)
			}
		}
	})
}
