package analysis_test

// The trace golden pins the definition tracer's full output — every
// counted loop, DO WHILE and scalar IF it records, in program order,
// with bounds, trip counts, condition values, the pinned flag and each
// blocker's name, line and reason — over the repository's HPF inputs and
// a slice of the kernel corpus, plus one run with a pinned value. Any
// change to the tracer's internal representation must leave it byte-
// identical. Regenerate only when the tracer's semantics change on
// purpose:
//
//	go test ./internal/analysis -run TestTraceGolden -update

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpfperf/internal/analysis"
	"hpfperf/internal/compiler"
	"hpfperf/internal/corpus"
	"hpfperf/internal/sem"
)

var update = flag.Bool("update", false, "rewrite the trace golden with current output")

const traceGoldenPath = "testdata/traces.golden"

// Shapes that reach every transfer function and blocker reason the
// repository's programs leave out: branch meets, fixpoint kills, dead
// loops and branches, reductions, element fetches and pinned values.
const shapePreamble = `PROGRAM SHAPE
PARAMETER (N = 64)
REAL A(N), B(N)
INTEGER M, K, L, Q, R, C, Z
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
!HPF$ DISTRIBUTE B(BLOCK) ONTO P
`

const shapeBranches = shapePreamble + `S = SUM(A)
IF (S .GT. 0.0) THEN
  M = 4
  K = 8
ELSE
  K = 9
  Q = 3
END IF
L = 5
IF (S .GT. 1.0) THEN
  L = 5
END IF
R = K + 1
DO I = 1, M
  A(I) = 1.0
END DO
DO I = 1, K
  A(I) = 2.0
END DO
DO I = 1, R
  A(I) = 3.0
END DO
DO I = 1, Q
  A(I) = 4.0
END DO
DO I = 1, L
  A(I) = 5.0
END DO
IF (L .EQ. 5) THEN
  B = A
ELSE
  B = 0.0
END IF
END`

const shapeLoops = shapePreamble + `C = 0
DO J = 1, 10
  C = C + 1
END DO
DO I = 1, C
  A(I) = 1.0
END DO
DO WHILE (X .LT. 10.0)
  X = X + 1.0
END DO
Z = 0
DO WHILE (Z .GT. 5)
  Z = Z + 1
END DO
DO I = 1, 0
  DO J = 1, I
    A(J) = 0.0
  END DO
END DO
DO I = 1, 10, Z
  A(I) = 2.0
END DO
M = A(2)
DO I = 1, M
  B(I) = 1.0
END DO
DO I = 1, INT(A(3))
  B(I) = 2.0
END DO
DO I = 1, J
  B(I) = 3.0
END DO
IF (M .GT. 2) THEN
  K = 1
ELSE
  K = 2
END IF
DO I = 1, K
  B(I) = 4.0
END DO
END`

const shapeKills = shapePreamble + `REAL E(8)
S = SUM(A)
DO I = 1, INT(S)
  A(I) = 1.0
END DO
K = Q0 + 1
DO I = 1, K
  A(I) = 2.0
END DO
DO J = 1, I
  A(J) = 3.0
END DO
DO I = 1, M0
  A(I) = 4.0
END DO
R = E(1) + 1.0
DO I = 1, INT(R)
  A(I) = 5.0
END DO
` + chainLoop + `DO I = 1, M10
  A(I) = 6.0
END DO
END`

// chainLoop needs one fixpoint round per link of its copy chain, more
// than the tracer allows, so the fixpoint gives up and kills what the
// body assigns.
const chainLoop = `M1 = 0
M2 = 0
M3 = 0
M4 = 0
M5 = 0
M6 = 0
M7 = 0
M8 = 0
M9 = 0
M10 = 0
DO J = 1, 3
  M10 = M9
  M9 = M8
  M8 = M7
  M7 = M6
  M6 = M5
  M5 = M4
  M4 = M3
  M3 = M2
  M2 = M1
  M1 = M1 + 1
END DO
`

type traceCase struct {
	name   string
	src    string
	pinned map[string]sem.Value
}

func traceCases(t *testing.T) []traceCase {
	t.Helper()
	var files []string
	for _, pat := range []string{"testdata/*.hpf", "examples/*/*.hpf"} {
		m, err := filepath.Glob(filepath.Join("..", "..", filepath.FromSlash(pat)))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		t.Fatal("no HPF inputs found")
	}
	var out []traceCase
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(filepath.Join("..", ".."), f)
		out = append(out, traceCase{name: filepath.ToSlash(rel), src: string(b)})
		if filepath.Base(f) == "lint.hpf" {
			// The value the hpflint hint for this file asks for.
			out = append(out, traceCase{name: filepath.ToSlash(rel) + " LIM=0", src: string(b),
				pinned: map[string]sem.Value{"LIM": sem.IntVal(0)}})
		}
	}
	out = append(out,
		traceCase{name: "shape/branches", src: shapeBranches},
		traceCase{name: "shape/loops", src: shapeLoops},
		traceCase{name: "shape/kills", src: shapeKills},
		traceCase{name: "shape/loops M=3", src: shapeLoops, pinned: map[string]sem.Value{"M": sem.IntVal(3)}},
		traceCase{name: "shape/loops C=7 X=20.0", src: shapeLoops,
			pinned: map[string]sem.Value{"C": sem.IntVal(7), "X": sem.RealVal(20)}})
	// Two programs per kernel family.
	for _, p := range corpus.Generate(1, 12) {
		out = append(out, traceCase{name: "corpus/" + p.Name, src: p.Source})
	}
	return out
}

func writeBlockers(w *bytes.Buffer, bs []analysis.Blocker) {
	for _, b := range bs {
		fmt.Fprintf(w, "    blocker %s line=%d reason=%q\n", b.Name, b.Line, b.Reason)
	}
}

// renderTrace writes one program's trace in *Order order.
func renderTrace(t *testing.T, w *bytes.Buffer, c traceCase) {
	t.Helper()
	prog, err := compiler.Compile(c.src)
	if err != nil {
		t.Fatalf("%s: compile: %v", c.name, err)
	}
	tr := analysis.TraceProgram(prog, c.pinned)
	fmt.Fprintf(w, "== %s\n", c.name)
	for _, x := range tr.LoopOrder {
		lt := tr.Loops[x]
		fmt.Fprintf(w, "loop line=%d var=%s resolved=%t lo=%d hi=%d step=%d trips=%d dynamic=%t\n",
			lt.Line, lt.Var, lt.Resolved, lt.Lo, lt.Hi, lt.Step, lt.Trips, lt.Dynamic)
		writeBlockers(w, lt.Blockers)
	}
	for _, x := range tr.WhileOrder {
		wt := tr.Whiles[x]
		fmt.Fprintf(w, "while line=%d resolved=%t value=%t\n", wt.Line, wt.CondResolved, wt.CondValue)
		writeBlockers(w, wt.Blockers)
	}
	for _, x := range tr.CondOrder {
		ct := tr.Conds[x]
		fmt.Fprintf(w, "if line=%d resolved=%t value=%t pinned=%t then=%t else=%t\n",
			ct.Line, ct.Resolved, ct.Value, ct.Pinned, ct.HasThen, ct.HasElse)
	}
}

func TestTraceGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range traceCases(t) {
		renderTrace(t, &got, c)
	}
	path := filepath.FromSlash(traceGoldenPath)
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v (run with -update to create)", path, err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	w, g := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			t.Fatalf("%s differs first at line %d:\n-%s\n+%s", traceGoldenPath, i+1, wl, gl)
		}
	}
}
