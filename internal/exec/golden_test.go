package exec_test

// The executor golden pins every field of Result — measured times,
// per-run and per-node clocks and the float simulator counters as exact
// IEEE-754 bits, plus printed output, step counts and message counters —
// for a fixed set of programs and machine configurations, and the exact
// text of a set of runtime errors. It is the oracle for any change to
// how the executor runs a program: a rewrite must reproduce it bit for
// bit. Regenerate only when the simulated machine model itself changes,
// never together with an executor rewrite:
//
//	go test ./internal/exec -run TestExecutorGolden -update

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpfperf/internal/compiler"
	"hpfperf/internal/corpus"
	"hpfperf/internal/exec"
	"hpfperf/internal/hir"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/suite"
)

var update = flag.Bool("update", false, "rewrite the executor golden with current output")

const goldenPath = "testdata/results.golden"

// goldenCase is one pinned execution.
type goldenCase struct {
	name string
	src  string
	// edit, when set, changes the compiled program before it runs, to pin
	// shapes the compiler never emits.
	edit func(*hir.Program)
	cfg  ipsc.Config
	opts exec.Options
}

// machineConfig is ipsc.DefaultConfig(procs) with the knobs the golden
// varies.
func machineConfig(procs int, amp, timerRes float64, cacheModel bool) ipsc.Config {
	cfg := ipsc.DefaultConfig(procs)
	cfg.PerturbAmp = amp
	cfg.TimerResUS = timerRes
	cfg.CacheModel = cacheModel
	return cfg
}

// table2QuickGrid mirrors the quick Table-2 sweep: the first two problem
// sizes of each suite program at its declared system sizes among {1, 4}
// (or its first two).
func table2QuickGrid() []goldenCase {
	var out []goldenCase
	for _, p := range suite.All() {
		sizes := p.Sizes[:min(2, len(p.Sizes))]
		var procs []int
		for _, np := range p.Procs {
			if np == 1 || np == 4 {
				procs = append(procs, np)
			}
		}
		if len(procs) == 0 {
			procs = p.Procs[:min(2, len(p.Procs))]
		}
		for _, size := range sizes {
			for _, np := range procs {
				out = append(out, goldenCase{
					name: fmt.Sprintf("table2 %s n=%d p=%d", p.Name, size, np),
					src:  p.Source(size, np),
					cfg:  machineConfig(np, 0.01, 2, true),
					opts: exec.Options{Runs: 1},
				})
			}
		}
	}
	return out
}

// variantPrograms are the small programs the machine-configuration
// variants run: one per distribution shape of the suite.
func variantPrograms() []*suite.Program {
	return []*suite.Program{suite.LFK1(), suite.PBS3(), suite.PI(), suite.NBody(), suite.LaplaceBB()}
}

func goldenCases() []goldenCase {
	cases := table2QuickGrid()
	// The first three programs of every corpus family, under the corpus
	// validator's deterministic spec.
	for _, pr := range corpus.Generate(7, 18) {
		cases = append(cases, goldenCase{
			name: "corpus " + pr.Name,
			src:  pr.Source,
			cfg:  machineConfig(pr.Procs, 0, 0, true),
			opts: exec.Options{Runs: 1},
		})
	}
	for _, p := range variantPrograms() {
		size := p.Sizes[0]
		for _, np := range []int{2, 8} {
			src := p.Source(size, np)
			cases = append(cases,
				goldenCase{
					name: fmt.Sprintf("runs3 %s n=%d p=%d", p.Name, size, np),
					src:  src,
					cfg:  machineConfig(np, 0.01, 2, true),
					opts: exec.Options{Runs: 3},
				},
				goldenCase{
					name: fmt.Sprintf("nocache %s n=%d p=%d", p.Name, size, np),
					src:  src,
					cfg:  machineConfig(np, 0.01, 2, false),
					opts: exec.Options{Runs: 1},
				},
				goldenCase{
					name: fmt.Sprintf("noperturb %s n=%d p=%d", p.Name, size, np),
					src:  src,
					cfg:  machineConfig(np, 0, 2, true),
					opts: exec.Options{Runs: 1},
				})
		}
	}
	for _, o := range ownerPrograms {
		cases = append(cases, goldenCase{
			name: "owners " + o.name,
			src:  o.src,
			cfg:  machineConfig(o.procs, 0.01, 2, true),
			opts: exec.Options{Runs: 1},
		})
	}
	// A partitioned loop whose iterations run on the owners of element
	// K+8 while its guarded store writes element K: where the two owners
	// differ, no rank of the iteration's context owns the stored element.
	cases = append(cases, goldenCase{
		name: "owners shifted-partition",
		src: `PROGRAM sp
PARAMETER (N = 64)
REAL A(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
FORALL (K=1:32) A(K) = REAL(K)
S = SUM(A)
PRINT *, S
END`,
		edit: func(prog *hir.Program) {
			loop := prog.Body[0].(*hir.Loop)
			loop.Par = &hir.ParSpec{Array: loop.Par.Array, Dim: loop.Par.Dim, Offset: loop.Par.Offset + 8}
		},
		cfg:  machineConfig(4, 0.01, 2, true),
		opts: exec.Options{Runs: 1},
	})
	for _, e := range errorPrograms {
		cases = append(cases, goldenCase{
			name: "error " + e.name,
			src:  e.src,
			cfg:  machineConfig(e.procs, 0.01, 2, true),
			opts: exec.Options{MaxSteps: e.maxSteps},
		})
	}
	return cases
}

// ownerPrograms exercise the ownership shapes the suite and corpus leave
// out: a rank that owns nothing, maps whose bounds differ from their
// arrays', negative-stride partitioned loops, and guarded stores and
// fetches in a sequential recurrence over two distributed dimensions.
var ownerPrograms = []struct {
	name  string
	procs int
	src   string
}{
	{name: "block4-empty-rank", procs: 4, src: `PROGRAM b4
PARAMETER (N = 10)
REAL A(N), B(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN A(I) WITH T(I)
!HPF$ ALIGN B(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK(4)) ONTO P
FORALL (K=1:N) A(K) = REAL(K)
FORALL (K=2:N-1) B(K) = A(K-1) + A(K+1)
B(N) = A(1) + 1.0
DO I = 2, N
  B(I) = B(I) + B(I-1)
END DO
S = SUM(B)
X = B(9)
PRINT *, S, X
END`},
	{name: "align-offset", procs: 4, src: `PROGRAM ao
PARAMETER (N = 12)
REAL A(N), B(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N+2)
!HPF$ ALIGN A(I) WITH T(I+2)
!HPF$ ALIGN B(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
FORALL (K=1:N) A(K) = REAL(K)
FORALL (K=1:N) B(K) = A(K) * 2.0
A(N) = B(1)
A(1) = 3.0
DO I = 2, N
  A(I) = A(I-1) + B(I)
END DO
X = A(N) + A(2)
S = SUM(A)
PRINT *, S, X
END`},
	{name: "negative-stride", procs: 4, src: `PROGRAM ns
PARAMETER (N = 11)
REAL A(N), B(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK(3)) ONTO P
!HPF$ DISTRIBUTE B(CYCLIC(3)) ONTO P
FORALL (K=N:1:-1) A(K) = REAL(K)
FORALL (K=N:1:-1) B(K) = REAL(2*K)
FORALL (K=N:2:-2) A(K) = A(K) + 1.0
FORALL (K=N-1:1:-3) B(K) = 3.0 * B(K)
S = SUM(A) + SUM(B)
PRINT *, S
END`},
	{name: "recurrence-block-cyclic3", procs: 4, src: `PROGRAM rec
PARAMETER (N = 8, M = 10)
REAL A(N,M)
!HPF$ PROCESSORS P(2,2)
!HPF$ DISTRIBUTE A(BLOCK,CYCLIC(3)) ONTO P
FORALL (I=1:N, J=1:M) A(I,J) = REAL(I)
DO J = 2, M
  DO I = 1, N
    A(I,J) = A(I,J-1) + 1.0
  END DO
END DO
S = SUM(A)
X = A(N,M)
PRINT *, S, X
END`},
	// Single-assignment inner loops: stencils whose owner runs are shorter
	// than 64 iterations, negative strides, scalar and element kinds, and
	// assignments that read their own array.
	{name: "strip-cyclic3-stencil", procs: 4, src: `PROGRAM c3
PARAMETER (N = 70)
REAL U(N), V(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE U(CYCLIC(3)) ONTO P
!HPF$ DISTRIBUTE V(CYCLIC(3)) ONTO P
FORALL (I=1:N) U(I) = REAL(I) * 0.5
DO IT = 1, 3
  FORALL (I=2:N-1) V(I) = 0.5*(U(I-1) + U(I+1))
  FORALL (I=2:N-1) U(I) = V(I)
END DO
S = SUM(U)
PRINT *, S
END`},
	{name: "strip-block-cyclic2-stencil", procs: 4, src: `PROGRAM bc
PARAMETER (N = 70)
REAL U(N,N), V(N,N)
!HPF$ PROCESSORS P(2,2)
!HPF$ TEMPLATE T(N,N)
!HPF$ ALIGN U(I,J) WITH T(I,J)
!HPF$ ALIGN V(I,J) WITH T(I,J)
!HPF$ DISTRIBUTE T(BLOCK,CYCLIC(2)) ONTO P
FORALL (I=1:N, J=1:N) U(I,J) = REAL(I+J)
FORALL (I=2:N-1, J=2:N-1) V(I,J) = 0.25*(U(I-1,J) + U(I+1,J) + U(I,J-1) + U(I,J+1))
FORALL (I=2:N-1, J=2:N-1) U(I,J) = V(I,J)
S = SUM(U)
PRINT *, S
END`},
	{name: "strip-negative-stride", procs: 4, src: `PROGRAM ns
PARAMETER (N = 150)
REAL A(N), B(N), C(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
!HPF$ DISTRIBUTE B(BLOCK) ONTO P
FORALL (K=N:1:-1) A(K) = REAL(K)
FORALL (K=N-1:2:-3) B(K) = A(K+1) - A(K-1)
C = 1.0
DO I = N, 1, -2
  C(I) = 2.0*C(I) + 1.0
END DO
S = SUM(A) + SUM(B) + SUM(C)
PRINT *, S
END`},
	{name: "strip-scalar-kinds", procs: 4, src: `PROGRAM k
PARAMETER (N = 100, M = 3)
REAL A(N,M), X
INTEGER L
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK,*) ONTO P
L = 7
X = 0.25
FORALL (I=1:N, J=1:M) A(I,J) = REAL(I+J) + X*L - 2*L
S = SUM(A)
PRINT *, S
END`},
	{name: "strip-integer-and-double", procs: 2, src: `PROGRAM id
PARAMETER (N = 90)
INTEGER IA(N)
DOUBLE PRECISION D(N)
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE IA(BLOCK) ONTO P
!HPF$ DISTRIBUTE D(BLOCK) ONTO P
FORALL (I=1:N) IA(I) = 3*I - 7
FORALL (I=1:N) D(I) = SQRT(DBLE(IA(I)) + 10.0D0) + ABS(IA(I))
S = SUM(D)
K = SUM(IA)
PRINT *, S, K
END`},
	{name: "strip-product-and-recurrence", procs: 4, src: `PROGRAM pr
PARAMETER (N = 100)
REAL PRD(N), A(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE PRD(BLOCK) ONTO P
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
FORALL (K=1:N) PRD(K) = 1.0 + 0.01*REAL(K)
FORALL (K=1:N) A(K) = 0.0
DO J = 1, 3
  FORALL (K=1:N) PRD(K) = PRD(K) * (1.0 + 0.5**(REAL(K-J)*0.01))
END DO
DO I = 2, N
  A(I) = A(I-1) + 1.0
END DO
S = SUM(PRD) + SUM(A)
PRINT *, S
END`},
	{name: "strip-replicated-accumulate", procs: 2, src: `PROGRAM r
REAL A(10), B(100)
!HPF$ PROCESSORS P(2)
FORALL (I=1:100) B(I) = REAL(I)
A = 0.0
J = 3
DO I = 1, 100
  A(J) = A(J) + B(I)
END DO
PRINT *, A(J)
END`},
}

// errorPrograms fail at run time; the golden pins their error text,
// including the source line each error names.
var errorPrograms = []struct {
	name     string
	procs    int
	maxSteps int64
	src      string
}{
	{name: "subscript", procs: 1, src: `PROGRAM e
!HPF$ PROCESSORS P(1)
REAL A(8)
K = 9
A(K) = 1.0
END`},
	{name: "read-subscript", procs: 2, src: `PROGRAM e
REAL A(8), B(8)
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
!HPF$ DISTRIBUTE B(BLOCK) ONTO P
FORALL (I=1:8) A(I) = REAL(I)
K = 0
DO I = 1, 8
  K = K + 2
  S = S + A(K)
END DO
PRINT *, S
END`},
	{name: "int-div", procs: 1, src: `PROGRAM e
!HPF$ PROCESSORS P(1)
INTEGER K, J
J = 0
K = 5 / J
END`},
	{name: "mod", procs: 1, src: `PROGRAM e
!HPF$ PROCESSORS P(1)
INTEGER K, J
J = 0
K = MOD(7, J)
END`},
	{name: "zero-step", procs: 1, src: `PROGRAM e
!HPF$ PROCESSORS P(1)
INTEGER K
K = 0
DO I = 1, 4, K
  S = S + 1.0
END DO
END`},
	{name: "max-steps-loop", procs: 1, maxSteps: 1000, src: `PROGRAM e
!HPF$ PROCESSORS P(1)
S = 0.0
DO I = 1, 100000
  S = S + 1.0
  T = S * 2.0
END DO
END`},
	{name: "max-steps-while", procs: 1, maxSteps: 777, src: `PROGRAM e
!HPF$ PROCESSORS P(1)
S = 0.0
DO WHILE (S .GE. 0.0)
  S = S + 1.0
END DO
END`},
	{name: "while-cond", procs: 1, src: `PROGRAM e
!HPF$ PROCESSORS P(1)
REAL A(4)
K = 1
DO WHILE (A(K) .LT. 1.0)
  K = K + 1
END DO
END`},
	{name: "partitioned-index-high", procs: 2, src: `PROGRAM e
PARAMETER (N = 8)
REAL A(N)
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
M = 10
FORALL (I=1:M) A(I) = REAL(I)
END`},
	{name: "partitioned-index-negative-stride", procs: 2, src: `PROGRAM e
PARAMETER (N = 8)
REAL A(N)
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
M = 0
FORALL (I=8:M:-2) A(I) = REAL(I)
END`},
	// Single-assignment inner loops that fail partway through 64
	// iterations: a read and a store leave their arrays, and the step
	// budget runs out.
	{name: "strip-read-leaves-array", procs: 1, src: `PROGRAM e
PARAMETER (N = 50)
REAL A(40), B(N)
!HPF$ PROCESSORS P(1)
FORALL (I=1:40) A(I) = REAL(I)
K = 1
DO I = 1, N
  B(I) = A(I+K)
END DO
PRINT *, B(1)
END`},
	{name: "strip-store-leaves-array", procs: 2, src: `PROGRAM e
PARAMETER (N = 50)
REAL A(N), B(40)
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
FORALL (I=1:N) A(I) = REAL(I)
K = 3
DO I = 1, N
  B(I+K) = 2.0 * A(I)
END DO
END`},
	{name: "strip-max-steps", procs: 1, maxSteps: 1000, src: `PROGRAM e
PARAMETER (N = 5000)
REAL A(N), B(N)
!HPF$ PROCESSORS P(1)
FORALL (I=1:N) A(I) = REAL(I)
FORALL (I=1:N) B(I) = A(I) * 2.0
END`},
}

// render formats one result (or error) of a case.
func render(b *bytes.Buffer, name string, res *exec.Result, err error) {
	fmt.Fprintf(b, "== %s\n", name)
	if err != nil {
		fmt.Fprintf(b, "error %s\n", err)
		return
	}
	fmt.Fprintf(b, "measured %s\n", bits(res.MeasuredUS))
	fmt.Fprintf(b, "runs %s\n", bitsList(res.RunsUS))
	fmt.Fprintf(b, "pernode %s\n", bitsList(res.PerNodeUS))
	fmt.Fprintf(b, "steps %d\n", res.Steps)
	s := res.Stats
	fmt.Fprintf(b, "stats messages=%d bytes=%d collectives=%d compute=%s commwait=%s\n",
		s.Messages, s.BytesMoved, s.Collectives, bits(s.ComputeUS), bits(s.CommWaitUS))
	fmt.Fprintf(b, "printed %d\n", len(res.Printed))
	for _, l := range res.Printed {
		fmt.Fprintf(b, "| %s\n", l)
	}
}

func bits(f float64) string { return fmt.Sprintf("%016x(%g)", math.Float64bits(f), f) }

func bitsList(fs []float64) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = bits(f)
	}
	return strings.Join(parts, " ")
}

func runCase(t *testing.T, c goldenCase) (*exec.Result, error) {
	t.Helper()
	prog, err := compiler.Compile(c.src)
	if err != nil {
		t.Fatalf("%s: compile: %v", c.name, err)
	}
	if c.edit != nil {
		c.edit(prog)
	}
	m, err := ipsc.New(c.cfg)
	if err != nil {
		t.Fatalf("%s: machine: %v", c.name, err)
	}
	return exec.Run(prog, m, c.opts)
}

func TestExecutorGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range goldenCases() {
		res, err := runCase(t, c)
		render(&got, c.name, res, err)
		if c.opts.Runs > 1 {
			// Concurrent and sequential timed runs must agree bit for bit.
			c.opts.Sequential = true
			seq, serr := runCase(t, c)
			var a, b bytes.Buffer
			render(&a, c.name, res, err)
			render(&b, c.name, seq, serr)
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("%s: sequential runs differ from concurrent runs", c.name)
			}
		}
	}
	path := filepath.FromSlash(goldenPath)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
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
			t.Fatalf("%s differs first at line %d:\n-%s\n+%s", goldenPath, i+1, wl, gl)
		}
	}
}
