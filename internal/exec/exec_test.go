package exec

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"hpfperf/internal/compiler"
	"hpfperf/internal/hir"
	"hpfperf/internal/ipsc"
)

// run compiles and executes src on nprocs simulated nodes, returning the
// result.
func run(t *testing.T, src string, nprocs int) *Result {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if prog.Info.Grid.Size() != nprocs {
		t.Fatalf("program grid has %d procs, test expects %d", prog.Info.Grid.Size(), nprocs)
	}
	cfg := ipsc.DefaultConfig(nprocs)
	cfg.PerturbAmp = 0 // deterministic timing for functional tests
	cfg.TimerResUS = 0
	m, err := ipsc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, m, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// lastPrinted parses the final printed line's single value.
func lastPrinted(t *testing.T, res *Result) float64 {
	t.Helper()
	if len(res.Printed) == 0 {
		t.Fatal("nothing printed")
	}
	line := res.Printed[len(res.Printed)-1]
	fields := strings.Fields(line)
	v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
	if err != nil {
		t.Fatalf("cannot parse printed value %q", line)
	}
	return v
}

func wantNear(t *testing.T, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("got %g, want %g (±%g)", got, want, tol)
	}
}

func TestScalarArithmetic(t *testing.T) {
	res := run(t, `PROGRAM p
!HPF$ PROCESSORS P(1)
X = 2.0
Y = X**2 + 3.0*X - 1.0
PRINT *, Y
END`, 1)
	wantNear(t, lastPrinted(t, res), 9.0, 1e-9)
}

func TestIntegerDivisionTruncates(t *testing.T) {
	res := run(t, `PROGRAM p
!HPF$ PROCESSORS P(1)
INTEGER K
K = 7 / 2
PRINT *, K
END`, 1)
	wantNear(t, lastPrinted(t, res), 3, 0)
}

func TestDoLoopAccumulation(t *testing.T) {
	res := run(t, `PROGRAM p
!HPF$ PROCESSORS P(1)
S = 0.0
DO I = 1, 100
  S = S + REAL(I)
END DO
PRINT *, S
END`, 1)
	wantNear(t, lastPrinted(t, res), 5050, 1e-9)
}

const sumHdr = `PROGRAM p
PARAMETER (N = 64)
REAL A(N), B(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN A(I) WITH T(I)
!HPF$ ALIGN B(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
`

func TestDistributedSum(t *testing.T) {
	res := run(t, sumHdr+`FORALL (K=1:N) A(K) = REAL(K)
S = SUM(A)
PRINT *, S
END`, 4)
	wantNear(t, lastPrinted(t, res), 64*65/2, 1e-9)
}

func TestDistributedDotProduct(t *testing.T) {
	res := run(t, sumHdr+`FORALL (K=1:N) A(K) = 2.0
FORALL (K=1:N) B(K) = 3.0
S = DOT_PRODUCT(A, B)
PRINT *, S
END`, 4)
	wantNear(t, lastPrinted(t, res), 64*6, 1e-9)
}

func TestMaxvalAndMaxloc(t *testing.T) {
	res := run(t, sumHdr+`FORALL (K=1:N) A(K) = REAL(K)
A(17) = 1000.0
X = MAXVAL(A)
K = MAXLOC(A)
PRINT *, X
PRINT *, K
END`, 4)
	if len(res.Printed) != 2 {
		t.Fatalf("printed = %v", res.Printed)
	}
	if res.Printed[0] != "1000" {
		t.Errorf("maxval = %s", res.Printed[0])
	}
	if res.Printed[1] != "17" {
		t.Errorf("maxloc = %s", res.Printed[1])
	}
}

func TestForallRHSEvaluatedBeforeAssignment(t *testing.T) {
	// X(K) = X(K-1) + X(K+1) must use OLD values of X on both sides.
	res := run(t, sumHdr+`FORALL (K=1:N) A(K) = 1.0
FORALL (K=2:N-1) A(K) = A(K-1) + A(K+1)
S = SUM(A)
PRINT *, S
END`, 4)
	// Interior elements become 2.0, boundary stay 1.0: 62*2 + 2 = 126.
	wantNear(t, lastPrinted(t, res), 126, 1e-9)
}

func TestMaskedForall(t *testing.T) {
	res := run(t, sumHdr+`FORALL (K=1:N) A(K) = REAL(K) - 32.5
FORALL (K=1:N, A(K) .GT. 0.0) A(K) = 0.0
S = SUM(A)
PRINT *, S
END`, 4)
	// Negative values (K=1..32) survive: sum = sum(k-32.5, k=1..32).
	want := 0.0
	for k := 1; k <= 32; k++ {
		want += float64(k) - 32.5
	}
	wantNear(t, lastPrinted(t, res), want, 1e-9)
}

func TestWhereElsewhere(t *testing.T) {
	res := run(t, sumHdr+`FORALL (K=1:N) A(K) = REAL(K) - 32.0
WHERE (A .GT. 0.0)
  B = 1.0
ELSEWHERE
  B = -1.0
END WHERE
S = SUM(B)
PRINT *, S
END`, 4)
	// 32 positive (33..64), 32 non-positive: sum = 32 - 32 = 0.
	wantNear(t, lastPrinted(t, res), 0, 1e-9)
}

func TestCshiftSemantics(t *testing.T) {
	res := run(t, sumHdr+`FORALL (K=1:N) A(K) = REAL(K)
B = CSHIFT(A, 1)
X = B(1)
Y = B(N)
PRINT *, X
PRINT *, Y
END`, 4)
	// CSHIFT(A,1): B(i) = A(i+1) circularly: B(1)=2, B(64)=1.
	if res.Printed[0] != "2" || res.Printed[1] != "1" {
		t.Errorf("cshift = %v", res.Printed)
	}
}

func TestEoshiftBoundary(t *testing.T) {
	res := run(t, sumHdr+`FORALL (K=1:N) A(K) = REAL(K)
B = EOSHIFT(A, 1, -5.0)
X = B(N)
PRINT *, X
END`, 4)
	wantNear(t, lastPrinted(t, res), -5, 0)
}

func TestStencilArraySyntax(t *testing.T) {
	res := run(t, sumHdr+`FORALL (K=1:N) A(K) = REAL(K)
B(2:N-1) = A(1:N-2) + A(3:N)
X = B(10)
PRINT *, X
END`, 4)
	// B(10) = A(9) + A(11) = 20.
	wantNear(t, lastPrinted(t, res), 20, 1e-9)
}

func TestSequentialRecurrence(t *testing.T) {
	res := run(t, sumHdr+`A(1) = 1.0
DO I = 2, N
  A(I) = A(I-1) * 1.1
END DO
X = A(5)
PRINT *, X
END`, 4)
	wantNear(t, lastPrinted(t, res), math.Pow(1.1, 4), 1e-9)
}

func TestIndirectionGather(t *testing.T) {
	src := `PROGRAM p
PARAMETER (N = 16)
REAL A(N), EX(N)
INTEGER IX(N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN A(I) WITH T(I)
!HPF$ ALIGN IX(I) WITH T(I)
!HPF$ ALIGN EX(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
FORALL (K=1:N) EX(K) = REAL(K) * 10.0
FORALL (K=1:N) IX(K) = N + 1 - K
FORALL (K=1:N) A(K) = EX(IX(K))
X = A(1)
PRINT *, X
END`
	res := run(t, src, 4)
	// A(1) = EX(IX(1)) = EX(16) = 160.
	wantNear(t, lastPrinted(t, res), 160, 1e-9)
}

func TestLaplace2DConverges(t *testing.T) {
	src := `PROGRAM lap
PARAMETER (N = 8)
REAL U(N,N), V(N,N)
!HPF$ PROCESSORS P(2,2)
!HPF$ TEMPLATE T(N,N)
!HPF$ ALIGN U(I,J) WITH T(I,J)
!HPF$ ALIGN V(I,J) WITH T(I,J)
!HPF$ DISTRIBUTE T(BLOCK,BLOCK) ONTO P
FORALL (I=1:N, J=1:N) U(I,J) = 0.0
FORALL (J=1:N) U(1,J) = 100.0
DO ITER = 1, 200
  FORALL (I=2:N-1, J=2:N-1) V(I,J) = 0.25*(U(I-1,J)+U(I+1,J)+U(I,J-1)+U(I,J+1))
  FORALL (I=2:N-1, J=2:N-1) U(I,J) = V(I,J)
END DO
X = U(2, 4)
PRINT *, X
END`
	res := run(t, src, 4)
	got := lastPrinted(t, res)
	// Interior point adjacent to the hot wall must be warm but below 100.
	if got < 20 || got > 90 {
		t.Errorf("U(2,4) = %g, expected a relaxed interior value", got)
	}
}

func TestGuardedElementAssign(t *testing.T) {
	res := run(t, sumHdr+`A(50) = 7.0
X = A(50)
PRINT *, X
END`, 4)
	wantNear(t, lastPrinted(t, res), 7, 0)
}

func TestPiQuadrature(t *testing.T) {
	src := `PROGRAM pi
PARAMETER (N = 1024)
REAL F(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE F(BLOCK) ONTO P
H = 1.0 / REAL(N)
FORALL (K=1:N) F(K) = 4.0 / (1.0 + ((REAL(K)-0.5)*H)**2)
API = H * SUM(F)
PRINT *, API
END`
	res := run(t, src, 4)
	wantNear(t, lastPrinted(t, res), math.Pi, 1e-4)
}

// ---------------------------------------------------------------------------
// Timing sanity

func timeOf(t *testing.T, src string, nprocs int, perturb float64) float64 {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := ipsc.DefaultConfig(nprocs)
	cfg.PerturbAmp = perturb
	cfg.TimerResUS = 0
	m, err := ipsc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, m, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res.MeasuredUS
}

func piSrc(nprocs int) string {
	return `PROGRAM pi
PARAMETER (N = 4096)
REAL F(N)
!HPF$ PROCESSORS P(` + strconv.Itoa(nprocs) + `)
!HPF$ DISTRIBUTE F(BLOCK) ONTO P
H = 1.0 / REAL(N)
FORALL (K=1:N) F(K) = 4.0 / (1.0 + ((REAL(K)-0.5)*H)**2)
API = H * SUM(F)
PRINT *, API
END`
}

func TestParallelSpeedup(t *testing.T) {
	t1 := timeOf(t, piSrc(1), 1, 0)
	t4 := timeOf(t, piSrc(4), 4, 0)
	t8 := timeOf(t, piSrc(8), 8, 0)
	if t4 >= t1 {
		t.Errorf("no speedup: t1=%g t4=%g", t1, t4)
	}
	if t8 >= t4 {
		t.Errorf("no speedup 4->8: t4=%g t8=%g", t4, t8)
	}
	if t4 < t1/4 {
		t.Errorf("superlinear speedup t1=%g t4=%g suggests missing comm costs", t1, t4)
	}
}

func TestCommunicationCounted(t *testing.T) {
	prog, err := compiler.Compile(piSrc(4))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := ipsc.New(ipsc.DefaultConfig(4))
	res, err := Run(prog, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Messages == 0 || res.Stats.Collectives == 0 {
		t.Errorf("stats = %+v, expected reduction traffic", res.Stats)
	}
}

func TestPerturbationChangesRuns(t *testing.T) {
	prog, err := compiler.Compile(piSrc(4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ipsc.DefaultConfig(4)
	cfg.PerturbAmp = 0.02
	m, _ := ipsc.New(cfg)
	res, err := Run(prog, m, Options{Runs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RunsUS) != 5 {
		t.Fatalf("runs = %d", len(res.RunsUS))
	}
	same := true
	for _, r := range res.RunsUS[1:] {
		if r != res.RunsUS[0] {
			same = false
		}
	}
	if same {
		t.Error("perturbed runs should differ")
	}
}

func TestDeterministicWithoutPerturbation(t *testing.T) {
	a := timeOf(t, piSrc(4), 4, 0)
	b := timeOf(t, piSrc(4), 4, 0)
	if a != b {
		t.Errorf("deterministic runs differ: %g vs %g", a, b)
	}
}

func TestRuntimeBoundsError(t *testing.T) {
	src := sumHdr + `X = A(100)
PRINT *, X
END`
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := ipsc.New(ipsc.DefaultConfig(4))
	_, err = Run(prog, m, Options{})
	if err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("want bounds error, got %v", err)
	}
}

func TestGridMachineMismatch(t *testing.T) {
	prog, err := compiler.Compile(piSrc(4))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := ipsc.New(ipsc.DefaultConfig(2))
	if _, err := Run(prog, m, Options{}); err == nil {
		t.Error("want mismatch error")
	}
}

func TestDoWhile(t *testing.T) {
	res := run(t, `PROGRAM p
!HPF$ PROCESSORS P(1)
X = 1.0
DO WHILE (X .LT. 100.0)
  X = X * 2.0
END DO
PRINT *, X
END`, 1)
	wantNear(t, lastPrinted(t, res), 128, 0)
}

func TestBlockStarVsStarBlockBothRun(t *testing.T) {
	mk := func(d string) string {
		return `PROGRAM lap
PARAMETER (N = 16)
REAL U(N,N), V(N,N)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N,N)
!HPF$ ALIGN U(I,J) WITH T(I,J)
!HPF$ ALIGN V(I,J) WITH T(I,J)
!HPF$ DISTRIBUTE T` + d + ` ONTO P
FORALL (I=1:N, J=1:N) U(I,J) = REAL(I+J)
FORALL (I=2:N-1, J=2:N-1) V(I,J) = 0.25*(U(I-1,J)+U(I+1,J)+U(I,J-1)+U(I,J+1))
X = V(5,5)
PRINT *, X
END`
	}
	r1 := run(t, mk("(BLOCK,*)"), 4)
	r2 := run(t, mk("(*,BLOCK)"), 4)
	v1, v2 := lastPrinted(t, r1), lastPrinted(t, r2)
	if v1 != v2 {
		t.Errorf("distribution changed the answer: %g vs %g", v1, v2)
	}
	wantNear(t, v1, 10, 1e-9)
}

// Direct unit checks of scalar evaluation semantics.
func TestIntrinsicEvalSemantics(t *testing.T) {
	cases := []struct {
		expr string
		want float64
	}{
		{"SIGN(3.0, -1.0)", -3},
		{"SIGN(-3.0, 2.0)", 3},
		{"ABS(-7)", 7},
		{"MOD(7.5, 2.0)", 1.5},
		{"MOD(-7, 3)", -1}, // Fortran MOD keeps the dividend's sign
		{"MIN(3.0, 1.0, 2.0)", 1},
		{"MAX(3, 9, 2)", 9},
		{"INT(3.9)", 3},
		{"INT(-3.9)", -3},
		{"2 ** 10", 1024},
		{"2 ** (-1)", 0}, // integer power truncates
		{"7 / 2", 3},
		{"(-7) / 2", -3}, // Fortran integer division truncates toward zero
		{"ATAN(1.0) * 4.0", math.Pi},
		{"LOG(EXP(2.0))", 2},
	}
	for _, tc := range cases {
		src := "PROGRAM e\n!HPF$ PROCESSORS P(1)\nX = " + tc.expr + "\nPRINT *, X\nEND"
		res := run(t, src, 1)
		got := lastPrinted(t, res)
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s = %g, want %g", tc.expr, got, tc.want)
		}
	}
}

func TestLogicalShortOps(t *testing.T) {
	src := `PROGRAM l
!HPF$ PROCESSORS P(1)
LOGICAL A, B, C
A = .TRUE.
B = .FALSE.
C = A .AND. .NOT. B
IF (C) THEN
  X = 1.0
ELSE
  X = 0.0
END IF
PRINT *, X
END`
	res := run(t, src, 1)
	wantNear(t, lastPrinted(t, res), 1, 0)
}

func TestUninitializedScalarReadsZero(t *testing.T) {
	res := run(t, "PROGRAM u\n!HPF$ PROCESSORS P(1)\nY = X + 1.0\nPRINT *, Y\nEND", 1)
	wantNear(t, lastPrinted(t, res), 1, 0)
}

func TestDivisionByZeroInteger(t *testing.T) {
	src := "PROGRAM z\n!HPF$ PROCESSORS P(1)\nINTEGER K\nJ = 0\nK = 5 / J\nPRINT *, K\nEND"
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := ipsc.New(ipsc.DefaultConfig(1))
	if _, err := Run(prog, m, Options{}); err == nil {
		t.Error("want integer division by zero error")
	}
}

func TestParallelRunsMatchSequential(t *testing.T) {
	prog, err := compiler.Compile(piSrc(4))
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *ipsc.Machine {
		cfg := ipsc.DefaultConfig(4)
		cfg.PerturbAmp = 0.02
		m, _ := ipsc.New(cfg)
		return m
	}
	par, err := Run(prog, mk(), Options{Runs: 6})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Run(prog, mk(), Options{Runs: 6, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range par.RunsUS {
		if par.RunsUS[i] != seq.RunsUS[i] {
			t.Fatalf("run %d differs: parallel %g vs sequential %g", i, par.RunsUS[i], seq.RunsUS[i])
		}
	}
}

// TestInternalPanicsPassThrough pins the error contract of the lowered
// closures: runtime errors come back as errors, while a panic that is not
// a runtime error reaches the caller unchanged, for the sweep layer to
// report. The programs are broken by hand after compiling: an
// out-of-range partitioning dimension, and stores and a fetch of an
// element inside the array's bounds but just off either end of its map,
// which the owner lookup's range check must still catch.
func TestInternalPanicsPassThrough(t *testing.T) {
	shrinkMap := func(_ *testing.T, prog *hir.Program) { prog.Info.Symbols["A"].Map.Dims[0].Hi = 63 }
	raiseMap := func(_ *testing.T, prog *hir.Program) { prog.Info.Symbols["A"].Map.Dims[0].Lo = 2 }
	for _, c := range []struct {
		name, body string
		breakProg  func(*testing.T, *hir.Program)
		panicText  string
	}{
		{"partitioning dimension", "FORALL (K=1:N) A(K) = REAL(K)", func(t *testing.T, prog *hir.Program) {
			for _, s := range prog.Body {
				if l, ok := s.(*hir.Loop); ok && l.Par != nil {
					l.Par = &hir.ParSpec{Array: l.Par.Array, Dim: 7, Offset: l.Par.Offset}
					return
				}
			}
			t.Fatal("no partitioned loop in the compiled program")
		}, "index out of range"},
		{"store off the map", "A(N) = 1.0", shrinkMap, "dist: global index 64 outside [1,63]"},
		{"fetch off the map", "X = A(N)", shrinkMap, "dist: global index 64 outside [1,63]"},
		{"store below the map", "A(1) = 1.0", raiseMap, "dist: global index 1 outside [2,64]"},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog, err := compiler.Compile(sumHdr + c.body + "\nEND")
			if err != nil {
				t.Fatal(err)
			}
			c.breakProg(t, prog)
			m, _ := ipsc.New(ipsc.DefaultConfig(4))
			defer func() {
				p := recover()
				if p == nil {
					t.Error("an internal panic was swallowed")
				} else if !strings.Contains(fmt.Sprint(p), c.panicText) {
					t.Errorf("panic %q, want one containing %q", p, c.panicText)
				}
			}()
			_, err = Run(prog, m, Options{})
			t.Errorf("Run returned (%v) instead of panicking", err)
		})
	}
}
