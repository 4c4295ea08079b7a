package exec_test

// Strips must not change what a run computes: every program runs with
// strips on and off and must render the same result or error, bit for
// bit (see golden_test.go for the rendering).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"hpfperf/internal/ast"
	"hpfperf/internal/compiler"
	"hpfperf/internal/corpus"
	"hpfperf/internal/exec"
	"hpfperf/internal/faults"
	"hpfperf/internal/hir"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/sem"
	"hpfperf/internal/suite"
)

// stripCases are the golden cases, a larger corpus sample, and every suite
// program at its first two sizes on each processor count it declares
// among 1, 2, 4 and 8.
func stripCases() []goldenCase {
	cases := goldenCases()
	for _, pr := range corpus.Generate(7, 120) {
		cases = append(cases, goldenCase{
			name: "corpus " + pr.Name,
			src:  pr.Source,
			cfg:  machineConfig(pr.Procs, 0, 0, true),
			opts: exec.Options{Runs: 1},
		})
	}
	for _, p := range suite.All() {
		for _, size := range p.Sizes[:min(2, len(p.Sizes))] {
			for _, np := range p.Procs {
				if np != 1 && np != 2 && np != 4 && np != 8 {
					continue
				}
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("suite %s n=%d p=%d", p.Name, size, np),
					src:  p.Source(size, np),
					cfg:  machineConfig(np, 0.01, 2, true),
					opts: exec.Options{Runs: 1},
				})
			}
		}
	}
	return cases
}

// stripEdges are loops whose index wraps around or jumps by more than an
// array's extent, subscripts that subtract or repeat terms, a store off
// its array's map, and a scalar that holds another kind than the
// reference reading it.
var stripEdges = []goldenCase{
	{name: "edge wrapping index", cfg: machineConfig(1, 0.01, 2, true), opts: exec.Options{MaxSteps: 5000}, src: `PROGRAM e
!HPF$ PROCESSORS P(1)
REAL A(20)
DO I = 9223372036854775800, 9223372036854775807
  A(I - 9223372036854775799) = 1.0 + A(I - 9223372036854775799)
END DO
END`},
	{name: "edge huge step", cfg: machineConfig(1, 0.01, 2, true), opts: exec.Options{MaxSteps: 5000}, src: `PROGRAM e
!HPF$ PROCESSORS P(1)
REAL A(10), B(10)
FORALL (I=1:10) A(I) = REAL(I)
DO I = -9223372036854775807, 9223372036854775807, 9223372036854775807
  B(1) = A(I - 9223372036854775804)
END DO
END`},
	{name: "edge scalar differences", cfg: machineConfig(2, 0.01, 2, true), src: `PROGRAM e
PARAMETER (N = 90)
REAL A(N), B(N)
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
!HPF$ DISTRIBUTE B(BLOCK) ONTO P
FORALL (I=1:N) A(I) = REAL(I)
K = 5
DO I = 10, N
  B(I-K) = A(K+I-K) - A(I-K) + 1.0
END DO
DO I = 10, N
  B(I-K) = A(I+1-1)
END DO
DO I = 1, 40
  B(I) = A(50-I) + A(I+I)
END DO
DO I = 1, 4
  B(I) = A(K-I)
END DO
S = SUM(B)
PRINT *, S
END`},
	{name: "edge store off its map", cfg: machineConfig(2, 0.01, 2, true), src: `PROGRAM e
PARAMETER (N = 10)
REAL A(N), B(N)
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
FORALL (I=1:N) B(I) = REAL(I)
DO I = 1, N
  A(I) = B(I+1)
END DO
END`,
		// A(N) lies outside A's map, and B(N+1) outside B: the read fails
		// before the store looks for its owner.
		edit: func(prog *hir.Program) { prog.Info.ArrayMap("A").Dims[0].Hi = 9 }},
	{name: "edge scalar kind", cfg: machineConfig(2, 0.01, 2, true), src: `PROGRAM e
PARAMETER (N = 90)
REAL A(N)
INTEGER L
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
L = -9223372036854775807 - 1
FORALL (I=1:N) A(I) = ABS(L) + 0.5*L
S = SUM(A)
PRINT *, S
END`,
		// The right-hand side's references to L read REAL, while L holds
		// an INTEGER.
		edit: func(prog *hir.Program) {
			var retype func(e hir.Expr)
			retype = func(e hir.Expr) {
				switch x := e.(type) {
				case *hir.Ref:
					x.Typ = ast.TReal
				case *hir.Bin:
					retype(x.X)
					retype(x.Y)
				case *hir.Intr:
					retype(x.Args[0])
				}
			}
			loop := prog.Body[1].(*hir.Loop)
			retype(loop.Body[0].(*hir.Assign).Rhs)
		}},
}

// withStrips runs f with strips on or off and returns the assignment
// counts f's runs made.
func withStrips(on bool, f func()) (strip, elem int64) {
	counts, restore := exec.StripTest(on)
	defer restore()
	f()
	return counts()
}

// sameWithStrips runs c with strips on and off and fails t when the two
// render differently.
func sameWithStrips(t *testing.T, c goldenCase) {
	t.Helper()
	var on, off bytes.Buffer
	withStrips(true, func() {
		res, err := runCase(t, c)
		render(&on, c.name, res, err)
	})
	withStrips(false, func() {
		res, err := runCase(t, c)
		render(&off, c.name, res, err)
	})
	if !bytes.Equal(on.Bytes(), off.Bytes()) {
		t.Errorf("strips change the result of %s:\non:\n%s\noff:\n%s", c.name, on.String(), off.String())
	}
}

func TestStripsMatchPerElement(t *testing.T) {
	for _, c := range append(stripCases(), stripEdges...) {
		sameWithStrips(t, c)
	}

	laplace := goldenCase{
		name: "Laplace (Blk-Blk) n=64 p=4",
		src:  suite.LaplaceBB().Source(64, 4),
		cfg:  machineConfig(4, 0.01, 2, true),
		opts: exec.Options{Runs: 1},
	}
	t.Run("coverage", func(t *testing.T) {
		strip, elem := withStrips(true, func() {
			if _, err := runCase(t, laplace); err != nil {
				t.Fatal(err)
			}
		})
		if strip < 9*(strip+elem)/10 {
			t.Errorf("strips ran %d of %d assignments of %s, want at least 90%%", strip, strip+elem, laplace.name)
		}
		if _, total := withStrips(false, func() { runCase(t, laplace) }); total != strip+elem {
			t.Errorf("with strips off, %d assignments ran one at a time, want %d", total, strip+elem)
		}
		t.Logf("%s: strips ran %d of %d assignments", laplace.name, strip, strip+elem)
	})

	t.Run("budget", func(t *testing.T) {
		// The step budget runs out at every step of two qualifying loops,
		// at a strip's ends and in its middle alike.
		c := goldenCase{src: `PROGRAM b
PARAMETER (N = 100)
REAL A(N), B(N)
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
!HPF$ DISTRIBUTE B(BLOCK) ONTO P
FORALL (I=1:N) A(I) = REAL(I)
FORALL (I=N:1:-1) B(I) = 2.0 * A(I)
END`, cfg: machineConfig(2, 0.01, 2, true)}
		for c.opts.MaxSteps = 1; c.opts.MaxSteps <= 410; c.opts.MaxSteps++ {
			c.name = fmt.Sprintf("budget %d", c.opts.MaxSteps)
			sameWithStrips(t, c)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		prog, err := compiler.Compile(laplace.src)
		if err != nil {
			t.Fatal(err)
		}
		var calls [2]int64
		for k, on := range []bool{true, false} {
			ctx := &cancelAfter{Context: context.Background()}
			ctx.left.Store(20)
			withStrips(on, func() {
				m, err := ipsc.New(laplace.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := exec.RunContext(ctx, prog, m, laplace.opts); !errors.Is(err, context.Canceled) {
					t.Errorf("strips %v: run returned %v, want %v", on, err, context.Canceled)
				}
			})
			calls[k] = ctx.calls.Load()
		}
		if calls[0] != calls[1] {
			t.Errorf("the run checked its context %d times with strips and %d without", calls[0], calls[1])
		}
		t.Logf("%s: cancelled at check %d", laplace.name, calls[0])
	})

	t.Run("faults", func(t *testing.T) {
		var errs [2]string
		var stats [2][]faults.SiteStats
		for k, on := range []bool{true, false} {
			inj := faults.New(11)
			if err := inj.Add(faults.Rule{Site: faults.SiteExec, Rate: 0.02}); err != nil {
				t.Fatal(err)
			}
			faults.Activate(inj)
			withStrips(on, func() {
				_, err := runCase(t, laplace)
				if err == nil {
					t.Fatalf("strips %v: no injected fault ended the run", on)
				}
				errs[k] = err.Error()
			})
			faults.Deactivate()
			stats[k] = inj.Stats()
		}
		if errs[0] != errs[1] {
			t.Errorf("with strips the run failed with %q, without with %q", errs[0], errs[1])
		}
		if fmt.Sprint(stats[0]) != fmt.Sprint(stats[1]) {
			t.Errorf("fault rules with strips %v, without %v", stats[0], stats[1])
		}
		t.Logf("%s: %s after %+v", laplace.name, errs[0], stats[0])
	})
}

// cancelAfter is a context that reports itself cancelled once Err has
// been called left times, and counts the calls.
type cancelAfter struct {
	context.Context
	left, calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	c.calls.Add(1)
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// fuzzMaxElems bounds the storage of a fuzzed program, whose statements
// may copy whole arrays at every step.
const fuzzMaxElems = 1 << 16

// FuzzExecStrips runs every input that compiles onto at most 8
// processors with strips on and off; both runs must render the same,
// errors and panics included.
func FuzzExecStrips(f *testing.F) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.hpf"))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatalf("seed %s: %v", p, err)
		}
		f.Add(string(b))
	}
	for _, p := range suite.All() {
		f.Add(p.Source(p.Sizes[0], p.Procs[0]))
	}
	for _, o := range ownerPrograms {
		f.Add(o.src)
	}
	for _, e := range errorPrograms {
		f.Add(e.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := compiler.Compile(src)
		if err != nil || prog.Info.Grid.Size() > 8 {
			return
		}
		elems := 0
		for _, sym := range prog.Info.Symbols {
			if sym.Kind == sem.SymArray {
				elems += sym.Elems()
			}
		}
		if elems > fuzzMaxElems {
			return
		}
		on, off := fuzzRun(t, prog, true), fuzzRun(t, prog, false)
		if on != off {
			t.Fatalf("strips change the run:\non:\n%s\noff:\n%s", on, off)
		}
	})
}

// fuzzRun renders one run of prog, or the panic that ended it.
func fuzzRun(t *testing.T, prog *hir.Program, strips bool) (out string) {
	defer func() {
		if p := recover(); p != nil {
			out = fmt.Sprintf("panic %v", p)
		}
	}()
	m, err := ipsc.New(ipsc.DefaultConfig(prog.Info.Grid.Size()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	withStrips(strips, func() {
		res, err := exec.Run(prog, m, exec.Options{MaxSteps: 200_000})
		render(&b, "fuzz", res, err)
	})
	return b.String()
}
