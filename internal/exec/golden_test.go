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
	"hpfperf/internal/ipsc"
	"hpfperf/internal/suite"
)

var update = flag.Bool("update", false, "rewrite the executor golden with current output")

const goldenPath = "testdata/results.golden"

// goldenCase is one pinned execution.
type goldenCase struct {
	name string
	src  string
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
