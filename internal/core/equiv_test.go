package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hpfperf/internal/compiler"
	"hpfperf/internal/sem"
	"hpfperf/internal/suite"
)

// The differential equivalence suite: the closure-compiled prediction
// core must produce exactly — bit for bit — the report the reference
// tree-walking interpreter produces, across every program we can get our
// hands on (testdata, the paper's validation suite, the fuzz corpora,
// randomized control-flow programs) and across repeated evaluations of
// one compiled form. InterpretTree is the reference implementation;
// Interpret takes the compiled path.

// diffOne asserts tree-walking and compiled interpretation of src agree
// exactly — same report or same error — and reports whether the pair
// actually ran. Sources that do not compile are skipped (fuzz corpora
// contain plenty).
func diffOne(t *testing.T, name, src string, opts Options) bool {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		return false
	}
	itTree, err := New(prog, nil, opts)
	if err != nil {
		return false
	}
	treeRep, treeErr := itTree.InterpretTree()

	itComp, err := New(prog, nil, opts)
	if err != nil {
		t.Fatalf("%s: second New failed where first succeeded: %v", name, err)
	}
	compRep, compErr := itComp.Interpret()

	if (treeErr == nil) != (compErr == nil) {
		t.Fatalf("%s: error divergence: tree=%v compiled=%v", name, treeErr, compErr)
	}
	if treeErr != nil {
		if treeErr.Error() != compErr.Error() {
			t.Fatalf("%s: error text divergence:\n tree:     %v\n compiled: %v", name, treeErr, compErr)
		}
		return true
	}
	if d := DiffReports(treeRep, compRep); d != "" {
		t.Fatalf("%s: report divergence: %s", name, d)
	}
	return true
}

// equivOptionVariants are the interpretation configurations every
// program is differentially tested under.
func equivOptionVariants() map[string]Options {
	trips := make(map[int]int)
	for l := 1; l <= 400; l++ {
		trips[l] = 7
	}
	ablation := Options{
		MemoryModel:     false,
		LoadModel:       Average,
		MaskDensity:     0.3,
		BranchProb:      0.7,
		TripCounts:      trips,
		SimpleCommModel: true,
	}
	pinned := DefaultOptions()
	pinned.Values = map[string]sem.Value{
		"N": sem.IntVal(12), "M": sem.IntVal(5), "ITERS": sem.IntVal(4), "NITER": sem.IntVal(3),
	}
	pinned.TripCounts = map[int]int{}
	for l := 1; l <= 400; l++ {
		pinned.TripCounts[l] = 3
	}
	return map[string]Options{
		"default":  DefaultOptions(),
		"ablation": ablation,
		"pinned":   pinned,
	}
}

func TestEquivTestdataPrograms(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.hpf"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	variants := equivOptionVariants()
	ran := 0
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for vn, opts := range variants {
			if diffOne(t, filepath.Base(f)+"/"+vn, string(b), opts) {
				ran++
			}
		}
	}
	if ran < len(files) {
		t.Errorf("only %d of %d testdata programs x variants ran", ran, len(files)*len(variants))
	}
}

func TestEquivSuitePrograms(t *testing.T) {
	variants := equivOptionVariants()
	for _, p := range suite.All() {
		sizes := []int{p.Sizes[0], p.Sizes[len(p.Sizes)-1]}
		procs := []int{p.Procs[0], p.Procs[len(p.Procs)-1]}
		for _, n := range sizes {
			for _, np := range procs {
				src := p.Source(n, np)
				for vn, opts := range variants {
					diffOne(t, fmt.Sprintf("%s/n%d/p%d/%s", p.Name, n, np, vn), src, opts)
				}
			}
		}
	}
}

// TestEquivFuzzCorpus replays the committed compiler fuzz corpus (go
// fuzz v1 format) through both engines.
func TestEquivFuzzCorpus(t *testing.T) {
	files, _ := filepath.Glob(filepath.Join("..", "compiler", "testdata", "fuzz", "FuzzCompile", "*"))
	if len(files) == 0 {
		t.Skip("no compiler fuzz corpus present")
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") || !strings.HasSuffix(line, ")") {
				continue
			}
			src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
			if err != nil {
				continue
			}
			diffOne(t, filepath.Base(f), src, DefaultOptions())
		}
	}
}

// randomControlProgram generates a random program with loops (resolved,
// pinned and runtime-bounded), scalar and elemental conditionals,
// distributed FORALLs and reductions — the control-flow shapes whose
// interpretation paths the straight-line cross-validation generator
// never exercises.
func randomControlProgram(rng *rand.Rand, trial int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "PROGRAM chaos%d\n", trial)
	fmt.Fprintf(&b, "REAL A(%d), B(%d)\n", 32+16*rng.Intn(4), 64)
	b.WriteString("!HPF$ PROCESSORS P(4)\n!HPF$ DISTRIBUTE A(BLOCK) ONTO P\n")
	if rng.Intn(2) == 0 {
		b.WriteString("!HPF$ DISTRIBUTE B(CYCLIC) ONTO P\n")
	}
	// A mix of resolvable and runtime-valued scalars.
	fmt.Fprintf(&b, "N = %d\n", 2+rng.Intn(9))
	b.WriteString("S = SUM(A)\n")
	if rng.Intn(2) == 0 {
		b.WriteString("M = N * 2\n")
	} else {
		b.WriteString("M = S\n") // runtime-dependent: unresolvable
	}
	nest := 1 + rng.Intn(2)
	for d := 0; d < nest; d++ {
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&b, "DO I%d = 1, %d\n", d, 2+rng.Intn(6))
		case 1:
			fmt.Fprintf(&b, "DO I%d = 1, N\n", d)
		default:
			fmt.Fprintf(&b, "DO I%d = 1, M\n", d) // may need TripCounts
		}
	}
	b.WriteString("X = X + 1.5\n")
	if rng.Intn(2) == 0 {
		b.WriteString("IF (S .GT. 1.0) THEN\nY = 1.0\nELSE\nY = 2.0\nN = 4\nENDIF\n")
	}
	if rng.Intn(2) == 0 {
		b.WriteString("FORALL (K=2:31) A(K) = A(K-1) * 0.5\n")
	}
	for d := nest - 1; d >= 0; d-- {
		b.WriteString("ENDDO\n")
	}
	if rng.Intn(2) == 0 {
		b.WriteString("IF (N .GT. 3) THEN\nZ = N * 1.0\nENDIF\n")
	}
	b.WriteString("R = SUM(A)\nPRINT *, R\nEND\n")
	return b.String()
}

// TestEquivRandomPrograms is the chaos leg of the differential suite:
// seeded random control-flow programs under every option variant.
func TestEquivRandomPrograms(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	variants := equivOptionVariants()
	rng := rand.New(rand.NewSource(1994))
	ran := 0
	for trial := 0; trial < trials; trial++ {
		src := randomControlProgram(rng, trial)
		for vn, opts := range variants {
			if diffOne(t, fmt.Sprintf("chaos%d/%s", trial, vn), src, opts) {
				ran++
			}
		}
	}
	if ran < trials {
		t.Errorf("only %d of %d chaos program x variant pairs ran — generator emits uncompilable sources", ran, trials*len(variants))
	}
	// The straight-line cross-validation generator, too.
	for trial := 0; trial < trials; trial++ {
		src, _ := randomScalarProgram(rng, 1000+trial)
		diffOne(t, fmt.Sprintf("scalar%d", trial), src, DefaultOptions())
	}
}

// incrementalSrc has two independent sweeps over distinct critical
// variables, so a sweep can vary one while the other stays fixed.
const incrementalSrc = `PROGRAM inc
REAL A(256)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
DO I = 1, N
FORALL (K=1:256) A(K) = A(K) * 1.5
ENDDO
DO J = 1, M
X = X + 2.0
ENDDO
S = SUM(A)
PRINT *, S
END`

// TestEquivIncrementalMemo drives one compiled form's EvaluateWith across
// a sweep of critical-variable points, including repeats, and checks
// every point against a fresh tree-walking run.
func TestEquivIncrementalMemo(t *testing.T) {
	prog, err := compiler.Compile(incrementalSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompilePrediction(context.Background(), prog, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	points := [][2]int64{{5, 5}, {5, 6}, {9, 6}, {5, 5}, {9, 6}, {2, 11}, {5, 6}}
	for i, pt := range points {
		values := map[string]sem.Value{"N": sem.IntVal(pt[0]), "M": sem.IntVal(pt[1])}
		got, err := c.EvaluateWith(context.Background(), values, nil)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		opts := DefaultOptions()
		opts.Values = values
		itTree, err := New(prog, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := itTree.InterpretTree()
		if err != nil {
			t.Fatalf("point %d tree: %v", i, err)
		}
		if d := DiffReports(want, got); d != "" {
			t.Fatalf("point %d (N=%d M=%d): %s", i, pt[0], pt[1], d)
		}
	}
}

// TestEquivConcurrentEvaluate exercises concurrent evaluations of one
// Compiled (the sweep engine's sharing pattern) under -race.
func TestEquivConcurrentEvaluate(t *testing.T) {
	prog, err := compiler.Compile(incrementalSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompilePrediction(context.Background(), prog, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[int]float64)
	for n := 1; n <= 4; n++ {
		values := map[string]sem.Value{"N": sem.IntVal(int64(n)), "M": sem.IntVal(3)}
		rep, err := c.EvaluateWith(context.Background(), values, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref[n] = rep.TotalUS()
	}
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			n := g%4 + 1
			values := map[string]sem.Value{"N": sem.IntVal(int64(n)), "M": sem.IntVal(3)}
			rep, err := c.EvaluateWith(context.Background(), values, nil)
			if err == nil && rep.TotalUS() != ref[n] {
				err = fmt.Errorf("goroutine %d: total %v != %v", g, rep.TotalUS(), ref[n])
			}
			done <- err
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}
