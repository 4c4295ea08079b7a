package core_test

// The span-structure golden pins the interp.<kind> spans a traced
// Interpreter.Interpret emits: for each program, the depth, name and
// line attribute of every span in creation order, plus the error text
// when the run fails part way. A trace is only useful if it describes
// the engine that served the request, so whichever engine serves
// predictions must reproduce this structure exactly. Regenerate only
// when the SAAG itself changes, never together with an engine change:
//
//	go test ./internal/core -run TestInterpSpanGolden -update

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/corpus"
	"hpfperf/internal/obs"
	"hpfperf/internal/sem"
)

var update = flag.Bool("update", false, "rewrite the span-structure golden with current output")

const spanGoldenPath = "testdata/interp_spans.golden"

// whileNoTrips fails at its DO WHILE (no trip count is supplied), after
// the enclosing loop's earlier children have been interpreted.
const whileNoTrips = `PROGRAM whilerr
REAL A(64)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
X = 1.0
DO I = 1, 4
  FORALL (K=1:64) A(K) = A(K) * 0.5
  DO WHILE (X .LT. 100.0)
    X = X * 2.0
  END DO
  Y = 2.0
END DO
S = SUM(A)
PRINT *, S
END`

type spanCase struct {
	name string
	src  string
	opts core.Options
}

func spanCases(t *testing.T) []spanCase {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.hpf"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	var out []spanCase
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		if filepath.Base(f) == "lint.hpf" {
			// The values the hpflint hints for this file ask for.
			opts.Values = map[string]sem.Value{"LIM": sem.IntVal(0)}
			opts.TripCounts = map[int]int{37: 7}
		}
		out = append(out, spanCase{name: "testdata/" + filepath.Base(f), src: string(b), opts: opts})
	}
	for _, p := range corpus.Generate(1, 12) {
		opts := core.DefaultOptions()
		opts.MaskDensity = p.MaskDensity()
		out = append(out, spanCase{name: "corpus/" + p.Name, src: p.Source, opts: opts})
	}
	return append(out, spanCase{name: "while-no-trips", src: whileNoTrips, opts: core.DefaultOptions()})
}

// renderSpans runs one traced interpretation and writes its interp.*
// span sequence (and error, if any) to w.
func renderSpans(t *testing.T, w *bytes.Buffer, c spanCase) {
	t.Helper()
	prog, err := compiler.Compile(c.src)
	if err != nil {
		t.Fatalf("%s: compile: %v", c.name, err)
	}
	tr := obs.NewTracer(obs.NewTraceID())
	root := tr.Root("test")
	ctx := obs.ContextWithSpan(context.Background(), root)
	it, err := core.NewContext(ctx, prog, nil, c.opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	_, ierr := it.Interpret()
	root.End()
	tree := tr.Tree()
	if tree.Orphans != 0 {
		t.Errorf("%s: %d orphan spans", c.name, tree.Orphans)
	}
	fmt.Fprintf(w, "== %s\n", c.name)
	tree.Root.Walk(func(depth int, n *obs.Node) {
		if !strings.HasPrefix(n.Name, "interp.") {
			return
		}
		line := n.Attrs["line"]
		if line == "" {
			line = "-"
		}
		fmt.Fprintf(w, "%d %s %s\n", depth, n.Name, line)
	})
	if ierr != nil {
		fmt.Fprintf(w, "error: %v\n", ierr)
	}
}

func TestInterpSpanGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range spanCases(t) {
		renderSpans(t, &got, c)
	}
	path := filepath.FromSlash(spanGoldenPath)
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
			t.Fatalf("%s differs first at line %d:\n-%s\n+%s", spanGoldenPath, i+1, wl, gl)
		}
	}
}
