package hpfperf_test

// Golden-file tests pinning the byte-exact output of the user-facing
// artifact generators: hpfexp's Table 2 (-quick) and Figure 3, hpfpc's
// ParaGraph trace and -auto directive search, and hpftrace's Gantt and
// summary renderings. The goldens under testdata/golden/ were captured
// from the seed binaries; any change to them is a behavior change that
// must be deliberate. Regenerate with:
//
//	go test -run TestGolden -update
//
// and review the diff.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpfperf"

	"hpfperf/internal/corpus"
	"hpfperf/internal/experiments"
	"hpfperf/internal/sweep"
	"hpfperf/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v (run with -update to create)", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from golden (-want +got):\n%s", name, lineDiff(want, got))
	}
}

// lineDiff renders a small first-divergence diff; full outputs can be
// hundreds of lines and byte equality is all we assert.
func lineDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n-%s\n+%s", i+1, wl, gl)
		}
	}
	return "(no line-level difference; trailing bytes differ)"
}

func laplaceSource(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "laplace.hpf"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGoldenTable2Quick reproduces `hpfexp -table2 -quick -quiet`.
func TestGoldenTable2Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick sweep still runs the full pipeline; skipped in -short")
	}
	cfg := experiments.QuickConfig()
	cfg.Runs = 3 // hpfexp's -runs default overrides QuickConfig
	cfg.Engine = sweep.New(sweep.Options{Workers: 0})
	rows, err := experiments.Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// hpfexp prints the table with Println and then a blank Println.
	out := experiments.RenderTable2(rows) + "\n" + "\n"
	checkGolden(t, "table2_quick.txt", []byte(out))
}

// TestGoldenFigure3 reproduces `hpfexp -fig3 -quiet`.
func TestGoldenFigure3(t *testing.T) {
	out, err := experiments.Figure3(experiments.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig3.txt", []byte(out+"\n"))
}

// TestGoldenLaplaceTrace reproduces `hpfpc -trace out testdata/laplace.hpf`
// and the hpftrace renderings of the resulting ParaGraph trace.
func TestGoldenLaplaceTrace(t *testing.T) {
	prog, err := hpfperf.Compile(laplaceSource(t))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := hpfperf.Predict(prog, &hpfperf.PredictOptions{MaskDensity: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	var trc bytes.Buffer
	if err := pred.WriteTrace(&trc); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "laplace.trc", trc.Bytes())

	tr, err := trace.Parse(bytes.NewReader(trc.Bytes()))
	if err != nil {
		t.Fatalf("parse own trace: %v", err)
	}
	// hpftrace -width 72 prints the Gantt chart with fmt.Print.
	checkGolden(t, "laplace_gantt.txt", []byte(tr.Gantt(72)))

	// hpftrace -summary.
	st := tr.Summarize()
	var sum bytes.Buffer
	fmt.Fprintf(&sum, "%d processors, %0.1fus total\n", st.Procs, st.TotalUS)
	for p := 0; p < st.Procs; p++ {
		busyPct, commPct := 0.0, 0.0
		if st.TotalUS > 0 {
			busyPct = st.BusyUS[p] / st.TotalUS * 100
			commPct = st.CommUS[p] / st.TotalUS * 100
		}
		fmt.Fprintf(&sum, "  P%-3d busy %6.1fus (%5.1f%%)  comm %6.1fus (%5.1f%%)\n",
			p, st.BusyUS[p], busyPct, st.CommUS[p], commPct)
	}
	checkGolden(t, "laplace_summary.txt", sum.Bytes())
}

// TestGoldenHpfgenLU reproduces `hpfgen -seed 1 -kernel lu -predict`:
// the generated LU program (a CYCLIC(2) block-cyclic mapping) and its
// prediction profile. Pins both the generator's byte-level output and
// the predictor's numbers for a corpus-generated program.
func TestGoldenHpfgenLU(t *testing.T) {
	p := corpus.GenerateFamily(1, corpus.LU, 1)[0]
	checkGolden(t, "hpfgen_lu.hpf", []byte(p.Source))

	prog, err := hpfperf.Compile(p.Source)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := hpfperf.Predict(prog, &hpfperf.PredictOptions{MaskDensity: p.MaskDensity()})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "hpfgen_lu_profile.txt", []byte(pred.Profile()))
}

// TestGoldenAutotuneLaplace reproduces `hpfpc -auto 4 testdata/laplace.hpf`.
func TestGoldenAutotuneLaplace(t *testing.T) {
	opts := &hpfperf.PredictOptions{MaskDensity: 1.0}
	cands, err := hpfperf.AutoDistribute(laplaceSource(t), 4,
		&hpfperf.AutoDistributeOptions{Predict: opts})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "directive search for %d processors:\n", 4)
	for i, c := range cands {
		if c.Err != nil {
			continue
		}
		marker := "  "
		if i == 0 {
			marker = "=>"
		}
		fmt.Fprintf(&out, "%s %-44s %12.3fms\n", marker, c.Desc, c.EstUS/1e3)
	}
	checkGolden(t, "autotune_laplace.txt", out.Bytes())
}
