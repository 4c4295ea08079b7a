package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"hpfperf/internal/suite"
	"hpfperf/internal/sweep"
)

func TestEstimateAndMeasure(t *testing.T) {
	src := suite.PI().Source(512, 4)
	est, meas, err := EstimateAndMeasure(src, QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 || meas <= 0 {
		t.Fatalf("est=%g meas=%g", est, meas)
	}
}

func TestTable2RowQuick(t *testing.T) {
	row, err := Table2Row(suite.PI(), QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Points) != 4 { // 2 sizes × 2 proc counts
		t.Fatalf("points = %d", len(row.Points))
	}
	if row.MaxErrPct() > 25 {
		t.Errorf("PI max error %.1f%% exceeds the paper's worst case band", row.MaxErrPct())
	}
	if row.MinErrPct() > row.MaxErrPct() {
		t.Error("min > max")
	}
}

func TestTable2AccuracyBandsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite sweep in -short mode")
	}
	cfg := QuickConfig()
	rows, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d", len(rows))
	}
	worst := 0.0
	worstName := ""
	for _, r := range rows {
		if e := r.MaxErrPct(); e > worst {
			worst, worstName = e, r.Name
		}
	}
	// Paper: "in the worst case, the interpreted performance is within 20%
	// of the measured value".
	if worst > 30 {
		t.Errorf("worst-case error %.1f%% (%s) far outside the paper's band", worst, worstName)
	}
	text := RenderTable2(rows)
	if !strings.Contains(text, "LFK 1") || !strings.Contains(text, "Max Abs Error") {
		t.Errorf("table rendering incomplete:\n%s", text)
	}
}

func TestErrPctDivergentZeroMeasurement(t *testing.T) {
	// A prediction that diverges from a zero measurement is unboundedly
	// wrong — it must not be reported as a perfect 0%.
	p := AccuracyPoint{EstUS: 42, MeasUS: 0}
	if e := p.ErrPct(); !math.IsInf(e, 1) {
		t.Errorf("ErrPct = %g, want +Inf", e)
	}
	// Agreeing on zero really is a perfect prediction.
	if e := (AccuracyPoint{}).ErrPct(); e != 0 {
		t.Errorf("ErrPct of 0/0 = %g, want 0", e)
	}
}

func TestEmptyRowDistinguishableFromPerfect(t *testing.T) {
	empty := AccuracyRow{Name: "empty"}
	if e := empty.MinErrPct(); !math.IsNaN(e) {
		t.Errorf("empty MinErrPct = %g, want NaN", e)
	}
	if e := empty.MaxErrPct(); !math.IsNaN(e) {
		t.Errorf("empty MaxErrPct = %g, want NaN", e)
	}
	divergent := AccuracyRow{Name: "divergent", Points: []AccuracyPoint{{EstUS: 1, MeasUS: 0}}}
	txt := RenderTable2([]AccuracyRow{empty, divergent})
	if !strings.Contains(txt, "n/a") {
		t.Errorf("empty row not rendered as n/a:\n%s", txt)
	}
	if !strings.Contains(txt, ">100%") {
		t.Errorf("divergent point not rendered as >100%%:\n%s", txt)
	}
	if strings.Contains(txt, "NaN") || strings.Contains(txt, "Inf") {
		t.Errorf("raw float sentinels leaked into the table:\n%s", txt)
	}
}

func TestQuickSweepRespectsDeclaredProcs(t *testing.T) {
	// Quick mode must intersect {1, 4} with the program's declared
	// system sizes, never invent an undeclared one.
	base := suite.PI()
	onlyOne := &suite.Program{Name: "only-1", Sizes: []int{128}, Procs: []int{1, 2}, Source: base.Source}
	row, err := Table2Row(onlyOne, QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Points) != 1 || row.Points[0].Procs != 1 {
		t.Fatalf("points = %+v, want single sweep at declared 1 proc", row.Points)
	}

	// A program declaring neither 1 nor 4 falls back to its own list.
	noQuick := &suite.Program{Name: "no-quick", Sizes: []int{128}, Procs: []int{2, 8}, Source: base.Source}
	row, err = Table2Row(noQuick, QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(row.Points))
	}
	for _, pt := range row.Points {
		if pt.Procs != 2 && pt.Procs != 8 {
			t.Errorf("swept at undeclared system size %d", pt.Procs)
		}
	}
}

// TestTable2ConcurrentLogWriters drives the full flattened point grid
// with every point logging to one shared writer; under `go test -race`
// this verifies the sweep engine's concurrent points serialize their
// log output.
func TestTable2ConcurrentLogWriters(t *testing.T) {
	var buf bytes.Buffer
	cfg := QuickConfig()
	cfg.Log = &buf
	cfg.Engine = sweep.New(sweep.Options{Workers: 8})
	rows, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d", len(rows))
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	want := 0
	for _, r := range rows {
		want += len(r.Points)
	}
	if len(lines) != want {
		t.Errorf("log lines = %d, want one per point (%d)", len(lines), want)
	}
	for _, line := range lines {
		if !strings.Contains(line, "est=") || !strings.Contains(line, "meas=") {
			t.Errorf("interleaved/corrupt log line: %q", line)
		}
	}
}

// TestSweepCacheReuseAcrossFigures asserts Figure 8 is served from the
// programs Figures 4/5 already compiled on a shared engine.
func TestSweepCacheReuseAcrossFigures(t *testing.T) {
	cfg := QuickConfig()
	cfg.Engine = sweep.New(sweep.Options{})
	if _, err := Figure45(4, cfg); err != nil {
		t.Fatal(err)
	}
	compilesAfter45 := cfg.Engine.Snapshot().Compiles
	if _, err := Figure8(cfg); err != nil {
		t.Fatal(err)
	}
	snap := cfg.Engine.Snapshot()
	if snap.Compiles != compilesAfter45 {
		t.Errorf("Figure 8 recompiled: %d -> %d compiles, want all cache hits",
			compilesAfter45, snap.Compiles)
	}
	if snap.CompileHits == 0 {
		t.Error("no compile-cache hits across figures")
	}
}

func TestFigure3(t *testing.T) {
	out, err := Figure3(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"(Block,Block)", "(Block,*)", "(*,Block)"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 3 missing %s", want)
		}
	}
	// The (Block,Block) picture must show 4 distinct owners.
	if !strings.Contains(out, " 3 ") {
		t.Error("figure 3 should show processor 3 owning a tile")
	}
}

// TestFigure3CompilesOnConfigEngine checks that Figure 3 compiles its
// three Laplace variants on cfg.Engine, so the run's engine statistics
// and cache see them, rather than on the process-wide engine.
func TestFigure3CompilesOnConfigEngine(t *testing.T) {
	cfg := QuickConfig()
	cfg.Engine = sweep.New(sweep.Options{})
	if _, err := Figure3(cfg); err != nil {
		t.Fatal(err)
	}
	if n := cfg.Engine.Snapshot().Compiles; n != 3 {
		t.Errorf("cfg.Engine compiled %d programs, want 3", n)
	}
}

func TestFigure45Quick(t *testing.T) {
	series, err := Figure45(4, QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 { // 3 variants × (estimated + measured)
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		for i, v := range s.TimeUS {
			if v <= 0 {
				t.Errorf("%s %s size %d: nonpositive time", s.Kind, s.Label, s.Sizes[i])
			}
		}
		// Times must grow with the problem size.
		if s.TimeUS[len(s.TimeUS)-1] <= s.TimeUS[0] {
			t.Errorf("%s %s: no growth across sizes", s.Kind, s.Label)
		}
	}
	txt := RenderFigure45(4, 4, series)
	if !strings.Contains(txt, "Figure 4") {
		t.Error("render missing title")
	}
}

func TestFigure45EstimatesTrackMeasurements(t *testing.T) {
	series, err := Figure45(4, QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Pair estimated/measured per variant and check the relative error at
	// the largest size (the paper reports <1% for Laplace; we accept a
	// wider simulator band).
	for i := 0; i < len(series); i += 2 {
		est := series[i]
		mea := series[i+1]
		last := len(est.TimeUS) - 1
		e := est.TimeUS[last]
		m := mea.TimeUS[last]
		if d := abs(e-m) / m * 100; d > 15 {
			t.Errorf("%s: est %.0f vs meas %.0f (%.1f%%)", est.Label, e, m, d)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestFigure7PhaseShape(t *testing.T) {
	phases, err := Figure7(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 {
		t.Fatalf("phases = %d", len(phases))
	}
	p1, p2 := phases[0].Metrics, phases[1].Metrics
	// Figure 6/7 structure: Phase 1 communicates (shift); Phase 2 does not.
	if p1.CommUS <= 0 {
		t.Error("phase 1 should include shift communication")
	}
	if p2.CommUS != 0 {
		t.Errorf("phase 2 should be communication-free, got %.1fus", p2.CommUS)
	}
	if p2.CompUS <= 0 {
		t.Error("phase 2 should compute call prices")
	}
	txt := RenderFigure7(phases)
	if !strings.Contains(txt, "Phase 1") || !strings.Contains(txt, "Phase 2") {
		t.Error("render missing phases")
	}
}

// TestFigure7HonorsContext checks that Figure 7 interprets under
// cfg.Ctx: a cancelled experiment run stops instead of rendering the
// profile.
func TestFigure7HonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := QuickConfig()
	cfg.Engine = sweep.New(sweep.Options{})
	cfg.Ctx = ctx
	if _, err := Figure7(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("Figure7 under a cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestFigure8Shape(t *testing.T) {
	times, err := Figure8(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Fatalf("variants = %d", len(times))
	}
	for _, e := range times {
		// §5.3: the interpretive approach is significantly more
		// cost-effective than measurement on the shared machine.
		if e.InterpreterMin >= e.IPSCMin {
			t.Errorf("%s: interpreter %.1fmin not cheaper than iPSC %.1fmin",
				e.Impl, e.InterpreterMin, e.IPSCMin)
		}
	}
	txt := RenderFigure8(times)
	if !strings.Contains(txt, "Figure 8") {
		t.Error("render missing title")
	}
}

func TestAblations(t *testing.T) {
	rows, err := Ablations(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("ablation rows = %d", len(rows))
	}
	for _, r := range rows {
		// Every ablation must make the model measurably worse.
		if abs(r.VariantErr) <= abs(r.DefaultErr) {
			t.Errorf("%s: ablated %.1f%% not worse than default %.1f%%",
				r.Name, r.VariantErr, r.DefaultErr)
		}
	}
	txt := RenderAblations(rows)
	if !strings.Contains(txt, "memory model") {
		t.Error("render incomplete")
	}
}
