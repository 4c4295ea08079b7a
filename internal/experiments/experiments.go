// Package experiments regenerates every table and figure of the paper's
// evaluation section (§5):
//
//	Table 1  — the validation application set (package suite)
//	Table 2  — accuracy: min/max absolute error between estimated and
//	           measured times over problem and system sizes
//	Figure 3 — the three Laplace data decompositions
//	Figure 4 — Laplace estimated/measured times on 4 processors
//	Figure 5 — Laplace estimated/measured times on 8 processors
//	Figure 7 — interpreted per-phase profile of the stock option pricing
//	           model (with Figure 6's phase structure)
//	Figure 8 — experimentation time: interpreter vs. iPSC/860 measurement
//
// "Measured" times come from executing the compiled SPMD program on the
// simulated iPSC/860 (packages exec and ipsc); "estimated" times come
// from the interpretation engine (package core).
//
// Every sweep flattens its (program × size × procs) point grid onto the
// shared worker pool of package sweep, so points of different programs
// evaluate concurrently while rows and curves come back in their
// deterministic order, and repeated sources (Figure 8 reuses the
// Laplace programs of Figures 4/5) hit the compile/prediction cache.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sync"

	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/report"
	"hpfperf/internal/suite"
	"hpfperf/internal/sweep"
)

// Config controls experiment execution.
type Config struct {
	// Quick restricts sweeps to a small subset (for tests and smoke runs).
	Quick bool
	// Runs is the number of perturbed measured runs to average
	// (the paper averaged 1000; the deterministic simulator converges with
	// a handful). Default 3.
	Runs int
	// Perturb enables measured-run load fluctuation. Default true via
	// DefaultConfig.
	Perturb float64
	// Log receives progress output (may be nil). Sweep points log
	// concurrently; writes are serialized by the package.
	Log io.Writer
	// Engine runs the sweep points; nil uses the process-wide shared
	// engine (sweep.Default()), whose cache lets later figures reuse
	// programs compiled by earlier ones.
	Engine *sweep.Engine
	// Ctx, when non-nil, flows into every sweep point: it carries
	// cancellation and, when it holds an obs span, traces each
	// artifact's compiles and interpretations (hpfexp -trace-out).
	Ctx context.Context
	// CheckpointDir, when non-empty, makes each sweep record completed
	// points to <dir>/<artifact>.ckpt so a killed run resumes from
	// where it stopped; point evaluation is deterministic, so a resumed
	// run renders byte-identical output. The file is removed when the
	// sweep completes.
	CheckpointDir string
	// CheckpointFlushEvery bounds completed points between durable
	// checkpoint writes (<= 0 writes after every point).
	CheckpointFlushEvery int
	// CheckpointFlush, when set with CheckpointDir, observes every
	// durable checkpoint write with the number of completed points on
	// file. The async jobs subsystem journals these as checkpointed(n)
	// state transitions.
	CheckpointFlush func(done int)
}

// DefaultConfig returns the full-fidelity experiment configuration.
func DefaultConfig() Config {
	return Config{Runs: 3, Perturb: 0.01}
}

// QuickConfig returns a reduced configuration for smoke tests.
func QuickConfig() Config {
	return Config{Quick: true, Runs: 1, Perturb: 0.01}
}

func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

func (c Config) engine() *sweep.Engine {
	if c.Engine != nil {
		return c.Engine
	}
	return sweep.Default()
}

// checkpoint returns the durable-progress configuration for one
// artifact's sweep, or nil when checkpointing is off. The key
// fingerprints every Config field that changes point values or the
// point grid, so stale state from a different configuration is
// discarded rather than resumed.
func (c Config) checkpoint(artifact string) *sweep.Checkpoint {
	if c.CheckpointDir == "" {
		return nil
	}
	ck := &sweep.Checkpoint{
		Path:       filepath.Join(c.CheckpointDir, artifact+".ckpt"),
		Key:        fmt.Sprintf("%s|quick=%t|runs=%d|perturb=%g", artifact, c.Quick, c.Runs, c.Perturb),
		FlushEvery: c.CheckpointFlushEvery,
		OnFlush:    c.CheckpointFlush,
	}
	if c.Log != nil {
		ck.Warnf = func(format string, args ...any) { c.logf(format+"\n", args...) }
	}
	return ck
}

var logMu sync.Mutex

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(c.Log, format, args...)
	}
}

// EstimateAndMeasure compiles one source (through the sweep cache),
// interprets it and runs it on the simulated machine, returning
// (estimated, measured) microseconds.
func EstimateAndMeasure(src string, cfg Config) (estUS, measUS float64, err error) {
	return cfg.engine().EstimateAndMeasureContext(cfg.ctx(), src, cfg.Runs, cfg.Perturb)
}

// ---------------------------------------------------------------------------
// Table 2 — accuracy of the performance prediction framework

// AccuracyPoint is one (problem size, system size) comparison.
type AccuracyPoint struct {
	Size   int
	Procs  int
	EstUS  float64
	MeasUS float64
}

// ErrPct is the absolute error as a percentage of the measured time.
// A divergent prediction against a zero measurement (EstUS != 0 while
// MeasUS == 0) is +Inf, not 0: the prediction is unboundedly wrong, not
// perfect.
func (p AccuracyPoint) ErrPct() float64 {
	if p.MeasUS == 0 {
		if p.EstUS == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(p.EstUS-p.MeasUS) / p.MeasUS * 100
}

// AccuracyRow is one program's row of Table 2.
type AccuracyRow struct {
	Name      string
	SizeRange string
	ProcRange string
	Points    []AccuracyPoint
}

// MinErrPct returns the minimum absolute error over all points, or NaN
// for a row with no points ("no data" must stay distinguishable from a
// perfect 0% prediction).
func (r AccuracyRow) MinErrPct() float64 {
	if len(r.Points) == 0 {
		return math.NaN()
	}
	m := math.Inf(1)
	for _, p := range r.Points {
		if e := p.ErrPct(); e < m {
			m = e
		}
	}
	return m
}

// MaxErrPct returns the maximum absolute error over all points, or NaN
// for a row with no points.
func (r AccuracyRow) MaxErrPct() float64 {
	if len(r.Points) == 0 {
		return math.NaN()
	}
	m := 0.0
	for _, p := range r.Points {
		if e := p.ErrPct(); e > m {
			m = e
		}
	}
	return m
}

// sweepGrid returns the (sizes, procs) grid for one program under cfg.
// Quick mode keeps the first two problem sizes and intersects the
// quick system sizes {1, 4} with the program's declared Procs, so a
// program is never swept at a system size it does not declare; a
// program declaring neither falls back to its first two declared
// counts.
func sweepGrid(p *suite.Program, cfg Config) (sizes, procs []int) {
	if !cfg.Quick {
		return p.Sizes, p.Procs
	}
	sizes = p.Sizes[:min(2, len(p.Sizes))]
	for _, np := range p.Procs {
		if np == 1 || np == 4 {
			procs = append(procs, np)
		}
	}
	if len(procs) == 0 {
		procs = p.Procs[:min(2, len(p.Procs))]
	}
	return sizes, procs
}

// Table2 reproduces the accuracy validation (§5.1): for every program of
// the validation set, estimated and measured times are compared while
// varying the problem size and the number of processing elements. The
// full (program × size × procs) grid is flattened onto one worker pool;
// rows come back in Table 1 order with points in sweep order.
func Table2(cfg Config) ([]AccuracyRow, error) {
	progs := suite.All()
	rows := make([]AccuracyRow, len(progs))
	type point struct {
		row         int
		size, procs int
	}
	var pts []point
	for i, p := range progs {
		sizes, procs := sweepGrid(p, cfg)
		rows[i] = AccuracyRow{
			Name:      p.Name,
			SizeRange: fmt.Sprintf("%d - %d", sizes[0], sizes[len(sizes)-1]),
			ProcRange: fmt.Sprintf("%d - %d", procs[0], procs[len(procs)-1]),
		}
		for _, n := range sizes {
			for _, np := range procs {
				pts = append(pts, point{row: i, size: n, procs: np})
			}
		}
	}
	eng := cfg.engine()
	res, err := sweep.MapCheckpointCtx(cfg.ctx(), eng, len(pts), cfg.checkpoint("table2"), func(k int) (AccuracyPoint, error) {
		pt := pts[k]
		p := progs[pt.row]
		ap, err := accuracyPoint(eng, p, pt.size, pt.procs, cfg)
		if err != nil {
			return ap, fmt.Errorf("%s: %w", p.Name, err)
		}
		return ap, nil
	})
	if err != nil {
		return nil, err
	}
	for k, ap := range res {
		rows[pts[k].row].Points = append(rows[pts[k].row].Points, ap)
	}
	return rows, nil
}

// Table2Row runs the accuracy sweep for one program on the worker pool.
func Table2Row(p *suite.Program, cfg Config) (AccuracyRow, error) {
	sizes, procs := sweepGrid(p, cfg)
	row := AccuracyRow{
		Name:      p.Name,
		SizeRange: fmt.Sprintf("%d - %d", sizes[0], sizes[len(sizes)-1]),
		ProcRange: fmt.Sprintf("%d - %d", procs[0], procs[len(procs)-1]),
	}
	type point struct{ size, procs int }
	var pts []point
	for _, n := range sizes {
		for _, np := range procs {
			pts = append(pts, point{size: n, procs: np})
		}
	}
	eng := cfg.engine()
	res, err := sweep.MapCtx(cfg.ctx(), eng, len(pts), func(k int) (AccuracyPoint, error) {
		return accuracyPoint(eng, p, pts[k].size, pts[k].procs, cfg)
	})
	if err != nil {
		return row, err
	}
	row.Points = res
	return row, nil
}

// accuracyPoint evaluates one (size, procs) comparison of one program.
func accuracyPoint(eng *sweep.Engine, p *suite.Program, size, procs int, cfg Config) (AccuracyPoint, error) {
	est, meas, err := eng.EstimateAndMeasureContext(cfg.ctx(), p.Source(size, procs), cfg.Runs, cfg.Perturb)
	if err != nil {
		return AccuracyPoint{}, fmt.Errorf("size %d procs %d: %w", size, procs, err)
	}
	pt := AccuracyPoint{Size: size, Procs: procs, EstUS: est, MeasUS: meas}
	cfg.logf("%-18s n=%-6d p=%d est=%-12s meas=%-12s err=%.2f%%\n",
		p.Name, size, procs, report.FormatUS(est), report.FormatUS(meas), pt.ErrPct())
	return pt, nil
}

// fmtPct renders an error percentage, keeping the degenerate cases
// distinguishable: NaN (no data) renders "n/a", +Inf (divergent
// prediction against a zero measurement) renders ">100%".
func fmtPct(v float64) string {
	switch {
	case math.IsNaN(v):
		return "n/a"
	case math.IsInf(v, 1):
		return ">100%"
	}
	return fmt.Sprintf("%.2f%%", v)
}

// RenderTable2 renders rows in the layout of the paper's Table 2.
func RenderTable2(rows []AccuracyRow) string {
	headers := []string{"Name", "Problem Sizes", "System Size", "Min Abs Error", "Max Abs Error"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.Name, r.SizeRange + " (data elements)", r.ProcRange + " (# procs)",
			fmtPct(r.MinErrPct()), fmtPct(r.MaxErrPct()),
		})
	}
	return "Table 2: Accuracy of the Performance Prediction Framework\n" +
		report.Table(headers, body)
}

// ---------------------------------------------------------------------------
// Figure 3 — Laplace solver data distributions

// Figure3 renders the three template distributions of the Laplace solver
// on 4 processors as ownership pictures, compiling on cfg's engine under
// cfg's context.
func Figure3(cfg Config) (string, error) {
	out := "Figure 3: Laplace Solver - Data Distributions (4 processors)\n\n"
	eng := cfg.engine()
	for _, cse := range []struct {
		name string
		prog *suite.Program
	}{
		{"(Block,Block)", suite.LaplaceBB()},
		{"(Block,*)", suite.LaplaceBX()},
		{"(*,Block)", suite.LaplaceXB()},
	} {
		prog, err := eng.CompileContext(cfg.ctx(), cse.prog.Source(16, 4), compiler.Options{})
		if err != nil {
			return "", err
		}
		m := prog.Info.ArrayMap("U")
		out += cse.name + ":\n" + m.AsciiDecomposition(8) + "\n"
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figures 4 and 5 — Laplace estimated/measured times

// LaplaceSeries is one curve of Figures 4/5.
type LaplaceSeries struct {
	Label  string
	Kind   string // "Estimated" or "Measured"
	Sizes  []int
	TimeUS []float64
}

// laplaceCases returns the three Laplace variants in figure order.
func laplaceCases(procs int) []struct {
	label string
	prog  *suite.Program
} {
	return []struct {
		label string
		prog  *suite.Program
	}{
		{"(Blk,Blk) - " + gridLabel(procs), suite.LaplaceBB()},
		{"(Blk,*) - " + fmt.Sprintf("%d Procs", procs), suite.LaplaceBX()},
		{"(*,Blk) - " + fmt.Sprintf("%d Procs", procs), suite.LaplaceXB()},
	}
}

// Figure45 reproduces Figure 4 (procs = 4) or Figure 5 (procs = 8): the
// estimated and measured execution times of the three Laplace variants
// over the problem-size sweep, all (variant × size) points evaluated on
// the worker pool.
func Figure45(procs int, cfg Config) ([]LaplaceSeries, error) {
	sizes := []int{16, 64, 128, 192, 256}
	if cfg.Quick {
		sizes = []int{16, 64}
	}
	cases := laplaceCases(procs)
	type point struct{ cse, sizeIdx int }
	var pts []point
	for c := range cases {
		for s := range sizes {
			pts = append(pts, point{cse: c, sizeIdx: s})
		}
	}
	eng := cfg.engine()
	res, err := sweep.MapCheckpointCtx(cfg.ctx(), eng, len(pts), cfg.checkpoint(fmt.Sprintf("fig45-p%d", procs)), func(k int) ([2]float64, error) {
		pt := pts[k]
		cse := cases[pt.cse]
		n := sizes[pt.sizeIdx]
		e, m, err := eng.EstimateAndMeasureContext(cfg.ctx(), cse.prog.Source(n, procs), cfg.Runs, cfg.Perturb)
		if err != nil {
			return [2]float64{}, fmt.Errorf("%s n=%d: %w", cse.label, n, err)
		}
		cfg.logf("laplace %-22s n=%-4d est=%-12s meas=%-12s\n",
			cse.label, n, report.FormatUS(e), report.FormatUS(m))
		return [2]float64{e, m}, nil
	})
	if err != nil {
		return nil, err
	}
	var out []LaplaceSeries
	for c, cse := range cases {
		est := LaplaceSeries{Label: cse.label, Kind: "Estimated", Sizes: sizes}
		mea := LaplaceSeries{Label: cse.label, Kind: "Measured", Sizes: sizes}
		for s := range sizes {
			em := res[c*len(sizes)+s]
			est.TimeUS = append(est.TimeUS, em[0])
			mea.TimeUS = append(mea.TimeUS, em[1])
		}
		out = append(out, est, mea)
	}
	return out, nil
}

func gridLabel(procs int) string {
	return fmt.Sprintf("%s Proc Grid", map[int]string{1: "1x1", 2: "1x2", 4: "2x2", 8: "2x4"}[procs])
}

// RenderFigure45 renders the series as a text chart plus a value table.
func RenderFigure45(fig int, procs int, series []LaplaceSeries) string {
	var cs []report.Series
	for _, s := range series {
		xs := make([]float64, len(s.Sizes))
		ys := make([]float64, len(s.TimeUS))
		for i := range s.Sizes {
			xs[i] = float64(s.Sizes[i])
			ys[i] = s.TimeUS[i] / 1e6
		}
		cs = append(cs, report.Series{Label: s.Kind + " " + s.Label, X: xs, Y: ys})
	}
	title := fmt.Sprintf("Figure %d: Laplace Solver (%d Procs) - Estimated/Measured Times", fig, procs)
	out := report.Chart(title, "Problem Size", "Execution Time (sec)", cs)
	headers := []string{"series", "kind"}
	for _, n := range series[0].Sizes {
		headers = append(headers, fmt.Sprint(n))
	}
	var rows [][]string
	for _, s := range series {
		row := []string{s.Label, s.Kind}
		for _, t := range s.TimeUS {
			row = append(row, report.FormatUS(t))
		}
		rows = append(rows, row)
	}
	return out + "\n" + report.Table(headers, rows)
}

// ---------------------------------------------------------------------------
// Figure 7 — Financial model interpreted performance profile

// Figure7 interprets the stock option pricing model (4 processors,
// size 256) and returns its per-phase profile (Figure 6 defines the two
// phases: lattice creation with shift communication, then call price
// computation without communication).
func Figure7(cfg Config) ([]report.PhaseBreakdown, error) {
	p := suite.Finance()
	size := 256
	if cfg.Quick {
		size = 64
	}
	src := p.Source(size, 4)
	rep, err := cfg.engine().InterpretContext(cfg.ctx(), src, compiler.Options{}, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	l1 := suite.LineOf(src, suite.FinancePhase1Marker)
	l2 := suite.LineOf(src, suite.FinancePhase2Marker)
	lend := suite.LineOf(src, "CHK =")
	phases := []report.Phase{
		{Name: "Phase 1", FromLine: l1, ToLine: l2 - 1},
		{Name: "Phase 2", FromLine: l2, ToLine: lend - 1},
	}
	return report.PhaseProfile(rep, phases), nil
}

// RenderFigure7 renders the phase profile.
func RenderFigure7(phases []report.PhaseBreakdown) string {
	return report.RenderPhaseProfile(
		"Figure 7: Stock Option Pricing - Interpreted Performance Profile (Procs = 4; Size = 256)",
		phases)
}

// ---------------------------------------------------------------------------
// Figure 8 — experimentation time

// WorkflowModel parameterizes the cost (in minutes) of one experimentation
// cycle, following §5.3's description of the two workflows. The iPSC/860
// cycle is: edit code, compile and link with a cross compiler, transfer
// the executable to the front end, load it onto the i860 nodes, and run
// it (1000 timed runs per instance), repeated for each problem size; the
// machine is shared, adding a queue wait per instance. The interpreter
// cycle is: adjust directives/parameters in the interface and re-run the
// source-driven interpretation on a workstation.
type WorkflowModel struct {
	// Measured workflow (per experiment instance).
	EditMin      float64
	CompileMin   float64
	TransferMin  float64
	LoadMin      float64
	QueueWaitMin float64
	TimedRuns    int
	// Interpreted workflow.
	InterpEditMin   float64
	InterpPerRunMin float64
	InterpSetupMin  float64
}

// DefaultWorkflow returns the model calibrated to the paper's reported
// experimentation times (≈10 min per variant interpreted; 27–60 min
// measured).
func DefaultWorkflow() WorkflowModel {
	return WorkflowModel{
		EditMin:         1.0,
		CompileMin:      2.5,
		TransferMin:     1.0,
		LoadMin:         0.5,
		QueueWaitMin:    1.0,
		TimedRuns:       1000,
		InterpEditMin:   1.5,
		InterpPerRunMin: 0.5,
		InterpSetupMin:  2.0,
	}
}

// ExperimentTime is one bar pair of Figure 8.
type ExperimentTime struct {
	Impl           string
	InterpreterMin float64
	IPSCMin        float64
}

// Figure8 reproduces the experimentation-time comparison for the three
// Laplace implementations: each variant is evaluated over the problem
// size sweep, measured runs costing real (simulated) machine time. The
// sources are the same Laplace programs Figures 4/5 sweep, so on the
// shared engine every compile here is a cache hit.
func Figure8(cfg Config) ([]ExperimentTime, error) {
	wm := DefaultWorkflow()
	sizes := []int{16, 64, 128, 256}
	if cfg.Quick {
		sizes = []int{16, 64}
	}
	cases := []struct {
		label string
		prog  *suite.Program
	}{
		{"(Blk,Blk)", suite.LaplaceBB()},
		{"(Blk,*)", suite.LaplaceBX()},
		{"(*,Blk)", suite.LaplaceXB()},
	}
	type point struct{ cse, sizeIdx int }
	var pts []point
	for c := range cases {
		for s := range sizes {
			pts = append(pts, point{cse: c, sizeIdx: s})
		}
	}
	eng := cfg.engine()
	res, err := sweep.MapCheckpointCtx(cfg.ctx(), eng, len(pts), cfg.checkpoint("fig8"), func(k int) (float64, error) {
		pt := pts[k]
		src := cases[pt.cse].prog.Source(sizes[pt.sizeIdx], 4)
		_, meas, err := eng.EstimateAndMeasureContext(cfg.ctx(), src, cfg.Runs, cfg.Perturb)
		return meas, err
	})
	if err != nil {
		return nil, err
	}
	var out []ExperimentTime
	for c, cse := range cases {
		et := ExperimentTime{Impl: cse.label}
		et.InterpreterMin = wm.InterpSetupMin
		for s := range sizes {
			meas := res[c*len(sizes)+s]
			// Measured workflow: full edit-compile-transfer-load cycle plus
			// the timed runs on the machine.
			runMin := meas / 1e6 / 60 * float64(wm.TimedRuns)
			et.IPSCMin += wm.EditMin + wm.CompileMin + wm.TransferMin + wm.LoadMin + wm.QueueWaitMin + runMin
			// Interpreted workflow: directive edit plus an interpretation run.
			et.InterpreterMin += wm.InterpEditMin + wm.InterpPerRunMin
		}
		cfg.logf("figure8 %-10s interp=%.1fmin ipsc=%.1fmin\n", et.Impl, et.InterpreterMin, et.IPSCMin)
		out = append(out, et)
	}
	return out, nil
}

// RenderFigure8 renders the experimentation-time bars.
func RenderFigure8(times []ExperimentTime) string {
	var labels []string
	var values []float64
	for _, t := range times {
		labels = append(labels, t.Impl+" interpreter")
		values = append(values, t.InterpreterMin)
		labels = append(labels, t.Impl+" iPSC/860")
		values = append(values, t.IPSCMin)
	}
	return report.Bars("Figure 8: Experimentation Time - Laplace Solver", "min", labels, values)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
