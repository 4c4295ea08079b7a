// Package hpfperf is a source-driven performance prediction framework for
// HPF/Fortran 90D programs, reproducing "Interpreting the Performance of
// HPF/Fortran 90D" (Parashar, Hariri, Haupt, Fox — Supercomputing '94).
//
// The framework compiles an HPF/Fortran 90D program into a loosely
// synchronous SPMD node program (the paper's phase 1), abstracts it into
// a Synchronized Application Abstraction Graph, and interprets its
// performance against a hierarchical System Abstraction Graph of the
// target machine — an 8-node iPSC/860 hypercube — without executing it
// (the paper's phase 2). A detailed machine simulator stands in for the
// physical iPSC/860, providing the "measured" times the paper compares
// against.
//
// Basic use:
//
//	prog, err := hpfperf.Compile(src)
//	pred, err := hpfperf.Predict(prog, nil)     // interpretation
//	meas, err := hpfperf.Measure(prog, nil)     // simulated execution
//	fmt.Println(pred.Profile(), meas.Seconds())
package hpfperf

import (
	"context"
	"fmt"
	"io"

	"hpfperf/internal/analysis"
	"hpfperf/internal/autotune"
	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/corpus"
	"hpfperf/internal/exec"
	"hpfperf/internal/hir"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/obs"
	"hpfperf/internal/report"
	"hpfperf/internal/sem"
	"hpfperf/internal/suite"
	"hpfperf/internal/sweep"
	"hpfperf/internal/sysmodel"
	"hpfperf/internal/trace"
)

// Program is a compiled HPF/Fortran 90D program: the SPMD node program
// plus its data mapping information.
type Program struct {
	hir *hir.Program
}

// Compile parses, analyzes and compiles HPF/Fortran 90D source text
// through the five compilation steps of the framework's phase 1.
func Compile(src string) (*Program, error) {
	return CompileContext(context.Background(), src)
}

// CompileContext is Compile under a context. When the context carries
// an active obs trace (see internal/obs), the compilation phases record
// as spans: compile > {parse, sem > partition, comm-insert}.
func CompileContext(ctx context.Context, src string) (*Program, error) {
	p, err := compiler.CompileWithContext(ctx, src, compiler.Options{})
	if err != nil {
		return nil, err
	}
	return &Program{hir: p}, nil
}

// CompileOptions expose the generated-code optimizations of §4.2, which
// "can be turned on/off by the user".
type CompileOptions struct {
	// NoCommOpt disables redundant-communication elimination.
	NoCommOpt bool
	// NoLoopReorder disables cache-locality loop re-ordering.
	NoLoopReorder bool
}

// CompileWith compiles with explicit optimization options.
func CompileWith(src string, opts CompileOptions) (*Program, error) {
	p, err := compiler.CompileWith(src, compiler.Options{
		NoCommOpt:     opts.NoCommOpt,
		NoLoopReorder: opts.NoLoopReorder,
	})
	if err != nil {
		return nil, err
	}
	return &Program{hir: p}, nil
}

// Name returns the PROGRAM unit name.
func (p *Program) Name() string { return p.hir.Name }

// Processors returns the number of abstract processors the program is
// mapped onto (the size of its PROCESSORS arrangement).
func (p *Program) Processors() int { return p.hir.Info.Grid.Size() }

// SPMD renders the compiled loosely synchronous node program (for
// inspection and debugging).
func (p *Program) SPMD() string { return p.hir.Dump() }

// Mappings lists the resolved distribution of every program array.
func (p *Program) Mappings() []string {
	var out []string
	for _, name := range sortedArrayNames(p.hir.Info) {
		out = append(out, p.hir.Info.Symbols[name].Map.String())
	}
	return out
}

func sortedArrayNames(info *sem.Info) []string {
	var names []string
	for name, s := range info.Symbols {
		if s.Kind == sem.SymArray && s.Map != nil && name[0] != '$' {
			names = append(names, name)
		}
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j-1] > names[j]; j-- {
			names[j-1], names[j] = names[j], names[j-1]
		}
	}
	return names
}

// ---------------------------------------------------------------------------
// Static analysis (hpflint)

// Diagnostic is one finding of the static-analysis layer: a stable
// machine-readable code (HPFnnnn), a severity ("info", "warning",
// "error"), the producing pass, the source line, and an optional fix
// hint. It is the element type of hpflint's -json output and of
// hpfserve's /v1/analyze response.
type Diagnostic = analysis.Diagnostic

// Severity levels of Diagnostic, re-exported for threshold filtering.
const (
	SevInfo    = analysis.SevInfo
	SevWarning = analysis.SevWarning
	SevError   = analysis.SevError
)

// Analyze compiles HPF/Fortran 90D source and runs every registered
// static-analysis pass over it: critical-variable definition tracing
// (§4.2), communication anti-pattern lints, FORALL dependence tests,
// directive hygiene, and degenerate control-flow detection. Diagnostics
// come back ordered by source line.
func Analyze(src string) ([]Diagnostic, error) {
	p, err := Compile(src)
	if err != nil {
		return nil, err
	}
	return AnalyzeProgram(p), nil
}

// AnalyzeProgram runs the static-analysis passes over an already
// compiled program.
func AnalyzeProgram(p *Program) []Diagnostic {
	return analysis.Analyze(p.hir)
}

// ---------------------------------------------------------------------------
// Prediction (the interpretive framework)

// PredictOptions configure the interpretation engine.
type PredictOptions struct {
	// MemoryModel enables the SAU memory-hierarchy model. Default true.
	MemoryModel *bool
	// AverageLoad charges the mean (instead of maximum) per-processor
	// iteration share of distributed loops.
	AverageLoad bool
	// MaskDensity is the assumed truth density of FORALL/WHERE masks
	// (default 1.0).
	MaskDensity float64
	// SimpleCommModel replaces the piecewise (short/long protocol)
	// communication models with single linear fits (ablation).
	SimpleCommModel bool
	// TripCounts supplies loop trip counts by source line for loops whose
	// bounds cannot be traced statically.
	TripCounts map[int]int
	// IntValues supplies user-specified integer critical-variable values.
	IntValues map[string]int64
	// Machine selects the target system abstraction ("ipsc860" default,
	// "paragon"); see Machines().
	Machine string
}

func (o *PredictOptions) toCore() core.Options {
	opts := core.DefaultOptions()
	if o == nil {
		return opts
	}
	if o.MemoryModel != nil {
		opts.MemoryModel = *o.MemoryModel
	}
	if o.AverageLoad {
		opts.LoadModel = core.Average
	}
	if o.MaskDensity > 0 {
		opts.MaskDensity = o.MaskDensity
	}
	opts.SimpleCommModel = o.SimpleCommModel
	opts.TripCounts = o.TripCounts
	if len(o.IntValues) > 0 {
		opts.Values = make(map[string]sem.Value, len(o.IntValues))
		for k, v := range o.IntValues {
			opts.Values[k] = sem.IntVal(v)
		}
	}
	return opts
}

// Prediction is an interpreted performance estimate.
type Prediction struct {
	rep *core.Report
}

// Predict interprets the performance of a compiled program on the
// abstracted target machine (opts may be nil: iPSC/860 defaults).
func Predict(p *Program, opts *PredictOptions) (*Prediction, error) {
	return PredictContext(context.Background(), p, opts)
}

// PredictContext is Predict with cooperative cancellation: once ctx
// ends, the interpretation (including the off-line machine calibration
// step) stops and returns the ctx error. This is what lets a
// long-running service (cmd/hpfserve) honor per-request deadlines.
func PredictContext(ctx context.Context, p *Program, opts *PredictOptions) (*Prediction, error) {
	var machName string
	if opts != nil {
		machName = opts.Machine
	}
	mach, err := sysmodel.MachineByName(machName)
	if err != nil {
		return nil, err
	}
	ictx, span := obs.Start(ctx, "interp")
	defer span.End()
	span.SetAttrInt("procs", p.Processors())
	it, err := core.NewContext(ictx, p.hir, mach, opts.toCore())
	if err != nil {
		return nil, err
	}
	rep, err := it.Interpret()
	if err != nil {
		return nil, err
	}
	return &Prediction{rep: rep}, nil
}

// Seconds returns the predicted execution time.
func (pr *Prediction) Seconds() float64 { return pr.rep.EstimatedSeconds() }

// Microseconds returns the predicted execution time in microseconds.
func (pr *Prediction) Microseconds() float64 { return pr.rep.TotalUS() }

// Breakdown returns (computation, communication, overhead) microseconds.
func (pr *Prediction) Breakdown() (compUS, commUS, ovhdUS float64) {
	return pr.rep.Total.CompUS, pr.rep.Total.CommUS, pr.rep.Total.OvhdUS
}

// Profile renders the generic performance profile.
func (pr *Prediction) Profile() string { return report.Profile(pr.rep) }

// AAG renders the interpreted application abstraction graph down to
// maxDepth levels (0 = unlimited).
func (pr *Prediction) AAG(maxDepth int) string { return report.AAGView(pr.rep, maxDepth) }

// CommTable renders the communication table of the SAAG.
func (pr *Prediction) CommTable() string { return report.CommTable(pr.rep) }

// Line returns the metrics of one source line as a formatted string.
func (pr *Prediction) Line(line int) string { return report.LineQuery(pr.rep, line) }

// AAU returns the cumulative sub-AAG metrics of one application
// abstraction unit by its ID (IDs are visible in the AAG view).
func (pr *Prediction) AAU(id int) string { return report.AAUQuery(pr.rep, id) }

// CompiledPrediction is the closure-compiled prediction form of a
// program: the SAAG is lowered once into pre-compiled cost thunks, and
// each evaluation runs those thunks instead of re-dispatching on the
// statement tree. Build it once per program, then evaluate repeatedly
// (and concurrently) with varying critical-variable values and trip
// counts; a parameter sweep pays the lowering once, not per point. It is
// the same engine Predict runs.
type CompiledPrediction struct {
	cp *core.Compiled
}

// CompilePrediction lowers the program's abstraction graph into the
// compiled prediction form for the machine selected by opts (nil =
// iPSC/860 defaults). Static options (memory model, load model, mask
// density, comm model, machine) are bound at compile time; IntValues
// and TripCounts act as defaults that EvaluateWith can override per
// evaluation.
func (p *Program) CompilePrediction(opts *PredictOptions) (*CompiledPrediction, error) {
	return p.CompilePredictionContext(context.Background(), opts)
}

// CompilePredictionContext is CompilePrediction with cooperative
// cancellation of the machine-calibration step.
func (p *Program) CompilePredictionContext(ctx context.Context, opts *PredictOptions) (*CompiledPrediction, error) {
	var machName string
	if opts != nil {
		machName = opts.Machine
	}
	mach, err := sysmodel.MachineByName(machName)
	if err != nil {
		return nil, err
	}
	cp, err := core.CompilePrediction(ctx, analysis.NewUnit(p.hir), mach, opts.toCore())
	if err != nil {
		return nil, err
	}
	return &CompiledPrediction{cp: cp}, nil
}

// Evaluate runs the compiled prediction under the values and trip
// counts bound at compile time. The result is byte-identical to
// Predict with the same options.
func (cp *CompiledPrediction) Evaluate() (*Prediction, error) {
	rep, err := cp.cp.Evaluate(context.Background())
	if err != nil {
		return nil, err
	}
	return &Prediction{rep: rep}, nil
}

// EvaluateWith evaluates the prediction under new critical-variable
// values and trip counts (both may be nil) instead of the ones bound at
// compile time. Every call runs the whole form; the result is
// byte-identical to Predict with the same options.
func (cp *CompiledPrediction) EvaluateWith(intValues map[string]int64, tripCounts map[int]int) (*Prediction, error) {
	return cp.EvaluateWithContext(context.Background(), intValues, tripCounts)
}

// EvaluateWithContext is EvaluateWith with cooperative cancellation.
func (cp *CompiledPrediction) EvaluateWithContext(ctx context.Context, intValues map[string]int64, tripCounts map[int]int) (*Prediction, error) {
	var values map[string]sem.Value
	if len(intValues) > 0 {
		values = make(map[string]sem.Value, len(intValues))
		for k, v := range intValues {
			values[k] = sem.IntVal(v)
		}
	}
	rep, err := cp.cp.EvaluateWith(ctx, values, tripCounts)
	if err != nil {
		return nil, err
	}
	return &Prediction{rep: rep}, nil
}

// CriticalVariable reports one variable whose value affects control flow
// (§4.2: loop limits, branch conditions, shift amounts).
type CriticalVariable struct {
	Name  string
	Lines []int
	Uses  int
}

// CriticalVariables identifies the critical variables of a compiled
// program. Unresolvable ones must be supplied to Predict through
// PredictOptions.IntValues or TripCounts.
func (p *Program) CriticalVariables() []CriticalVariable {
	var out []CriticalVariable
	for _, cv := range core.CriticalVariables(p.hir) {
		out = append(out, CriticalVariable{Name: cv.Name, Lines: cv.Lines, Uses: cv.Uses})
	}
	return out
}

// HotLines lists the top-n source lines by predicted time.
func (pr *Prediction) HotLines(n int) string { return report.HotLines(pr.rep, n) }

// Phase is a named source-line range for per-phase profiling.
type Phase = report.Phase

// PhaseProfile renders the per-phase profile (application performance
// debugging, §5.2.2).
func (pr *Prediction) PhaseProfile(title string, phases []Phase) string {
	return report.RenderPhaseProfile(title, report.PhaseProfile(pr.rep, phases))
}

// PhaseMetrics returns (comp, comm, ovhd) microseconds for a line range.
func (pr *Prediction) PhaseMetrics(fromLine, toLine int) (compUS, commUS, ovhdUS float64) {
	m := pr.rep.LineRangeMetrics(fromLine, toLine)
	return m.CompUS, m.CommUS, m.OvhdUS
}

// Warnings returns interpretation warnings (unresolved branches etc.).
func (pr *Prediction) Warnings() []string { return pr.rep.Warnings }

// WriteTrace emits a ParaGraph-compatible interpretation trace.
func (pr *Prediction) WriteTrace(w io.Writer) error {
	return trace.FromReport(pr.rep).Write(w)
}

// ---------------------------------------------------------------------------
// Measurement (simulated iPSC/860 execution)

// MeasureOptions configure simulated execution.
type MeasureOptions struct {
	// Runs is the number of perturbed timed runs to average (default 1).
	Runs int
	// Perturb is the load-fluctuation amplitude (default 0.01; set
	// negative for 0).
	Perturb float64
	// Seed drives the deterministic noise generator.
	Seed int64
	// CacheModel can disable the simulator's cache model (default on).
	CacheModel *bool
	// Machine selects the simulated system ("ipsc860" default, "paragon").
	Machine string
}

// Measurement is the result of executing a program on the simulated
// machine.
type Measurement struct {
	res *exec.Result
}

// Measure executes the compiled program on the simulated iPSC/860
// (opts may be nil for defaults).
func Measure(p *Program, opts *MeasureOptions) (*Measurement, error) {
	return MeasureContext(context.Background(), p, opts)
}

// MeasureContext is Measure with cooperative cancellation: the
// simulator's statement loop observes ctx, so a timed-out request
// escapes mid-run instead of simulating to completion.
func MeasureContext(ctx context.Context, p *Program, opts *MeasureOptions) (*Measurement, error) {
	cfg := ipsc.DefaultConfig(p.Processors())
	runs := 1
	if opts != nil && opts.Machine != "" {
		base, err := sysmodel.MachineByName(opts.Machine)
		if err != nil {
			return nil, err
		}
		cfg.Base = base
	}
	if opts != nil {
		if opts.Perturb > 0 {
			cfg.PerturbAmp = opts.Perturb
		} else if opts.Perturb < 0 {
			cfg.PerturbAmp = 0
			cfg.TimerResUS = 0
		}
		if opts.Seed != 0 {
			cfg.Seed = opts.Seed
		}
		if opts.CacheModel != nil {
			cfg.CacheModel = *opts.CacheModel
		}
		if opts.Runs > 0 {
			runs = opts.Runs
		}
	}
	m, err := ipsc.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := exec.RunContext(ctx, p.hir, m, exec.Options{Runs: runs})
	if err != nil {
		return nil, err
	}
	return &Measurement{res: res}, nil
}

// Seconds returns the measured execution time.
func (m *Measurement) Seconds() float64 { return m.res.MeasuredUS / 1e6 }

// Microseconds returns the measured execution time in microseconds.
func (m *Measurement) Microseconds() float64 { return m.res.MeasuredUS }

// Runs returns the individual run times in microseconds.
func (m *Measurement) Runs() []float64 { return m.res.RunsUS }

// Printed returns the program's list-directed output lines.
func (m *Measurement) Printed() []string { return m.res.Printed }

// PerNode returns the final per-node clocks in microseconds.
func (m *Measurement) PerNode() []float64 { return m.res.PerNodeUS }

// ---------------------------------------------------------------------------
// Directive selection (§5.2.1)

// Candidate is one directive/distribution alternative of a program.
type Candidate struct {
	Name   string
	Source string
}

// Ranked is a candidate with its prediction.
type Ranked struct {
	Candidate
	Prediction *Prediction
}

// SelectDistribution predicts every candidate and returns them ranked by
// predicted execution time, best first — the building block of the
// "intelligent compiler" the paper proposes (§5.2.1, §7). Candidates are
// evaluated concurrently on the shared sweep engine; repeated sources
// are compiled once.
func SelectDistribution(cands []Candidate, opts *PredictOptions) ([]Ranked, error) {
	return SelectDistributionContext(context.Background(), cands, opts)
}

// SelectDistributionContext is SelectDistribution with cooperative
// cancellation of the candidate sweep.
func SelectDistributionContext(ctx context.Context, cands []Candidate, opts *PredictOptions) ([]Ranked, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("hpfperf: no candidates")
	}
	eng := sweep.Default()
	out, err := sweep.MapCtx(ctx, eng, len(cands), func(i int) (Ranked, error) {
		c := cands[i]
		prog, err := eng.CompileContext(ctx, c.Source, compiler.Options{})
		if err != nil {
			return Ranked{}, fmt.Errorf("%s: %w", c.Name, err)
		}
		pred, err := PredictContext(ctx, &Program{hir: prog}, opts)
		if err != nil {
			return Ranked{}, fmt.Errorf("%s: %w", c.Name, err)
		}
		return Ranked{Candidate: c, Prediction: pred}, nil
	})
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Prediction.Microseconds() > out[j].Prediction.Microseconds(); j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Automatic directive selection (the "intelligent compiler" of paper section 7)

// AutoCandidate is one automatically generated directive variant.
type AutoCandidate struct {
	// Desc describes the variant, e.g. "T(BLOCK,*) onto P(4)".
	Desc string
	// Source is the program rewritten with the variant's directives.
	Source string
	// EstUS is the predicted execution time in microseconds (a huge
	// sentinel when the variant was rejected).
	EstUS float64
	// Err explains a rejected variant.
	Err error
}

// AutoDistributeOptions configure the automatic search.
type AutoDistributeOptions struct {
	// NoCyclic restricts formats to BLOCK and '*'.
	NoCyclic bool
	// Predict configures the interpretation of each variant.
	Predict *PredictOptions
}

// AutoDistribute enumerates PROCESSORS/DISTRIBUTE directive variants of
// an HPF/Fortran 90D program for the given processor count, interprets
// each, and returns them ranked by predicted execution time - the
// intelligent-compiler capability the paper proposes as future work.
// The first candidate's Source is the recommended program.
func AutoDistribute(src string, procs int, opts *AutoDistributeOptions) ([]AutoCandidate, error) {
	return AutoDistributeContext(context.Background(), src, procs, opts)
}

// AutoDistributeContext is AutoDistribute with cooperative cancellation
// of the directive-variant sweep.
func AutoDistributeContext(ctx context.Context, src string, procs int, opts *AutoDistributeOptions) ([]AutoCandidate, error) {
	var aOpts autotune.Options
	aOpts.Procs = procs
	if opts != nil {
		aOpts.NoCyclic = opts.NoCyclic
		aOpts.Interp = opts.Predict.toCore()
	} else {
		aOpts.Interp = (*PredictOptions)(nil).toCore()
	}
	cands, err := autotune.SearchContext(ctx, src, aOpts)
	if err != nil {
		return nil, err
	}
	out := make([]AutoCandidate, 0, len(cands))
	for _, c := range cands {
		out = append(out, AutoCandidate{Desc: c.Desc(), Source: c.Source, EstUS: c.EstUS, Err: c.Err})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Sweep engine statistics

// SweepStats is a snapshot of the shared sweep engine's per-stage
// counters: compile/interpret/execute runs and wall-times, cache
// hits/misses and points-per-second throughput.
type SweepStats = sweep.Snapshot

// SweepStatistics returns a snapshot of the shared sweep engine that
// backs SelectDistribution, AutoDistribute and the experiment harness.
func SweepStatistics() SweepStats { return sweep.Default().Snapshot() }

// ResetSweepStatistics zeroes the shared engine's counters (the cache
// itself is retained).
func ResetSweepStatistics() { sweep.Default().Stats().Reset() }

// ---------------------------------------------------------------------------
// Benchmark suite access

// SuiteProgram describes one program of the paper's validation set
// (Table 1).
type SuiteProgram struct {
	Name        string
	Description string
	Class       string
	Sizes       []int
	Procs       []int
	source      func(size, procs int) string
}

// Source renders the program for a problem size and processor count.
func (s SuiteProgram) Source(size, procs int) string { return s.source(size, procs) }

// Suite returns the paper's validation application set.
func Suite() []SuiteProgram {
	var out []SuiteProgram
	for _, p := range suite.All() {
		out = append(out, SuiteProgram{
			Name: p.Name, Description: p.Description, Class: p.Class,
			Sizes: p.Sizes, Procs: p.Procs, source: p.Source,
		})
	}
	return out
}

// Machines lists the available target system abstractions.
func Machines() []string { return sysmodel.MachineNames() }

// ---------------------------------------------------------------------------
// Kernel corpus generation and differential validation

// CorpusProgram is one generated benchmark-kernel program.
type CorpusProgram = corpus.Program

// CorpusReport is the validation report of a corpus run: per-program
// rows in the HPL metrics shape (N/NB/P/Q/time/Gflops + validity) plus
// per-family aggregates.
type CorpusReport = corpus.Report

// CorpusOptions configure GenerateCorpus / ValidateCorpus.
type CorpusOptions struct {
	// Kernel restricts generation to one family ("stencil1d",
	// "stencil2d", "relax", "lu", "fft", "nbody"); "" round-robins all.
	Kernel string
	// CheckpointPath enables durable progress: a killed validation run
	// resumes from this file with byte-identical results.
	CheckpointPath string
}

// GenerateCorpus deterministically generates n benchmark-kernel
// programs from seed: stencils, relaxation sweeps, blocked LU on
// block-cyclic columns, FFT butterflies and systolic N-body, composed
// from parameterized templates over the accepted HPF subset. The same
// (seed, options) always yields the same programs.
func GenerateCorpus(seed int64, n int, opts *CorpusOptions) ([]CorpusProgram, error) {
	if opts != nil && opts.Kernel != "" {
		fam, err := corpus.FamilyByName(opts.Kernel)
		if err != nil {
			return nil, err
		}
		return corpus.GenerateFamily(seed, fam, n), nil
	}
	return corpus.Generate(seed, n), nil
}

// ValidateCorpus generates a corpus and drives every program through
// the differential validation harness: compile + lint clean at error
// severity, bit-identical tree-walking vs closure-compiled prediction
// reports, and prediction within the per-kernel relative-error bound of
// the deterministic simulated execution.
func ValidateCorpus(ctx context.Context, seed int64, n int, opts *CorpusOptions) (*CorpusReport, error) {
	progs, err := GenerateCorpus(seed, n, opts)
	if err != nil {
		return nil, err
	}
	vopts := corpus.Options{}
	if opts != nil && opts.CheckpointPath != "" {
		kernel := ""
		if opts != nil {
			kernel = opts.Kernel
		}
		vopts.Checkpoint = &sweep.Checkpoint{
			Path: opts.CheckpointPath,
			Key:  fmt.Sprintf("hpfgen-seed%d-n%d-kernel%s", seed, n, kernel),
		}
	}
	return corpus.Validate(ctx, progs, vopts)
}

// SuiteProgramByName returns the named suite program.
func SuiteProgramByName(name string) (SuiteProgram, error) {
	p := suite.ByName(name)
	if p == nil {
		return SuiteProgram{}, fmt.Errorf("hpfperf: unknown suite program %q", name)
	}
	return SuiteProgram{
		Name: p.Name, Description: p.Description, Class: p.Class,
		Sizes: p.Sizes, Procs: p.Procs, source: p.Source,
	}, nil
}
