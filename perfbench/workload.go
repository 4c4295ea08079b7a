package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"hpfperf/internal/analysis"
	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/hir"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/parser"
	"hpfperf/internal/report"
	"hpfperf/internal/sem"
	"hpfperf/internal/server"
	"hpfperf/internal/sweep"
)

// workload is one of the benchmark's input sets.
type workload interface {
	// describe is the one-line client model and op definition.
	describe() string
	// setup generates the inputs from the seed, builds a fresh server and
	// warms calibration (and, on predict-hot, the server's caches). tr
	// records the calibration spans of a traced run.
	setup(ctx context.Context, tr *tracer) error
	// do issues call i and returns the handler's latency.
	do(ctx context.Context, i int) (time.Duration, callOutcome)
	// doTraced runs the stages of call i through each layer's public
	// entry point on the server's own engine, in the handler's order,
	// then issues the request itself.
	doTraced(ctx context.Context, i int, tr *tracer) callOutcome
	// check runs the correctness checks that need the reference
	// implementations; it returns the ops they failed and why.
	check(ctx context.Context) (failed int64, problems []string)
	// maxErrPct is the worst Table-2 prediction error (0 where the
	// workload measures nothing).
	maxErrPct() float64
	base() *serverState
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "predict-cold":
		return &predictCold{cfg: cfg}, nil
	case "predict-hot":
		return &predictHot{cfg: cfg}, nil
	case "table2-batch":
		return &table2Batch{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have predict-cold, predict-hot, table2-batch)", cfg.workload)
}

// callOutcome is what one call contributed to its phase.
type callOutcome struct {
	key       int // which of the workload's inputs the call served
	points    int // ops attempted
	failed    int // non-200 responses, per-point errors and failed checks
	refused   int // 429 and 503 responses
	respBytes int
}

// serverConfig is hpfserve's default configuration plus a per-request
// cost ceiling no program reaches: the admission gate then prices every
// new program (analysis.PriceProgram), as it does when hpfserve runs
// with -max-cost-units, but never refuses.
func serverConfig() server.Config {
	return server.Config{MaxCostUnits: math.MaxFloat64}
}

// serverState is the workload's current server plus the engine counters
// of the phase being measured, summed over every server the phase used.
type serverState struct {
	srv *server.Server
	h   http.Handler
	acc engineCounts
}

func (s *serverState) base() *serverState { return s }

func (s *serverState) newServer() {
	if s.srv != nil {
		s.acc = s.acc.add(countsOf(s.srv), 1)
	}
	s.srv = server.New(serverConfig())
	s.h = s.srv.Handler()
}

// beginPhase starts summing engine counters from the current values.
func (s *serverState) beginPhase() { s.acc = engineCounts{}.add(countsOf(s.srv), -1) }

// endPhase returns the engine counters accumulated since beginPhase.
func (s *serverState) endPhase() engineCounts {
	c := s.acc.add(countsOf(s.srv), 1)
	c.workers = s.srv.Engine().Workers()
	return c
}

// engineCounts are the sweep layer's counters (Engine().Snapshot() and
// the cache's eviction counters).
type engineCounts struct {
	compileHits, compileMisses int64
	predictHits, predictMisses int64
	reportHits, reportMisses   int64
	execHits, execMisses       int64
	evictions                  int64
	mapWall                    time.Duration // wall time inside sweep.MapCtx
	workers                    int
}

func countsOf(srv *server.Server) engineCounts {
	s := srv.Engine().Snapshot()
	c := srv.Engine().Cache().CacheStats()
	return engineCounts{
		compileHits: s.CompileHits, compileMisses: s.CompileMisses,
		predictHits: s.PredictHits, predictMisses: s.PredictMisses,
		reportHits: s.ReportHits, reportMisses: s.ReportMisses,
		execHits: s.ExecHits, execMisses: s.ExecMisses,
		evictions: c.CompileEvictions + c.PredictEvictions + c.ReportEvictions + c.MeasureEvictions,
		mapWall:   s.WallTime,
	}
}

// add returns c + sign·d.
func (c engineCounts) add(d engineCounts, sign int64) engineCounts {
	c.compileHits += sign * d.compileHits
	c.compileMisses += sign * d.compileMisses
	c.predictHits += sign * d.predictHits
	c.predictMisses += sign * d.predictMisses
	c.reportHits += sign * d.reportHits
	c.reportMisses += sign * d.reportMisses
	c.execHits += sign * d.execHits
	c.execMisses += sign * d.execMisses
	c.evictions += sign * d.evictions
	c.mapWall += time.Duration(sign) * d.mapWall
	return c
}

// newRequest builds the request outside the timed window; serve times
// only ServeHTTP.
func newRequest(path string, body []byte) (*http.Request, *httptest.ResponseRecorder) {
	return httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)), httptest.NewRecorder()
}

func serve(h http.Handler, path string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	req, rec := newRequest(path, body)
	start := time.Now()
	h.ServeHTTP(rec, req)
	return rec, time.Since(start)
}

// serveTraced issues the request under a "server" span; dup is the
// replayed work the handler repeats inside ServeHTTP.
func serveTraced(tr *tracer, h http.Handler, path string, body []byte, dup time.Duration) *httptest.ResponseRecorder {
	req, rec := newRequest(path, body)
	s := tr.begin("server")
	h.ServeHTTP(rec, req)
	var err error
	if rec.Code != http.StatusOK {
		err = fmt.Errorf("HTTP %d", rec.Code)
	}
	tr.endDup(s, err, dup)
	return rec
}

// statusOutcome classifies a non-200 response.
func statusOutcome(code, points int) callOutcome {
	oc := callOutcome{points: points, failed: points}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		oc.refused = 1
	}
	return oc
}

// calibrate is the calibration warm-up of set-up. It runs the machine
// characterization (ipsc.CalibrateMachineContext) once per processor
// count the inputs use, and warms the process-wide calibration memo the
// predictor consults by predicting one program per processor count on a
// scratch engine, so that no timed request pays for calibration.
func calibrate(ctx context.Context, tr *tracer, srcByProcs map[int]string) error {
	procs := make([]int, 0, len(srcByProcs))
	for p := range srcByProcs {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	scratch := sweep.New(sweep.Options{Workers: 1})
	for _, p := range procs {
		s := tr.begin("calibrate")
		_, err := ipsc.CalibrateMachineContext(ctx, nil, p)
		tr.end(s, err)
		if err != nil {
			return fmt.Errorf("calibrate %d procs: %w", p, err)
		}
		if _, err := scratch.InterpretMachine(ctx, "", srcByProcs[p], compiler.Options{}, core.DefaultOptions()); err != nil {
			return fmt.Errorf("warm calibration for %d procs: %w", p, err)
		}
	}
	return nil
}

// frontEnd replays the compile of src: parser.Parse and
// sem.AnalyzeContext timed on their own, then the engine's compile,
// whose span excludes the parse and sem it repeats inside
// compiler.CompileWithContext.
func frontEnd(ctx context.Context, tr *tracer, eng *sweep.Engine, src string) (*hir.Program, error) {
	ps := tr.begin("parser")
	tree, err := parser.Parse(src)
	tr.end(ps, err)
	tr.setBytes(ps, len(src))
	if err != nil {
		return nil, err
	}
	ss := tr.begin("sem")
	_, err = sem.AnalyzeContext(ctx, tree)
	tr.end(ss, err)
	if err != nil {
		return nil, err
	}
	cs := tr.begin("compiler")
	prog, err := eng.CompileContext(ctx, src, compiler.Options{})
	tr.endDup(cs, err, tr.dur(ps)+tr.dur(ss))
	return prog, err
}

// price replays the admission gate's pricing of a new program.
func price(tr *tracer, prog *hir.Program) time.Duration {
	s := tr.begin("analysis")
	analysis.PriceProgram(prog)
	tr.end(s, nil)
	return tr.dur(s)
}

// predictCore replays a report-cache miss: the closure-compiled form is
// built (core.CompilePrediction through the engine's cache), then
// evaluated by Engine.InterpretMachine (Compiled.EvaluateWith).
func predictCore(ctx context.Context, tr *tracer, eng *sweep.Engine, src string, iopts core.Options) (*core.Report, error) {
	bs := tr.begin("core_build")
	_, err := eng.Cache().CompiledPrediction(ctx, src, compiler.Options{}, iopts, "", eng.Stats())
	tr.end(bs, err)
	if err != nil {
		return nil, err
	}
	es := tr.begin("core_eval")
	rep, err := eng.InterpretMachine(ctx, "", src, compiler.Options{}, iopts)
	tr.end(es, err)
	return rep, err
}

// shape is a predict response shape.
type shape int

const (
	plain shape = iota
	profile
	hotLines
)

const hotLinesN = 5

func (s shape) request(src string, opts *server.PredictOptions) server.PredictRequest {
	req := server.PredictRequest{Source: src, Options: opts}
	switch s {
	case profile:
		req.Profile = true
	case hotLines:
		req.HotLines = hotLinesN
	}
	return req
}

// render replays the handler's rendering of a response shape.
func render(tr *tracer, rep *core.Report, sh shape) time.Duration {
	if sh == plain || rep == nil {
		return 0
	}
	s := tr.begin("report")
	if sh == profile {
		report.Profile(rep)
	} else {
		report.HotLines(rep, hotLinesN)
	}
	tr.end(s, nil)
	return tr.dur(s)
}
