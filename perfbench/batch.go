package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/experiments"
	"hpfperf/internal/hir"
	"hpfperf/internal/server"
	"hpfperf/internal/suite"
	"hpfperf/internal/sweep"
)

// maxErrBand is the accuracy band TestTable2AccuracyBandsQuick enforces
// on the quick grid, in percent.
const maxErrBand = 30

// gridPoint is one (program, size, procs) point of the Table-2 quick grid.
type gridPoint struct {
	name        string
	size, procs int
	src         string
}

// table2Grid is the grid of experiments.Table2(experiments.QuickConfig())
// in its order: the first two problem sizes of each suite program, times
// its declared system sizes among {1, 4} (or its first two). n > 0 keeps
// only the first n programs.
func table2Grid(n int) []gridPoint {
	progs := suite.All()
	if n > 0 && n < len(progs) {
		progs = progs[:n]
	}
	var grid []gridPoint
	for _, p := range progs {
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
				grid = append(grid, gridPoint{name: p.Name, size: size, procs: np, src: p.Source(size, np)})
			}
		}
	}
	return grid
}

// table2Batch sends the Table-2 quick grid — a predict and a measure
// point per grid point — as one /v1/batch to a fresh server per call.
type table2Batch struct {
	serverState
	cfg   config
	grid  []gridPoint
	body  []byte
	spec  sweep.MeasureSpec
	first []float64 // the run's first grid: est_us / measured_us per point
}

func (w *table2Batch) describe() string {
	return fmt.Sprintf("closed loop, 1 caller; op = one point of a %d-point Table-2 /v1/batch sent to a fresh server (calibration warm)", 2*len(w.grid))
}

func (w *table2Batch) setup(ctx context.Context, tr *tracer) error {
	qc := experiments.QuickConfig()
	w.grid = table2Grid(w.cfg.size)
	w.spec = sweep.DefaultMeasureSpec(qc.Runs, qc.Perturb)
	req := server.BatchRequest{}
	byProcs := make(map[int]string)
	for _, gp := range w.grid {
		req.Points = append(req.Points,
			server.BatchPoint{Predict: &server.PredictRequest{Source: gp.src}},
			server.BatchPoint{Measure: &server.MeasureRequest{Source: gp.src, Runs: qc.Runs, Perturb: qc.Perturb}})
		if _, ok := byProcs[gp.procs]; !ok {
			byProcs[gp.procs] = gp.src
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	w.body = body
	if err := calibrate(ctx, tr, byProcs); err != nil {
		return err
	}
	w.newServer()
	return nil
}

func (w *table2Batch) do(ctx context.Context, i int) (time.Duration, callOutcome) {
	w.newServer()
	rec, lat := serve(w.h, "/v1/batch", w.body)
	return lat, w.outcome(rec)
}

func (w *table2Batch) doTraced(ctx context.Context, i int, tr *tracer) callOutcome {
	w.newServer()
	eng := w.srv.Engine()
	op := tr.beginOp()
	// The handler's order: one compile per source, the admission gate's
	// pricing of every program, then the points.
	progs := make([]*hir.Program, len(w.grid))
	for j, gp := range w.grid {
		progs[j], _ = frontEnd(ctx, tr, eng, gp.src) // the request reports any failure
	}
	var dup time.Duration
	for _, prog := range progs {
		if prog != nil {
			dup += price(tr, prog)
		}
	}
	for j, gp := range w.grid {
		if progs[j] == nil {
			continue
		}
		_, _ = predictCore(ctx, tr, eng, gp.src, core.DefaultOptions())
		xs := tr.begin("exec")
		_, err := eng.MeasureContext(ctx, gp.src, compiler.Options{}, w.spec)
		tr.end(xs, err)
	}
	rec := serveTraced(tr, w.h, "/v1/batch", w.body, dup)
	tr.end(op, nil)
	return w.outcome(rec)
}

// outcome counts a batch's failed points: per-point errors, points of
// the wrong kind, and points whose value differs from the run's first
// grid.
func (w *table2Batch) outcome(rec *httptest.ResponseRecorder) callOutcome {
	n := 2 * len(w.grid)
	if rec.Code != http.StatusOK {
		return statusOutcome(rec.Code, n)
	}
	oc := callOutcome{points: n, respBytes: rec.Body.Len()}
	var resp server.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != n {
		oc.failed = n
		return oc
	}
	vals := make([]float64, n)
	for j, r := range resp.Results {
		switch {
		case j%2 == 0 && r.Predict != nil:
			vals[j] = r.Predict.EstUS
		case j%2 == 1 && r.Measure != nil:
			vals[j] = r.Measure.MeasuredUS
		default:
			vals[j] = math.NaN()
			oc.failed++
		}
	}
	if w.first == nil {
		w.first = vals
		return oc
	}
	for j, v := range vals {
		if !math.IsNaN(v) && v != w.first[j] {
			oc.failed++
		}
	}
	return oc
}

func errPct(est, meas float64) float64 { return math.Abs(est-meas) / meas * 100 }

func (w *table2Batch) maxErrPct() float64 {
	m := 0.0
	for j := 0; j+1 < len(w.first); j += 2 {
		m = math.Max(m, errPct(w.first[j], w.first[j+1]))
	}
	return m
}

// check holds the run's first grid to the accuracy band and to the
// experiments harness's own Table 2, computed on a private engine.
func (w *table2Batch) check(ctx context.Context) (int64, []string) {
	if w.first == nil {
		return 0, []string{"no grid was served"}
	}
	var failed int64
	var problems []string
	for j, gp := range w.grid {
		est, meas := w.first[2*j], w.first[2*j+1]
		if e := errPct(est, meas); !(e <= maxErrBand) {
			failed += 2
			problems = append(problems, fmt.Sprintf("%s n=%d p=%d: error %.2f%% outside the %d%% band", gp.name, gp.size, gp.procs, e, maxErrBand))
		}
	}
	qc := experiments.QuickConfig()
	qc.Ctx = ctx
	qc.Engine = sweep.New(sweep.Options{})
	rows, err := experiments.Table2(qc)
	if err != nil {
		return failed, append(problems, fmt.Sprintf("reference experiments.Table2: %v", err))
	}
	var ref []experiments.AccuracyPoint
	for _, r := range rows {
		ref = append(ref, r.Points...)
	}
	for j, gp := range w.grid {
		if j >= len(ref) {
			failed += 2
			problems = append(problems, fmt.Sprintf("%s n=%d p=%d: not in the reference grid", gp.name, gp.size, gp.procs))
			continue
		}
		want := ref[j]
		if w.cfg.corruptRef {
			want.EstUS++
		}
		if want.Size != gp.size || want.Procs != gp.procs || want.EstUS != w.first[2*j] || want.MeasUS != w.first[2*j+1] {
			failed += 2
			problems = append(problems, fmt.Sprintf("%s n=%d p=%d: served est/meas %g/%g us, experiments.Table2 n=%d p=%d %g/%g us",
				gp.name, gp.size, gp.procs, w.first[2*j], w.first[2*j+1], want.Size, want.Procs, want.EstUS, want.MeasUS))
		}
	}
	return failed, problems
}
