package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/corpus"
	"hpfperf/internal/report"
	"hpfperf/internal/server"
)

// coldPrograms is how many corpus programs one fresh server answers on
// predict-cold: below sweep.DefaultCacheEntries (4096), so no run ever
// reaches the cache's eviction regime.
const coldPrograms = 2048

// checkedSamples is how many distinct requests per run are checked
// against the reference tree-walker.
const checkedSamples = 24

// predictCold sends seeded corpus programs, round-robin over the six
// kernel families, each once to a server that has not seen it.
type predictCold struct {
	serverState
	cfg     config
	srcs    []string
	iopts   []core.Options
	bodies  [][]byte
	samples predictSamples
}

func (w *predictCold) describe() string {
	return fmt.Sprintf("closed loop, 1 caller; op = one /v1/predict of a corpus program new to the server (fresh server every %d programs)", len(w.bodies))
}

func (w *predictCold) setup(ctx context.Context, tr *tracer) error {
	n := w.cfg.size
	if n <= 0 {
		n = coldPrograms
	}
	progs := corpus.Generate(w.cfg.seed, n)
	w.srcs = make([]string, n)
	w.iopts = make([]core.Options, n)
	w.bodies = make([][]byte, n)
	byProcs := make(map[int]string)
	for i, p := range progs {
		w.srcs[i] = p.Source
		w.iopts[i] = core.DefaultOptions()
		var opts *server.PredictOptions
		if d := p.MaskDensity(); d != 1 {
			opts = &server.PredictOptions{MaskDensity: d}
			w.iopts[i].MaskDensity = d
		}
		body, err := json.Marshal(plain.request(p.Source, opts))
		if err != nil {
			return err
		}
		w.bodies[i] = body
		if _, ok := byProcs[p.Procs]; !ok {
			byProcs[p.Procs] = p.Source
		}
	}
	if err := calibrate(ctx, tr, byProcs); err != nil {
		return err
	}
	w.newServer()
	w.samples = newSamples(w.cfg.seed, n)
	return nil
}

// program returns call i's program, moving to a fresh server each time
// the corpus wraps around. The old server's cache is collected at the
// switch, so every server starts from the same heap state rather than
// from wherever the collector's pacing left the previous one.
func (w *predictCold) program(i int) int {
	k := i % len(w.bodies)
	if k == 0 && i > 0 {
		w.newServer()
		runtime.GC()
	}
	return k
}

func (w *predictCold) do(ctx context.Context, i int) (time.Duration, callOutcome) {
	k := w.program(i)
	rec, lat := serve(w.h, "/v1/predict", w.bodies[k])
	return lat, w.samples.outcome(k, rec)
}

func (w *predictCold) doTraced(ctx context.Context, i int, tr *tracer) callOutcome {
	k := w.program(i)
	eng := w.srv.Engine()
	op := tr.beginOp()
	var dup time.Duration
	if prog, err := frontEnd(ctx, tr, eng, w.srcs[k]); err == nil {
		dup = price(tr, prog)
		_, _ = predictCore(ctx, tr, eng, w.srcs[k], w.iopts[k]) // the request reports any failure
	}
	rec := serveTraced(tr, w.h, "/v1/predict", w.bodies[k], dup)
	tr.end(op, nil)
	return w.samples.outcome(k, rec)
}

func (w *predictCold) check(ctx context.Context) (int64, []string) {
	return w.samples.check(ctx, w.cfg.corruptRef, func(k int) (string, core.Options, shape) {
		return w.srcs[k], w.iopts[k], plain
	})
}

func (w *predictCold) maxErrPct() float64 { return 0 }

// hotKey is one predict-hot request: a grid source in one shape.
type hotKey struct {
	src   int
	shape shape
}

// predictHot requests the Table-2 quick-grid sources in three response
// shapes, every one a report-cache hit after the set-up warm-up.
type predictHot struct {
	serverState
	cfg     config
	grid    []gridPoint
	keys    []hotKey
	bodies  [][]byte
	reps    []*core.Report // per grid source, for the replayed rendering
	order   []int
	samples predictSamples
}

func (w *predictHot) describe() string {
	return fmt.Sprintf("closed loop, 1 caller; op = one /v1/predict answered from the report cache (%d keys: %d Table-2 sources x 3 shapes)", len(w.keys), len(w.grid))
}

func (w *predictHot) setup(ctx context.Context, tr *tracer) error {
	w.grid = table2Grid(w.cfg.size)
	w.keys, w.bodies = w.keys[:0], w.bodies[:0]
	byProcs := make(map[int]string)
	for j, gp := range w.grid {
		for _, sh := range []shape{plain, profile, hotLines} {
			body, err := json.Marshal(sh.request(gp.src, nil))
			if err != nil {
				return err
			}
			w.keys = append(w.keys, hotKey{src: j, shape: sh})
			w.bodies = append(w.bodies, body)
		}
		if _, ok := byProcs[gp.procs]; !ok {
			byProcs[gp.procs] = gp.src
		}
	}
	if err := calibrate(ctx, tr, byProcs); err != nil {
		return err
	}
	w.newServer()
	for k, body := range w.bodies {
		if rec, _ := serve(w.h, "/v1/predict", body); rec.Code != http.StatusOK {
			return fmt.Errorf("warm-up request %d: HTTP %d: %s", k, rec.Code, rec.Body.String())
		}
	}
	w.reps = make([]*core.Report, len(w.grid))
	for j, gp := range w.grid {
		rep, err := w.srv.Engine().InterpretMachine(ctx, "", gp.src, compiler.Options{}, core.DefaultOptions())
		if err != nil {
			return err
		}
		w.reps[j] = rep
	}
	w.order = rand.New(rand.NewSource(w.cfg.seed)).Perm(len(w.keys))
	w.samples = newSamples(w.cfg.seed, len(w.keys))
	return nil
}

func (w *predictHot) do(ctx context.Context, i int) (time.Duration, callOutcome) {
	k := w.order[i%len(w.order)]
	rec, lat := serve(w.h, "/v1/predict", w.bodies[k])
	return lat, w.samples.outcome(k, rec)
}

func (w *predictHot) doTraced(ctx context.Context, i int, tr *tracer) callOutcome {
	k := w.order[i%len(w.order)]
	op := tr.beginOp()
	dup := render(tr, w.reps[w.keys[k].src], w.keys[k].shape)
	rec := serveTraced(tr, w.h, "/v1/predict", w.bodies[k], dup)
	tr.end(op, nil)
	return w.samples.outcome(k, rec)
}

func (w *predictHot) check(ctx context.Context) (int64, []string) {
	return w.samples.check(ctx, w.cfg.corruptRef, func(k int) (string, core.Options, shape) {
		return w.grid[w.keys[k].src].src, core.DefaultOptions(), w.keys[k].shape
	})
}

func (w *predictHot) maxErrPct() float64 { return 0 }

// predictSamples keeps the first response of each sampled request and
// checks every later response of the same request against it.
type predictSamples struct {
	want map[int]bool
	got  map[int]*server.PredictResponse
}

// newSamples picks a seeded sample of request indices out of n.
func newSamples(seed int64, n int) predictSamples {
	s := predictSamples{want: make(map[int]bool), got: make(map[int]*server.PredictResponse)}
	for _, k := range rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(n)[:min(checkedSamples, n)] {
		s.want[k] = true
	}
	return s
}

// outcome classifies the response to request k.
func (s *predictSamples) outcome(k int, rec *httptest.ResponseRecorder) callOutcome {
	if rec.Code != http.StatusOK {
		oc := statusOutcome(rec.Code, 1)
		oc.key = k
		return oc
	}
	oc := callOutcome{key: k, points: 1, respBytes: rec.Body.Len()}
	if s.want[k] {
		var r server.PredictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
			oc.failed = 1
		} else if first, ok := s.got[k]; !ok {
			s.got[k] = &r
		} else if !samePrediction(first, &r) {
			oc.failed = 1
		}
	}
	return oc
}

// check compares the first response of every sampled request with the
// reference tree-walker; input returns the request's source, options
// and shape.
func (s *predictSamples) check(ctx context.Context, corrupt bool, input func(k int) (string, core.Options, shape)) (int64, []string) {
	if len(s.got) == 0 {
		return 0, []string{"no sampled response was served"}
	}
	keys := make([]int, 0, len(s.got))
	for k := range s.got {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var failed int64
	var problems []string
	for _, k := range keys {
		src, iopts, sh := input(k)
		if err := checkTree(ctx, src, iopts, sh, s.got[k], corrupt); err != nil {
			failed++
			problems = append(problems, fmt.Sprintf("request %d: %v", k, err))
		}
	}
	return failed, problems
}

// checkTree compares a served prediction with the reference
// tree-walking interpreter (core.Interpreter.InterpretTree) on the same
// program and options.
func checkTree(ctx context.Context, src string, iopts core.Options, sh shape, got *server.PredictResponse, corrupt bool) error {
	prog, err := compiler.CompileWithContext(ctx, src, compiler.Options{})
	if err != nil {
		return fmt.Errorf("reference compile: %w", err)
	}
	it, err := core.NewContext(ctx, prog, nil, iopts)
	if err != nil {
		return fmt.Errorf("reference interpreter: %w", err)
	}
	ref, err := it.InterpretTree()
	if err != nil {
		return fmt.Errorf("reference interpretation: %w", err)
	}
	want := &server.PredictResponse{EstUS: ref.TotalUS(), CompUS: ref.Total.CompUS, CommUS: ref.Total.CommUS, OvhdUS: ref.Total.OvhdUS}
	if corrupt {
		want.EstUS++
	}
	switch sh {
	case profile:
		want.Profile = report.Profile(ref)
	case hotLines:
		want.HotLines = report.HotLines(ref, hotLinesN)
	}
	if !samePrediction(want, got) {
		return fmt.Errorf("served est/comp/comm/ovhd %g/%g/%g/%g us, tree-walker %g/%g/%g/%g us (or rendering differs)",
			got.EstUS, got.CompUS, got.CommUS, got.OvhdUS, want.EstUS, want.CompUS, want.CommUS, want.OvhdUS)
	}
	return nil
}

func samePrediction(a, b *server.PredictResponse) bool {
	return a.EstUS == b.EstUS && a.CompUS == b.CompUS && a.CommUS == b.CommUS && a.OvhdUS == b.OvhdUS &&
		a.Profile == b.Profile && a.HotLines == b.HotLines
}
