// Package sweep is the shared point-level evaluation engine behind the
// experiment harness (§5's tables and figures) and the autotune
// directive search. It flattens arbitrary (program × size × procs)
// point grids — and directive-candidate lists — into one bounded worker
// pool with deterministic result ordering, and memoizes the compilation
// pipeline (and whole interpretation runs) so repeated variants of the
// same source skip scanner→parser→sem→compiler entirely.
//
// The paper's central claim (§5.3, Figure 8) is that interpretation is
// cheap enough to replace measurement in the experimentation loop; this
// package is what keeps the reproduction's own loop cheap: hundreds of
// sweep points share one pool and one cache instead of recompiling from
// scratch point by point.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/exec"
	"hpfperf/internal/faults"
	"hpfperf/internal/hir"
	"hpfperf/internal/obs"
)

// Engine couples a bounded worker pool with a compile/prediction cache
// and a stats block. Engines are cheap; several engines may share one
// Cache and/or one Stats.
type Engine struct {
	workers int
	cache   *Cache
	stats   *Stats
	retry   RetryPolicy
}

// Options configure a new engine.
type Options struct {
	// Workers bounds pool concurrency; <= 0 means GOMAXPROCS.
	Workers int
	// Cache supplies a shared memoization cache; nil creates a private one.
	Cache *Cache
	// Stats receives counters; nil creates a private block.
	Stats *Stats
	// Retry bounds the per-point retry loop for transient failures
	// (zero value selects DefaultRetryPolicy).
	Retry RetryPolicy
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	e := &Engine{workers: opts.Workers, cache: opts.Cache, stats: opts.Stats, retry: opts.Retry.normalized()}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	if e.cache == nil {
		e.cache = NewCache()
	}
	if e.stats == nil {
		e.stats = &Stats{}
	}
	return e
}

var (
	defaultOnce   sync.Once
	defaultEngine *Engine
)

// Default returns the process-wide shared engine. Its cache is what
// lets Figure 8 reuse the Laplace programs already compiled for
// Figures 4/5, and repeated autotune searches reuse each other's
// variants.
func Default() *Engine {
	defaultOnce.Do(func() { defaultEngine = New(Options{}) })
	return defaultEngine
}

// Workers returns the pool bound.
func (e *Engine) Workers() int { return e.workers }

// Cache returns the engine's memoization cache.
func (e *Engine) Cache() *Cache { return e.cache }

// Stats returns the engine's live counter block.
func (e *Engine) Stats() *Stats { return e.stats }

// Snapshot returns a consistent copy of the engine's counters.
func (e *Engine) Snapshot() Snapshot { return e.stats.Snapshot() }

// Map evaluates fn(0..n-1) on the engine's worker pool and returns the
// results in index order: results[i] is fn(i) regardless of completion
// order, so sweeps stay byte-identical to their serial form. On
// failures the error of the lowest failing index is returned (matching
// what a serial loop would have surfaced first); results of successful
// points are still filled in.
//
// Each point runs isolated: a panicking fn is recovered into a
// *PanicError instead of crashing the pool, and transient failures
// (IsTransient) are retried under the engine's RetryPolicy with
// exponential backoff and jitter. Deterministic errors fail the point
// on the first attempt, so happy-path sweeps behave exactly as before.
func Map[T any](e *Engine, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), e, n, fn)
}

// guardPoint runs one attempt of one point, recovering panics into
// typed errors so a single bad point cannot take down the process.
func guardPoint[T any](e *Engine, i int, fn func(i int) (T, error)) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.stats.PointPanics.Add(1)
			err = &PanicError{Stage: fmt.Sprintf("sweep point %d", i), Value: r}
		}
	}()
	if err := faults.Fire(faults.SiteSweep); err != nil {
		return res, err
	}
	return fn(i)
}

// runPoint is the per-point body of MapCtx: panic isolation plus
// bounded retry of transient failures.
func runPoint[T any](ctx context.Context, e *Engine, i int, fn func(i int) (T, error)) (T, error) {
	_, span := obs.Start(ctx, "sweep.point")
	span.SetAttrInt("index", i)
	defer span.End()
	for attempt := 1; ; attempt++ {
		res, err := guardPoint(e, i, fn)
		if err == nil || attempt >= e.retry.MaxAttempts || !IsTransient(err) {
			if attempt > 1 {
				span.SetAttrInt("retries", attempt-1)
			}
			return res, err
		}
		e.stats.Retries.Add(1)
		t := time.NewTimer(e.retry.backoff(attempt))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return res, err // report the attempt's failure, not ctx.Err()
		}
	}
}

// MapCtx is Map with cooperative cancellation: once ctx ends, no new
// points are dispatched and every undispatched index carries ctx.Err().
// Points already running are left to finish (fn should itself observe
// ctx for long-running bodies).
func MapCtx[T any](ctx context.Context, e *Engine, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	start := time.Now()
	errs := make([]error, n)
	workers := e.workers
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				results[i], errs[i] = runPoint(ctx, e, i, fn)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			for j := i; j < n; j++ {
				errs[j] = ctx.Err()
			}
			break feed
		}
	}
	close(next)
	wg.Wait()
	e.stats.Points.Add(int64(n))
	e.stats.WallNS.Add(int64(time.Since(start)))
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Compile returns the compiled program for src via the engine's cache.
func (e *Engine) Compile(src string, opts compiler.Options) (*hir.Program, error) {
	return e.CompileContext(context.Background(), src, opts)
}

// CompileContext is Compile with cooperative cancellation: a caller
// whose ctx ends while another worker builds the same key stops
// waiting and returns the ctx error.
func (e *Engine) CompileContext(ctx context.Context, src string, opts compiler.Options) (*hir.Program, error) {
	return e.cache.Compile(ctx, src, opts, e.stats)
}

// Program returns the compile-cache entry for src: the program and its
// lazily built unpinned analysis (definition trace and static price),
// so one lookup serves compilation, cost admission and analysis.
func (e *Engine) Program(ctx context.Context, src string, opts compiler.Options) (*Program, error) {
	return e.cache.Program(ctx, src, opts, e.stats)
}

// Interpret compiles (cached) and interprets (cached when the options
// are fingerprintable) src on the default machine abstraction.
func (e *Engine) Interpret(src string, copts compiler.Options, iopts core.Options) (*core.Report, error) {
	return e.InterpretContext(context.Background(), src, copts, iopts)
}

// InterpretContext is Interpret with cooperative cancellation.
func (e *Engine) InterpretContext(ctx context.Context, src string, copts compiler.Options, iopts core.Options) (*core.Report, error) {
	return e.cache.Interpret(ctx, src, copts, iopts, "", e.stats)
}

// InterpretMachine interprets src on the named machine abstraction
// ("" = default iPSC/860), caching per (source, options, machine).
func (e *Engine) InterpretMachine(ctx context.Context, machine, src string, copts compiler.Options, iopts core.Options) (*core.Report, error) {
	return e.cache.Interpret(ctx, src, copts, iopts, machine, e.stats)
}

// Measure executes src on the simulated machine selected by spec,
// memoizing the deterministic result per (source, options, spec). The
// returned *exec.Result is shared — treat it as read-only.
func (e *Engine) Measure(src string, copts compiler.Options, spec MeasureSpec) (*exec.Result, error) {
	return e.MeasureContext(context.Background(), src, copts, spec)
}

// MeasureContext is Measure with cooperative cancellation: the
// simulator's statement loop observes ctx, and a cancelled run is not
// cached.
func (e *Engine) MeasureContext(ctx context.Context, src string, copts compiler.Options, spec MeasureSpec) (*exec.Result, error) {
	return e.cache.Measure(ctx, src, copts, spec, e.stats)
}

// EstimateAndMeasure is the per-point body of every accuracy sweep: it
// compiles src once (cached), interprets it for the estimated time
// (cached) and executes it on the simulated iPSC/860 for the measured
// time (also cached — the simulator is deterministic per MeasureSpec).
// runs <= 0 means one timed run; perturb is the measured-run load
// fluctuation amplitude.
func (e *Engine) EstimateAndMeasure(src string, runs int, perturb float64) (estUS, measUS float64, err error) {
	return e.EstimateAndMeasureContext(context.Background(), src, runs, perturb)
}

// EstimateAndMeasureContext is EstimateAndMeasure with cooperative
// cancellation of both the interpretation and the simulated execution.
func (e *Engine) EstimateAndMeasureContext(ctx context.Context, src string, runs int, perturb float64) (estUS, measUS float64, err error) {
	rep, err := e.InterpretContext(ctx, src, compiler.Options{}, core.DefaultOptions())
	if err != nil {
		return 0, 0, err
	}
	res, err := e.MeasureContext(ctx, src, compiler.Options{}, DefaultMeasureSpec(runs, perturb))
	if err != nil {
		return 0, 0, err
	}
	return rep.TotalUS(), res.MeasuredUS, nil
}
