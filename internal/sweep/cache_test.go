package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/obs"
)

// tinySource generates a distinct-but-valid program per n so churn tests
// can exercise eviction with thousands of unique cache keys cheaply.
func tinySource(n int) string {
	return fmt.Sprintf(`      PROGRAM T%d
!HPF$ PROCESSORS P(4)
      REAL A(%d)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
      A = %d.0
      PRINT *, A(1)
      END PROGRAM T%d
`, n, 32+n%8, n, n)
}

func TestCacheBoundedUnderChurn(t *testing.T) {
	// Acceptance criterion: memory stays bounded when 10k distinct
	// sources stream through a small cache, and evictions are counted.
	const cap = 64
	const distinct = 10000
	c := NewCacheSize(cap)
	var stats Stats
	ctx := context.Background()
	for i := 0; i < distinct; i++ {
		if _, err := c.Compile(ctx, tinySource(i), compiler.Options{}, &stats); err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
	}
	cs := c.CacheStats()
	if cs.CompileEntries > cap {
		t.Errorf("compile entries = %d, exceeds cap %d", cs.CompileEntries, cap)
	}
	if cs.CompileEntries != cap {
		t.Errorf("compile entries = %d, want full cache %d", cs.CompileEntries, cap)
	}
	if want := int64(distinct - cap); cs.CompileEvictions != want {
		t.Errorf("compile evictions = %d, want %d", cs.CompileEvictions, want)
	}
	if got := stats.Compiles.Load(); got != distinct {
		t.Errorf("compiles = %d, want %d (every source distinct)", got, distinct)
	}
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	// With cap 2: insert A, B, touch A, insert C -> B (least recent) is
	// evicted, A and C survive and hit.
	c := NewCacheSize(2)
	var stats Stats
	ctx := context.Background()
	srcA, srcB, srcC := tinySource(1), tinySource(2), tinySource(3)

	for _, src := range []string{srcA, srcB, srcA, srcC} {
		if _, err := c.Compile(ctx, src, compiler.Options{}, &stats); err != nil {
			t.Fatal(err)
		}
	}
	// 3 misses (A, B, C) + 1 hit (A's second lookup).
	if got := stats.CompileMisses.Load(); got != 3 {
		t.Fatalf("misses = %d, want 3", got)
	}
	if got := stats.CompileHits.Load(); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}

	// A and C should still be cached; B was evicted and recompiles.
	before := stats.Compiles.Load()
	c.Compile(ctx, srcA, compiler.Options{}, &stats)
	c.Compile(ctx, srcC, compiler.Options{}, &stats)
	if got := stats.Compiles.Load(); got != before {
		t.Errorf("A/C lookups recompiled (%d -> %d); LRU touch not honored", before, got)
	}
	c.Compile(ctx, srcB, compiler.Options{}, &stats)
	if got := stats.Compiles.Load(); got != before+1 {
		t.Errorf("B lookup after eviction: compiles %d -> %d, want +1", before, got)
	}
	if ev := c.CacheStats().CompileEvictions; ev < 1 {
		t.Errorf("evictions = %d, want >= 1", ev)
	}
}

func TestReportCacheBoundedUnderChurn(t *testing.T) {
	const cap = 16
	c := NewCacheSize(cap)
	var stats Stats
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if _, err := c.Interpret(ctx, tinySource(i), compiler.Options{}, core.DefaultOptions(), "", &stats); err != nil {
			t.Fatalf("interpret %d: %v", i, err)
		}
	}
	cs := c.CacheStats()
	if cs.ReportEntries > cap {
		t.Errorf("report entries = %d, exceeds cap %d", cs.ReportEntries, cap)
	}
	if want := int64(100 - cap); cs.ReportEvictions != want {
		t.Errorf("report evictions = %d, want %d", cs.ReportEvictions, want)
	}
}

func TestCompileWaiterHonorsContext(t *testing.T) {
	// A waiter whose context is already cancelled must not park on a
	// builder that never finishes. Simulate by inserting a never-done
	// entry the way a concurrent builder would hold it.
	c := NewCacheSize(8)
	src := tinySource(0)
	key := compileKey(src, compiler.Options{})
	c.mu.Lock()
	c.programs.add(key) // never filled
	c.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Compile(ctx, src, compiler.Options{}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Errorf("waiter did not honor its context promptly")
	}
}

func TestCancelledInterpretNotCached(t *testing.T) {
	// An interpret whose build is cancelled mid-way must not leave a
	// poisoned ctx-error entry: the next request with a live context
	// should rebuild and succeed.
	c := NewCacheSize(8)
	var stats Stats
	src := tinySource(7)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Interpret(ctx, src, compiler.Options{}, core.DefaultOptions(), "", &stats)
	if err == nil {
		t.Fatal("want error from cancelled interpret")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	rep, err := c.Interpret(context.Background(), src, compiler.Options{}, core.DefaultOptions(), "", &stats)
	if err != nil {
		t.Fatalf("retry after cancellation: %v (poisoned cache?)", err)
	}
	if rep == nil || rep.TotalUS() <= 0 {
		t.Fatalf("retry produced no report")
	}
}

func TestCompilePanicBecomesError(t *testing.T) {
	// recoverToErr must turn a front-end panic into an error and still
	// close the single-flight channel (a second lookup returns the same
	// cached error instead of hanging).
	c := NewCacheSize(8)
	var stats Stats
	// A NUL byte makes the scanner's column arithmetic safe but exercises
	// robustness; if nothing in the pipeline panics on this input the test
	// still verifies error (not hang) semantics end to end.
	src := "      PROGRAM P\n\x00\x00\xff garbage \n      END\n"
	done := make(chan struct{})
	var err1, err2 error
	go func() {
		defer close(done)
		_, err1 = c.Compile(context.Background(), src, compiler.Options{}, &stats)
		_, err2 = c.Compile(context.Background(), src, compiler.Options{}, &stats)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("compile hung on malformed input")
	}
	if err1 == nil || err2 == nil {
		t.Fatalf("errs = %v / %v, want errors for garbage input", err1, err2)
	}
	if err1.Error() != err2.Error() {
		t.Errorf("second lookup returned different error: %v vs %v", err1, err2)
	}
}

func TestMapCtxCancellation(t *testing.T) {
	// Cancelling mid-sweep stops feeding new items and returns the
	// context error rather than running all n points.
	e := New(Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	_, err := MapCtx(ctx, e, 1000, func(i int) (int, error) {
		select {
		case started <- struct{}{}:
			cancel()
		default:
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestInterpretMachineKeyedSeparately(t *testing.T) {
	// The same source on two machine abstractions must produce two
	// distinct cached reports, not one shadowing the other.
	c := NewCacheSize(8)
	var stats Stats
	src := tinySource(5)
	ctx := context.Background()
	r1, err := c.Interpret(ctx, src, compiler.Options{}, core.DefaultOptions(), "", &stats)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Interpret(ctx, src, compiler.Options{}, core.DefaultOptions(), "paragon", &stats)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalUS() == r2.TotalUS() {
		t.Errorf("iPSC/860 and Paragon predictions identical (%v us); machine missing from key?", r1.TotalUS())
	}
	if got := stats.ReportMisses.Load(); got != 2 {
		t.Errorf("report misses = %d, want 2 (distinct keys)", got)
	}
}

func TestSnapshotIncludesEvictions(t *testing.T) {
	// Engine snapshot and cache stats stay consistent after churn.
	eng := New(Options{Workers: 2, Cache: NewCacheSize(4)})
	for i := 0; i < 12; i++ {
		if _, err := eng.CompileContext(context.Background(), tinySource(i), compiler.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	cs := eng.Cache().CacheStats()
	if cs.CompileEntries != 4 || cs.CompileEvictions != 8 {
		t.Errorf("entries/evictions = %d/%d, want 4/8", cs.CompileEntries, cs.CompileEvictions)
	}
	snap := eng.Snapshot()
	if snap.Compiles != 12 {
		t.Errorf("compiles = %d, want 12", snap.Compiles)
	}
	if !strings.Contains(snap.String(), "compile") {
		t.Errorf("snapshot string missing stage names: %s", snap)
	}
}

func TestMeasureCachedDeterministic(t *testing.T) {
	// Two identical measure requests run the simulator once and share
	// the result; changing any spec field is a distinct key.
	c := NewCacheSize(8)
	var stats Stats
	src := tinySource(3)
	spec := DefaultMeasureSpec(1, 0.01)

	r1, err := c.Measure(context.Background(), src, compiler.Options{}, spec, &stats)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Measure(context.Background(), src, compiler.Options{}, spec, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical specs did not share one cached result")
	}
	if got := stats.Execs.Load(); got != 1 {
		t.Errorf("execs = %d, want 1", got)
	}
	if stats.ExecHits.Load() != 1 || stats.ExecMisses.Load() != 1 {
		t.Errorf("exec cache = %d hit / %d miss, want 1/1",
			stats.ExecHits.Load(), stats.ExecMisses.Load())
	}

	reseeded := spec
	reseeded.Seed++
	r3, err := c.Measure(context.Background(), src, compiler.Options{}, reseeded, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Error("different seeds shared one cache entry")
	}
	if got := stats.Execs.Load(); got != 2 {
		t.Errorf("execs after reseed = %d, want 2", got)
	}
}

func TestMeasureRunsNormalizedBeforeKeying(t *testing.T) {
	// runs <= 0 means one timed run everywhere; the zero and one forms
	// must land on the same cache entry.
	c := NewCacheSize(8)
	var stats Stats
	src := tinySource(4)
	r1, err := c.Measure(context.Background(), src, compiler.Options{}, DefaultMeasureSpec(0, 0), &stats)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Measure(context.Background(), src, compiler.Options{}, DefaultMeasureSpec(1, 0), &stats)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("runs=0 and runs=1 produced distinct cache entries")
	}
}

func TestCancelledMeasureNotCached(t *testing.T) {
	c := NewCacheSize(8)
	var stats Stats
	src := tinySource(5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Measure(ctx, src, compiler.Options{}, DefaultMeasureSpec(1, 0), &stats); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	res, err := c.Measure(context.Background(), src, compiler.Options{}, DefaultMeasureSpec(1, 0), &stats)
	if err != nil {
		t.Fatalf("retry after cancellation: %v (poisoned cache?)", err)
	}
	if res == nil || res.MeasuredUS <= 0 {
		t.Fatal("retry produced no measurement")
	}
}

func TestCompiledPredictionSharedAcrossValues(t *testing.T) {
	// The compiled form is keyed by static options only: requests that
	// differ in Values/TripCounts share one form and miss only the
	// report cache, exercising the EvaluateWith path.
	c := NewCacheSize(16)
	var stats Stats
	src := tinySource(6)

	a := core.DefaultOptions()
	if _, err := c.Interpret(context.Background(), src, compiler.Options{}, a, "", &stats); err != nil {
		t.Fatal(err)
	}
	b := core.DefaultOptions()
	b.TripCounts = map[int]int{5: 9}
	if _, err := c.Interpret(context.Background(), src, compiler.Options{}, b, "", &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats.ReportMisses.Load(); got != 2 {
		t.Errorf("report misses = %d, want 2 (distinct dynamic options)", got)
	}
	if stats.PredictMisses.Load() != 1 || stats.PredictHits.Load() != 1 {
		t.Errorf("predict cache = %d hit / %d miss, want 1/1 (one shared form)",
			stats.PredictHits.Load(), stats.PredictMisses.Load())
	}
}

// spanSrc has loops, a DO WHILE (line 9), a scalar conditional and
// communication, so its interp span tree has every nesting shape.
const spanSrc = `PROGRAM spans
REAL A(64)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
X = 1.0
DO I = 1, 4
  FORALL (K=2:64) A(K) = A(K-1) * 0.5
END DO
DO WHILE (X .LT. 100.0)
  X = X * 2.0
END DO
IF (X .GT. 1.0) THEN
  Y = 2.0
END IF
S = SUM(A)
PRINT *, S
END`

// interpSpans lists a trace's interp.<kind> spans as "depth name line",
// in creation order.
func interpSpans(tr *obs.Tracer) []string {
	var out []string
	tr.Tree().Root.Walk(func(depth int, n *obs.Node) {
		if strings.HasPrefix(n.Name, "interp.") {
			out = append(out, fmt.Sprintf("%d %s %s", depth, n.Name, n.Attrs["line"]))
		}
	})
	return out
}

// TestSharedFormTracesEachRequest sends two traced requests for one
// source through the cache; the second misses the report cache but
// evaluates the compiled form the first one built. A form is shared, so
// it must never hold on to the span of the request that built it: each
// trace gets exactly the interp spans of its own evaluation.
func TestSharedFormTracesEachRequest(t *testing.T) {
	prog, err := compiler.Compile(spanSrc)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCacheSize(8)
	var stats Stats
	var tracers [2]*obs.Tracer
	var want [2][]string
	var traced *core.Report
	for i, trips := range []int{3, 5} {
		opts := core.DefaultOptions()
		opts.TripCounts = map[int]int{9: trips}

		// Reference: the same interpretation traced directly.
		ref := obs.NewTracer(obs.NewTraceID())
		rroot := ref.Root("reference")
		ictx, ispan := obs.Start(obs.ContextWithSpan(context.Background(), rroot), "interp")
		it, err := core.NewContext(ictx, prog, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := it.Interpret(); err != nil {
			t.Fatal(err)
		}
		ispan.End()
		rroot.End()
		want[i] = interpSpans(ref)

		tracers[i] = obs.NewTracer(obs.NewTraceID())
		root := tracers[i].Root("request")
		rep, err := c.Interpret(obs.ContextWithSpan(context.Background(), root), spanSrc, compiler.Options{}, opts, "", &stats)
		root.End()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if i == 0 {
			traced = rep
		}
	}
	if stats.PredictMisses.Load() != 1 || stats.PredictHits.Load() != 1 {
		t.Fatalf("predict cache = %d hit / %d miss, want 1/1 (second request reuses the form)",
			stats.PredictHits.Load(), stats.PredictMisses.Load())
	}
	if len(want[0]) == 0 {
		t.Fatal("reference trace has no interp spans")
	}
	for i, tr := range tracers {
		got := interpSpans(tr)
		if strings.Join(got, "\n") != strings.Join(want[i], "\n") {
			t.Errorf("request %d: interp spans\n%s\nwant\n%s", i, strings.Join(got, "\n"), strings.Join(want[i], "\n"))
		}
	}

	// Tracing does not change the prediction.
	opts := core.DefaultOptions()
	opts.TripCounts = map[int]int{9: 3}
	untraced, err := NewCacheSize(8).Interpret(context.Background(), spanSrc, compiler.Options{}, opts, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := core.DiffReports(untraced, traced); d != "" {
		t.Errorf("traced report differs from untraced: %s", d)
	}
}

func TestCacheInterpretMatchesTreeWalk(t *testing.T) {
	// The cached compiled-form evaluation must be byte-identical to a
	// fresh tree-walking interpretation of the same program.
	c := NewCacheSize(8)
	var stats Stats
	src := tinySource(8)
	rep, err := c.Interpret(context.Background(), src, compiler.Options{}, core.DefaultOptions(), "", &stats)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	it, err := core.New(prog, nil, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := it.InterpretTree()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != ref.Total || rep.TotalUS() != ref.TotalUS() {
		t.Errorf("cached compiled report diverges: %+v vs tree-walk %+v", rep.Total, ref.Total)
	}
}
