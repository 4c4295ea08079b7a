package sweep

import (
	"context"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
)

// TestEvictionFreesDerivedArtifacts: everything derived from a program
// lives under its compile entry, so evicting the entry frees its form,
// its report and its measurement, and counts each as an eviction of its
// kind.
func TestEvictionFreesDerivedArtifacts(t *testing.T) {
	const cacheCap = 8
	c := NewCacheSize(cacheCap)
	var stats Stats
	ctx := context.Background()
	src := tinySource(100)
	if _, err := c.Interpret(ctx, src, compiler.Options{}, core.DefaultOptions(), "", &stats); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Measure(ctx, src, compiler.Options{}, DefaultMeasureSpec(1, 0), &stats); err != nil {
		t.Fatal(err)
	}
	if cs := c.CacheStats(); cs.PredictEntries != 1 || cs.ReportEntries != 1 || cs.MeasureEntries != 1 {
		t.Fatalf("before churn: predict/report/measure entries = %d/%d/%d, want 1/1/1",
			cs.PredictEntries, cs.ReportEntries, cs.MeasureEntries)
	}
	for i := 0; i < cacheCap; i++ {
		if _, err := c.Compile(ctx, tinySource(i), compiler.Options{}, &stats); err != nil {
			t.Fatal(err)
		}
	}
	cs := c.CacheStats()
	if cs.CompileEntries != cacheCap || cs.CompileEvictions != 1 {
		t.Errorf("compile entries/evictions = %d/%d, want %d/1", cs.CompileEntries, cs.CompileEvictions, cacheCap)
	}
	if cs.PredictEntries != 0 || cs.ReportEntries != 0 || cs.MeasureEntries != 0 {
		t.Errorf("after eviction: predict/report/measure entries = %d/%d/%d, want 0/0/0",
			cs.PredictEntries, cs.ReportEntries, cs.MeasureEntries)
	}
	if cs.PredictEvictions != 1 || cs.ReportEvictions != 1 || cs.MeasureEvictions != 1 {
		t.Errorf("predict/report/measure evictions = %d/%d/%d, want 1/1/1",
			cs.PredictEvictions, cs.ReportEvictions, cs.MeasureEvictions)
	}
}

// TestTripCountVariantsStayInTheirEntry: one source queried with more
// trip-count variants than an entry holds churns its own reports only.
// It compiles once, the programs sharing the cache never recompile, its
// report count stays within the per-entry bound, and every report
// equals a fresh interpretation.
func TestTripCountVariantsStayInTheirEntry(t *testing.T) {
	const variants = 20
	c := NewCacheSize(4)
	var stats Stats
	ctx := context.Background()
	others := []string{tinySource(1), tinySource(2), tinySource(3)}
	for _, src := range others {
		if _, err := c.Interpret(ctx, src, compiler.Options{}, core.DefaultOptions(), "", &stats); err != nil {
			t.Fatal(err)
		}
	}
	p, err := c.Program(ctx, spanSrc, compiler.Options{}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < variants; v++ {
		opts := core.DefaultOptions()
		opts.TripCounts = map[int]int{9: v + 1} // the DO WHILE
		rep, err := c.Interpret(ctx, spanSrc, compiler.Options{}, opts, "", &stats)
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		c.mu.Lock()
		held := len(p.reports.cells)
		c.mu.Unlock()
		if held > entryArtifacts {
			t.Fatalf("variant %d: entry holds %d reports, bound is %d", v, held, entryArtifacts)
		}
		it, err := core.New(p.Prog, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := it.InterpretTree()
		if err != nil {
			t.Fatal(err)
		}
		if d := core.DiffReports(ref, rep); d != "" {
			t.Errorf("variant %d: cached report differs from a fresh interpretation: %s", v, d)
		}
	}
	for _, src := range others {
		if _, err := c.Compile(ctx, src, compiler.Options{}, &stats); err != nil {
			t.Fatal(err)
		}
	}
	if got := stats.Compiles.Load(); got != 4 {
		t.Errorf("compiles = %d, want 4 (each program once)", got)
	}
	cs := c.CacheStats()
	if cs.CompileEvictions != 0 {
		t.Errorf("compile evictions = %d, want 0", cs.CompileEvictions)
	}
	if want := int64(variants - entryArtifacts); cs.ReportEvictions != want {
		t.Errorf("report evictions = %d, want %d", cs.ReportEvictions, want)
	}
	if want := len(others) + entryArtifacts; cs.ReportEntries != want {
		t.Errorf("report entries = %d, want %d", cs.ReportEntries, want)
	}
}

// TestCacheStatsMatchRecountAfterChurn races lookups, cancellations,
// injected faults and eviction churn, with goroutines holding entries
// across their eviction and adding artifacts to them. Afterwards the
// per-kind occupancy CacheStats reports must equal a recount over the
// live entries: an artifact added to or dropped from an evicted entry
// must not have moved the live counts.
func TestCacheStatsMatchRecountAfterChurn(t *testing.T) {
	withFaults(t, "compile:0.1:error,compile:0.02:panic,cache:0.1:error,cache:0.02:panic,exec:0.1:error", 11)

	const (
		cacheCap = 4
		keys     = 8
		workers  = 8
		rounds   = 30
	)
	c := NewCacheSize(cacheCap)
	var stats Stats
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 5))
			for r := 0; r < rounds; r++ {
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if rng.Int64N(4) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Int64N(200))*time.Microsecond)
				}
				p, err := c.Program(ctx, tinySource(int(rng.Int64N(keys))), compiler.Options{}, &stats)
				if err == nil {
					// Enough variants to overflow an entry's bound.
					for i := 0; i < 3; i++ {
						opts := core.DefaultOptions()
						opts.TripCounts = map[int]int{5: int(rng.Int64N(2 * entryArtifacts))}
						_, _ = p.Interpret(ctx, opts, "", &stats)
					}
					spec := DefaultMeasureSpec(1, 0)
					spec.Seed = rng.Int64N(3)
					_, _ = p.Measure(ctx, spec, &stats)
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()

	var recount [numKinds]int
	c.mu.Lock()
	for _, cl := range c.programs.cells {
		recount[kindCompile]++
		if p := cl.val; p != nil {
			held := [numKinds]int{kindForm: len(p.forms.cells), kindReport: len(p.reports.cells), kindMeasure: len(p.measures.cells)}
			for k, n := range held {
				recount[k] += n
				if n > entryArtifacts {
					t.Errorf("entry holds %d artifacts of kind %d, bound is %d", n, k, entryArtifacts)
				}
			}
		}
	}
	c.mu.Unlock()
	cs := c.CacheStats()
	got := [numKinds]int{cs.CompileEntries, cs.PredictEntries, cs.ReportEntries, cs.MeasureEntries}
	if got != recount {
		t.Errorf("CacheStats entries %v, recount over live entries %v", got, recount)
	}
	if cs.CompileEntries > cacheCap {
		t.Errorf("compile entries = %d, exceeds cap %d", cs.CompileEntries, cacheCap)
	}
	if cs.CompileEvictions == 0 || cs.ReportEvictions == 0 {
		t.Errorf("churn evicted nothing (compile %d, report %d): the test lost its point",
			cs.CompileEvictions, cs.ReportEvictions)
	}
}
