package sweep

import (
	"context"
	"errors"
	"sync"
	"testing"

	"hpfperf/internal/analysis"
	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
)

// sharedSource needs the definition trace: the time-step loop's bound is
// assigned inside an earlier loop.
const sharedSource = `      PROGRAM SHARED
!HPF$ PROCESSORS P(4)
      REAL A(64), B(64)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
!HPF$ DISTRIBUTE B(BLOCK) ONTO P
      NITER = 0
      DO K = 1, 3
        NITER = 12
      END DO
      DO IT = 1, NITER
        FORALL (I = 2:63) B(I) = 0.5 * (A(I-1) + A(I+1))
        A = B
      END DO
      PRINT *, A(1)
      END PROGRAM SHARED
`

// TestSharedUnitConcurrentPriceAndPredict races pricing and prediction
// of one new source on one engine: the compile entry must build exactly
// one analysis unit, every caller must see that unit and its price, the
// form's unpinned trace must be the unit's trace itself, and every
// report must equal the reference tree-walker's.
func TestSharedUnitConcurrentPriceAndPredict(t *testing.T) {
	const callers = 8
	eng := New(Options{Workers: callers})
	ctx := context.Background()
	iopts := core.DefaultOptions()

	type result struct {
		unit  *analysis.Unit
		price *analysis.PriceReport
		cp    *core.Compiled
		rep   *core.Report
		err   error
	}
	results := make([]result, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			r := &results[g]
			price := func() {
				p, err := eng.Program(ctx, sharedSource, compiler.Options{})
				if err == nil {
					r.price, err = p.Price()
				}
				if err == nil {
					r.unit, err = p.Unit()
				}
				r.err = errors.Join(r.err, err)
			}
			predict := func() {
				rep, err := eng.InterpretMachine(ctx, "", sharedSource, compiler.Options{}, iopts)
				r.rep = rep
				if err == nil {
					r.cp, err = eng.Cache().CompiledPrediction(ctx, sharedSource, compiler.Options{}, iopts, "", eng.Stats())
				}
				r.err = errors.Join(r.err, err)
			}
			// Half the callers price first (admission order), half
			// predict first (the form builds the unit).
			if g%2 == 0 {
				price()
				predict()
			} else {
				predict()
				price()
			}
		}(g)
	}
	close(start)
	wg.Wait()

	if n := eng.Snapshot().Analyses; n != 1 {
		t.Fatalf("built %d analysis units, want exactly 1", n)
	}
	prog, err := compiler.Compile(sharedSource)
	if err != nil {
		t.Fatal(err)
	}
	it, err := core.New(prog, nil, iopts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := it.InterpretTree()
	if err != nil {
		t.Fatal(err)
	}
	first := results[0]
	for g, r := range results {
		if r.err != nil {
			t.Fatalf("caller %d: %v", g, r.err)
		}
		if r.unit != first.unit || r.price != first.price {
			t.Errorf("caller %d saw a different unit or price than caller 0", g)
		}
		if r.cp != first.cp {
			t.Errorf("caller %d saw a different prediction form than caller 0", g)
		}
		if got := r.cp.Trace(nil); got != r.unit.Trace {
			t.Errorf("caller %d: the form's unpinned trace is not the unit's trace", g)
		}
		if d := core.DiffReports(ref, r.rep); d != "" {
			t.Errorf("caller %d: report differs from the tree-walker: %s", g, d)
		}
	}
}

// TestProgramAnalysisPanicNotMemoized: a panicking analysis build is
// reported as a *PanicError and leaves nothing behind, so the next
// caller rebuilds.
func TestProgramAnalysisPanicNotMemoized(t *testing.T) {
	var stats Stats
	p := &Program{c: NewCacheSize(1), stats: &stats} // no program: the tracer panics
	_, err := p.Unit()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	prog, err := compiler.Compile(sharedSource)
	if err != nil {
		t.Fatal(err)
	}
	p.Prog = prog
	u, err := p.Unit()
	if err != nil || u == nil || u.Prog != prog {
		t.Fatalf("rebuild after panic: unit %v, err %v", u, err)
	}
	if n := stats.Analyses.Load(); n != 1 {
		t.Errorf("Analyses = %d, want 1 (the panicked build must not count)", n)
	}
}
