package sweep

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/suite"
)

func TestMapPreservesOrder(t *testing.T) {
	e := New(Options{Workers: 4})
	res, err := Map(e, 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res {
		if v != i*i {
			t.Fatalf("res[%d] = %d", i, v)
		}
	}
	if got := e.Snapshot().Points; got != 100 {
		t.Errorf("points = %d", got)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	e := New(Options{Workers: workers})
	var inFlight, peak atomic.Int64
	_, err := Map(e, 50, func(i int) (struct{}, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds pool bound %d", p, workers)
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	e := New(Options{Workers: 8})
	wantErr := errors.New("boom-3")
	_, err := Map(e, 20, func(i int) (int, error) {
		switch i {
		case 3:
			return 0, wantErr
		case 11:
			return 0, errors.New("boom-11")
		}
		return i, nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want first-by-index %v", err, wantErr)
	}
}

// TestRepeatedSweepCompilesOnce asserts the memoization contract: two
// sweeps over identical sources run the compilation pipeline exactly
// once per distinct source, with every repeat served from cache.
func TestRepeatedSweepCompilesOnce(t *testing.T) {
	e := New(Options{Workers: 4})
	sources := []string{
		suite.LaplaceBB().Source(16, 4),
		suite.LaplaceBX().Source(16, 4),
		suite.PI().Source(128, 4),
	}
	sweepOnce := func() {
		_, err := Map(e, len(sources), func(i int) (float64, error) {
			est, _, err := e.EstimateAndMeasureContext(context.Background(), sources[i], 1, 0.01)
			return est, err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sweepOnce()
	sweepOnce()

	snap := e.Snapshot()
	if snap.Compiles != int64(len(sources)) {
		t.Errorf("compiles = %d, want exactly %d (one per distinct source)", snap.Compiles, len(sources))
	}
	if snap.CompileMisses != int64(len(sources)) {
		t.Errorf("compile misses = %d, want %d", snap.CompileMisses, len(sources))
	}
	if snap.CompileHits == 0 {
		t.Error("second sweep produced no compile-cache hits")
	}
	if snap.Interps != int64(len(sources)) {
		t.Errorf("interps = %d, want %d (reports memoized)", snap.Interps, len(sources))
	}
	if snap.ReportHits != int64(len(sources)) {
		t.Errorf("report hits = %d, want %d", snap.ReportHits, len(sources))
	}
	if snap.Execs != int64(len(sources)) {
		t.Errorf("execs = %d, want %d (deterministic measurements memoized)", snap.Execs, len(sources))
	}
	if snap.ExecHits != int64(len(sources)) {
		t.Errorf("exec hits = %d, want %d", snap.ExecHits, len(sources))
	}
	if e.Cache().Len() != len(sources) {
		t.Errorf("cache holds %d programs, want %d", e.Cache().Len(), len(sources))
	}
}

// TestConcurrentCompileSingleflight races many workers for one key: the
// pipeline must run exactly once while everyone receives the result.
func TestConcurrentCompileSingleflight(t *testing.T) {
	e := New(Options{Workers: 8})
	src := suite.LaplaceXB().Source(16, 4)
	res, err := Map(e, 16, func(i int) (string, error) {
		prog, err := e.CompileContext(context.Background(), src, compiler.Options{})
		if err != nil {
			return "", err
		}
		return prog.Name, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range res {
		if name != res[0] {
			t.Fatalf("inconsistent programs: %q vs %q", name, res[0])
		}
	}
	snap := e.Snapshot()
	if snap.Compiles != 1 {
		t.Errorf("compiles = %d, want 1", snap.Compiles)
	}
	if snap.CompileHits != 15 || snap.CompileMisses != 1 {
		t.Errorf("hits/misses = %d/%d, want 15/1", snap.CompileHits, snap.CompileMisses)
	}
}

func TestCompileErrorIsCachedToo(t *testing.T) {
	e := New(Options{})
	const bad = "PROGRAM nope\nTHIS IS NOT FORTRAN\nEND"
	for i := 0; i < 3; i++ {
		if _, err := e.CompileContext(context.Background(), bad, compiler.Options{}); err == nil {
			t.Fatal("expected compile error")
		}
	}
	if n := e.Snapshot().Compiles; n != 1 {
		t.Errorf("failing source compiled %d times, want 1", n)
	}
}

func TestInterpFingerprintDistinguishesOptions(t *testing.T) {
	a := core.DefaultOptions()
	b := core.DefaultOptions()
	b.MaskDensity = 0.5
	fa := interpFingerprint(a)
	fb := interpFingerprint(b)
	if fa == fb {
		t.Error("different options share a fingerprint")
	}
	c := core.DefaultOptions()
	c.TripCounts = map[int]int{4: 10, 2: 7}
	d := core.DefaultOptions()
	d.TripCounts = map[int]int{2: 7, 4: 10}
	fc := interpFingerprint(c)
	fd := interpFingerprint(d)
	if fc != fd {
		t.Error("map iteration order leaked into the fingerprint")
	}
}

func TestSnapshotString(t *testing.T) {
	e := New(Options{})
	if _, _, err := e.EstimateAndMeasureContext(context.Background(), suite.PI().Source(128, 4), 1, 0.01); err != nil {
		t.Fatal(err)
	}
	s := e.Snapshot().String()
	for _, want := range []string{"points", "compile", "interpret", "execute", "1 miss"} {
		if !strings.Contains(s, want) {
			t.Errorf("stats rendering missing %q:\n%s", want, s)
		}
	}
}

func TestDefaultEngineIsShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default must return one shared engine")
	}
}
