// Benchmarks regenerating the paper's evaluation artifacts. Each
// BenchmarkTable2/* entry runs one program's estimated-vs-measured
// comparison and reports the error band as custom metrics; the Figure*
// benchmarks regenerate the corresponding figures. Ablation benchmarks
// quantify the design choices called out in DESIGN.md.
//
// Run with:
//
//	go test -bench=. -benchmem
package hpfperf_test

import (
	"testing"

	"hpfperf"
	"hpfperf/internal/experiments"
	"hpfperf/internal/suite"
	"hpfperf/internal/sweep"
)

// benchCfg keeps benchmark iterations affordable while exercising the
// real sweep machinery.
func benchCfg() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Runs = 1
	return cfg
}

// BenchmarkTable2 regenerates Table 2 row by row: for every program of
// the validation set, the estimated and measured times are compared over
// the (reduced) problem/system size sweep. The min/max error percentages
// are attached as benchmark metrics.
func BenchmarkTable2(b *testing.B) {
	for _, p := range suite.All() {
		p := p
		b.Run(sanitize(p.Name), func(b *testing.B) {
			var row experiments.AccuracyRow
			var err error
			for i := 0; i < b.N; i++ {
				row, err = experiments.Table2Row(p, benchCfg())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.MinErrPct(), "minErr%")
			b.ReportMetric(row.MaxErrPct(), "maxErr%")
		})
	}
}

// benchSweepGrid runs the full flattened Table 2 quick grid (16
// programs × 2 sizes × 2 system sizes) on a pool of the given width,
// with a cold cache every iteration so the compile stage is really
// exercised. Comparing BenchmarkSweepSerial with BenchmarkSweepParallel
// isolates the worker-pool speedup (≈ core count on unloaded 4+ core
// machines).
func benchSweepGrid(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Engine = sweep.New(sweep.Options{Workers: workers})
		if _, err := experiments.Table2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSerial is the single-worker baseline of the point sweep.
func BenchmarkSweepSerial(b *testing.B) { benchSweepGrid(b, 1) }

// BenchmarkSweepParallel runs the same grid on a GOMAXPROCS-wide pool.
func BenchmarkSweepParallel(b *testing.B) { benchSweepGrid(b, 0) }

// BenchmarkSweepCached reruns the grid against a warm engine: every
// compile, interpretation and (since the simulator is deterministic per
// MeasureSpec) simulated execution is served from cache. The points/sec
// metric here includes the untimed warmup in the engine's wall clock.
func BenchmarkSweepCached(b *testing.B) {
	cfg := benchCfg()
	cfg.Engine = sweep.New(sweep.Options{})
	if _, err := experiments.Table2(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	snap := cfg.Engine.Snapshot()
	b.ReportMetric(float64(snap.CompileHits)/float64(snap.CompileHits+snap.CompileMisses), "hitRate")
	b.ReportMetric(snap.PointsPerSec, "points/sec")
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '(', ')', ',', '*':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkFigure3 renders the Laplace decomposition pictures.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates the 4-processor Laplace
// estimated/measured sweep.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure45(4, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 regenerates the 8-processor Laplace sweep.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure45(8, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7 regenerates the financial-model phase profile.
func BenchmarkFigure7(b *testing.B) {
	var p1comm float64
	for i := 0; i < b.N; i++ {
		phases, err := experiments.Figure7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		p1comm = phases[0].Metrics.CommUS
	}
	b.ReportMetric(p1comm, "phase1CommUS")
}

// BenchmarkFigure8 regenerates the experimentation-time comparison.
func BenchmarkFigure8(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		times, err := experiments.Figure8(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		speedup = times[0].IPSCMin / times[0].InterpreterMin
	}
	b.ReportMetric(speedup, "workflowSpeedup")
}

// ---------------------------------------------------------------------------
// Ablations (design choices from DESIGN.md §5)

func ablationSrc() string { return suite.LaplaceBX().Source(128, 4) }

// BenchmarkAblationMemoryModel compares prediction error with the SAU
// memory model on and off.
func BenchmarkAblationMemoryModel(b *testing.B) {
	src := ablationSrc()
	prog, err := hpfperf.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	meas, err := hpfperf.Measure(prog, &hpfperf.MeasureOptions{Perturb: -1})
	if err != nil {
		b.Fatal(err)
	}
	for _, on := range []bool{true, false} {
		on := on
		name := "on"
		if !on {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var errPct float64
			for i := 0; i < b.N; i++ {
				v := on
				pred, err := hpfperf.Predict(prog, &hpfperf.PredictOptions{MemoryModel: &v})
				if err != nil {
					b.Fatal(err)
				}
				errPct = (pred.Microseconds() - meas.Microseconds()) / meas.Microseconds() * 100
			}
			b.ReportMetric(errPct, "err%")
		})
	}
}

// BenchmarkAblationLoadModel compares the max-loaded-processor model with
// the average model on a strongly imbalanced BLOCK distribution
// (N = 10 over 8 processors: shares 2,2,2,2,2,0,0,0).
func BenchmarkAblationLoadModel(b *testing.B) {
	src := `PROGRAM imb
PARAMETER (N = 10)
REAL A(N)
!HPF$ PROCESSORS P(8)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
DO IT = 1, 200
  FORALL (K=1:N) A(K) = SQRT(A(K)*1.5 + 2.0)
END DO
CHK = SUM(A)
END`
	prog, err := hpfperf.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	meas, err := hpfperf.Measure(prog, &hpfperf.MeasureOptions{Perturb: -1})
	if err != nil {
		b.Fatal(err)
	}
	for _, avg := range []bool{false, true} {
		avg := avg
		name := "maxloaded"
		if avg {
			name = "average"
		}
		b.Run(name, func(b *testing.B) {
			var errPct float64
			for i := 0; i < b.N; i++ {
				pred, err := hpfperf.Predict(prog, &hpfperf.PredictOptions{AverageLoad: avg})
				if err != nil {
					b.Fatal(err)
				}
				errPct = (pred.Microseconds() - meas.Microseconds()) / meas.Microseconds() * 100
			}
			b.ReportMetric(errPct, "err%")
		})
	}
}

// BenchmarkAblationCommModel compares the piecewise (protocol-aware)
// collective characterization with single linear fits on a
// communication-heavy small problem.
func BenchmarkAblationCommModel(b *testing.B) {
	src := suite.LaplaceBB().Source(16, 8)
	prog, err := hpfperf.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	meas, err := hpfperf.Measure(prog, &hpfperf.MeasureOptions{Perturb: -1})
	if err != nil {
		b.Fatal(err)
	}
	for _, simple := range []bool{false, true} {
		simple := simple
		name := "piecewise"
		if simple {
			name = "linear"
		}
		b.Run(name, func(b *testing.B) {
			var errPct float64
			for i := 0; i < b.N; i++ {
				pred, err := hpfperf.Predict(prog, &hpfperf.PredictOptions{SimpleCommModel: simple})
				if err != nil {
					b.Fatal(err)
				}
				errPct = (pred.Microseconds() - meas.Microseconds()) / meas.Microseconds() * 100
			}
			b.ReportMetric(errPct, "err%")
		})
	}
}

// ---------------------------------------------------------------------------
// Component micro-benchmarks

// BenchmarkCompile measures phase-1 compilation throughput.
func BenchmarkCompile(b *testing.B) {
	src := suite.LaplaceBB().Source(64, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hpfperf.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict measures the interpretation cost (the paper's
// cost-effectiveness claim: prediction is data-size independent).
func BenchmarkPredict(b *testing.B) {
	for _, n := range []int{64, 256} {
		n := n
		b.Run(sanitize(suite.LaplaceBB().Name)+"_"+itoa(n), func(b *testing.B) {
			prog, err := hpfperf.Compile(suite.LaplaceBB().Source(n, 4))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := hpfperf.Predict(prog, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMeasure measures simulated-execution cost (grows with the
// problem size, unlike prediction).
func BenchmarkMeasure(b *testing.B) {
	for _, n := range []int{64, 256} {
		n := n
		b.Run(sanitize(suite.LaplaceBB().Name)+"_"+itoa(n), func(b *testing.B) {
			prog, err := hpfperf.Compile(suite.LaplaceBB().Source(n, 4))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := hpfperf.Measure(prog, &hpfperf.MeasureOptions{Perturb: -1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationLoopReorder quantifies the §4.2 loop re-ordering
// optimization: measured time with and without cache-locality ordering.
func BenchmarkAblationLoopReorder(b *testing.B) {
	src := suite.LaplaceBX().Source(96, 4)
	for _, reorder := range []bool{true, false} {
		reorder := reorder
		name := "reordered"
		if !reorder {
			name = "source-order"
		}
		b.Run(name, func(b *testing.B) {
			prog, err := hpfperf.CompileWith(src, hpfperf.CompileOptions{NoLoopReorder: !reorder})
			if err != nil {
				b.Fatal(err)
			}
			var us float64
			for i := 0; i < b.N; i++ {
				meas, err := hpfperf.Measure(prog, &hpfperf.MeasureOptions{Perturb: -1})
				if err != nil {
					b.Fatal(err)
				}
				us = meas.Microseconds()
			}
			b.ReportMetric(us, "measuredUS")
		})
	}
}
