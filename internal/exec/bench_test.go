package exec_test

import (
	"testing"

	"hpfperf/internal/compiler"
	"hpfperf/internal/exec"
	"hpfperf/internal/hir"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/suite"
)

// BenchmarkRunTable2Quick executes every point of the quick Table-2 grid
// once per iteration on pre-compiled programs: the executor's share of a
// table2 sweep, without compilation or prediction.
func BenchmarkRunTable2Quick(b *testing.B) {
	cases := table2QuickGrid()
	progs := make([]*hir.Program, len(cases))
	for i, c := range cases {
		p, err := compiler.Compile(c.src)
		if err != nil {
			b.Fatal(err)
		}
		progs[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, c := range cases {
			m, err := ipsc.New(c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := exec.Run(progs[i], m, c.opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestAllocsIndependentOfProblemSize pins the lowered executor's
// allocation profile: for kernels whose loops hold no communication,
// a run allocates the same at both quick-grid problem sizes (storage,
// lowering and result only), not per executed statement.
func TestAllocsIndependentOfProblemSize(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts in -short mode")
	}
	for _, p := range []*suite.Program{suite.LFK9(), suite.PBS3()} {
		for _, np := range []int{1, 4} {
			var allocs []float64
			for _, size := range p.Sizes[:2] {
				prog, err := compiler.Compile(p.Source(size, np))
				if err != nil {
					t.Fatal(err)
				}
				cfg := ipsc.DefaultConfig(np)
				allocs = append(allocs, testing.AllocsPerRun(10, func() {
					m, err := ipsc.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := exec.Run(prog, m, exec.Options{}); err != nil {
						t.Fatal(err)
					}
				}))
			}
			t.Logf("%s p=%d: %v allocs at sizes %v", p.Name, np, allocs, p.Sizes[:2])
			if allocs[0] != allocs[1] {
				t.Errorf("%s p=%d: %v allocs at sizes %v, want equal", p.Name, np, allocs, p.Sizes[:2])
			}
		}
	}
}
