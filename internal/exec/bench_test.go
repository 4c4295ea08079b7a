package exec_test

import (
	"fmt"
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

// recurrenceSource is a sequential recurrence over a BLOCK array on four
// ranks: every iteration fetches F(I-1) from its owner and broadcasts it,
// then stores F(I) on its owner.
func recurrenceSource(n int) string {
	return fmt.Sprintf(`PROGRAM rec
PARAMETER (N = %d)
REAL F(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE F(BLOCK) ONTO P
F(1) = 0.0
DO I = 2, N
  F(I) = F(I-1) + 1.0
END DO
END`, n)
}

// cyclic3Source is a two-point stencil over CYCLIC(3) arrays on four
// ranks: the partitioned loop's owner changes every three iterations.
func cyclic3Source(n int) string {
	return fmt.Sprintf(`PROGRAM c3
PARAMETER (N = %d)
REAL U(N), V(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE U(CYCLIC(3)) ONTO P
!HPF$ DISTRIBUTE V(CYCLIC(3)) ONTO P
FORALL (I=1:N) U(I) = REAL(I)
FORALL (I=2:N-1) V(I) = 0.5*(U(I-1) + U(I+1))
END`, n)
}

// TestAllocsIndependentOfProblemSize pins the lowered executor's
// allocation profile: a run allocates the same at both problem sizes
// (storage, lowering and result only), not per executed statement. The
// suite kernels' loops hold no communication; the recurrence fetches and
// broadcasts an element and stores a guarded element every iteration.
func TestAllocsIndependentOfProblemSize(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts in -short mode")
	}
	type sized struct {
		name  string
		np    int
		sizes []int
		src   func(size int) string
	}
	var cases []sized
	for _, p := range []*suite.Program{suite.LFK9(), suite.PBS3()} {
		for _, np := range []int{1, 4} {
			cases = append(cases, sized{p.Name, np, p.Sizes[:2], func(size int) string { return p.Source(size, np) }})
		}
	}
	cases = append(cases,
		sized{"recurrence", 4, []int{64, 512}, recurrenceSource},
		sized{"Laplace (Blk-Blk)", 4, []int{16, 64}, func(size int) string { return suite.LaplaceBB().Source(size, 4) }},
		sized{"cyclic3", 4, []int{70, 700}, cyclic3Source})
	for _, c := range cases {
		var allocs []float64
		for _, size := range c.sizes {
			prog, err := compiler.Compile(c.src(size))
			if err != nil {
				t.Fatal(err)
			}
			cfg := ipsc.DefaultConfig(c.np)
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
		t.Logf("%s p=%d: %v allocs at sizes %v", c.name, c.np, allocs, c.sizes)
		if allocs[0] != allocs[1] {
			t.Errorf("%s p=%d: %v allocs at sizes %v, want equal", c.name, c.np, allocs, c.sizes)
		}
	}
}
