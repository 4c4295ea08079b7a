package ipsc

import (
	"math"
	"testing"
	"testing/quick"
)

func quiet(n int) *Machine {
	cfg := DefaultConfig(n)
	cfg.PerturbAmp = 0
	cfg.TimerResUS = 0
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Error("want error for 0 nodes")
	}
	if _, err := New(Config{Nodes: 16}); err == nil {
		t.Error("want error beyond the 8-node cube")
	}
	if _, err := New(Config{Nodes: 8}); err != nil {
		t.Errorf("8 nodes should work: %v", err)
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	m := quiet(2)
	m.Compute(0, 400) // 400 cycles at 40MHz = 10us
	if got := m.Time(0); math.Abs(got-10) > 1e-9 {
		t.Errorf("clock = %g, want 10", got)
	}
	if m.Time(1) != 0 {
		t.Error("other node should not advance")
	}
	if m.MaxTime() != m.Time(0) {
		t.Error("MaxTime wrong")
	}
}

// TestChargeMatchesCompute replays one round and many rounds of charges,
// to one rank and to several, and wants the clocks and ComputeUS bits that
// the same Compute calls give.
func TestChargeMatchesCompute(t *testing.T) {
	cycles := []float64{7, 1e-3, 123456.789, 3}
	for _, ranks := range [][]int{{2, 2, 2}, {0, 1, 3, 0}} {
		for _, rounds := range []int{1, 37} {
			cfg := DefaultConfig(4)
			a, _ := New(cfg)
			b, _ := New(cfg)
			us := make([]float64, len(ranks))
			for k, r := range ranks {
				us[k] = b.ComputeUS(r, cycles[k])
			}
			for round := 0; round < rounds; round++ {
				for k, r := range ranks {
					a.Compute(r, cycles[k])
				}
			}
			b.Charge(ranks, us, rounds)
			for r := 0; r < 4; r++ {
				if math.Float64bits(a.Time(r)) != math.Float64bits(b.Time(r)) {
					t.Errorf("ranks %v, %d rounds: clock %d = %v after Charge, %v after Compute", ranks, rounds, r, b.Time(r), a.Time(r))
				}
			}
			if math.Float64bits(a.Stats.ComputeUS) != math.Float64bits(b.Stats.ComputeUS) {
				t.Errorf("ranks %v, %d rounds: ComputeUS = %v after Charge, %v after Compute", ranks, rounds, b.Stats.ComputeUS, a.Stats.ComputeUS)
			}
		}
	}
}

func TestAllReduceSynchronizes(t *testing.T) {
	m := quiet(4)
	m.Compute(2, 4000) // skewed node
	m.AllReduce(8)
	t0 := m.Time(0)
	for r := 1; r < 4; r++ {
		if m.Time(r) != t0 {
			t.Errorf("node %d clock %g != %g", r, m.Time(r), t0)
		}
	}
	if t0 <= 100 { // must include the skew (100us from node 2)
		t.Errorf("reduce completion %g too early", t0)
	}
}

func TestAllReduceScalesWithLogP(t *testing.T) {
	t2 := func() float64 { m := quiet(2); m.AllReduce(8); return m.MaxTime() }()
	t8 := func() float64 { m := quiet(8); m.AllReduce(8); return m.MaxTime() }()
	if t8 <= t2 {
		t.Errorf("8-node reduce (%g) should cost more than 2-node (%g)", t8, t2)
	}
	if t8 > 4*t2 {
		t.Errorf("8-node reduce (%g) should be ~3 stages vs 1 (%g)", t8, t2)
	}
}

func TestSingleNodeCollectivesFree(t *testing.T) {
	m := quiet(1)
	m.AllReduce(8)
	m.Broadcast(0, 100)
	m.AllGatherV(func(int) int { return 100 })
	m.ShiftExchange(func(int) int { return 100 }, func(int) int { return -1 })
	if m.MaxTime() != 0 {
		t.Errorf("single-node collectives advanced the clock to %g", m.MaxTime())
	}
}

func TestShiftExchangeNeighbors(t *testing.T) {
	m := quiet(4)
	m.ShiftExchange(
		func(rank int) int { return 256 },
		func(rank int) int {
			if rank+1 < 4 {
				return rank + 1
			}
			return -1
		})
	if m.MaxTime() <= 0 {
		t.Error("shift exchange should cost time")
	}
	if m.Stats.Messages == 0 {
		t.Error("no messages recorded")
	}
}

func TestLongMessageProtocolSwitch(t *testing.T) {
	small := func() float64 { m := quiet(2); m.Broadcast(0, 50); return m.MaxTime() }()
	large := func() float64 { m := quiet(2); m.Broadcast(0, 150); return m.MaxTime() }()
	// 100 extra bytes cost ~36us of bandwidth; the protocol switch adds
	// the long startup difference on top.
	if large-small < 36*0.9 {
		t.Errorf("long-message broadcast %g not sufficiently above short %g", large, small)
	}
}

func TestMemAccessClasses(t *testing.T) {
	m := quiet(1)
	big := 64 * 1024
	unit := m.MemAccessCycles(false, Unit, big, 4)
	strided := m.MemAccessCycles(false, Strided, big, 4)
	random := m.MemAccessCycles(false, Random, big, 4)
	if !(unit < random && random <= strided) {
		t.Errorf("class ordering wrong: unit=%g random=%g strided=%g", unit, random, strided)
	}
	warm := m.MemAccessCycles(false, Unit, 1024, 4)
	if warm >= unit {
		t.Errorf("warm cache (%g) should be cheaper than streaming (%g)", warm, unit)
	}
}

func TestMemAccessScale(t *testing.T) {
	m := quiet(1)
	big := 64 * 1024
	full := m.MemAccessCyclesScaled(false, Strided, big, 4, 1)
	half := m.MemAccessCyclesScaled(false, Strided, big, 4, 0.5)
	if half >= full {
		t.Errorf("scaled miss %g should be below %g", half, full)
	}
}

func TestCacheModelDisable(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.CacheModel = false
	m, _ := New(cfg)
	if got := m.MemAccessCycles(false, Random, 1<<20, 4); got != m.Node().M.LoadCycles {
		t.Errorf("disabled cache model should charge hit cost, got %g", got)
	}
}

func TestPerturbationDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) float64 {
		cfg := DefaultConfig(4)
		cfg.Seed = seed
		m, _ := New(cfg)
		m.ComputeAll(1e6)
		return m.MaxTime()
	}
	if run(7) != run(7) {
		t.Error("same seed should reproduce")
	}
	if run(7) == run(8) {
		t.Error("different seeds should differ")
	}
}

func TestHostIOOnNodeZero(t *testing.T) {
	m := quiet(4)
	m.HostIO(64)
	if m.Time(0) <= 0 || m.Time(1) != 0 {
		t.Errorf("host IO clocks: %v", []float64{m.Time(0), m.Time(1)})
	}
}

func TestBarrier(t *testing.T) {
	m := quiet(4)
	m.Compute(3, 8000)
	m.Barrier()
	for r := 0; r < 4; r++ {
		if m.Time(r) != m.Time(3) {
			t.Error("barrier should align clocks")
		}
	}
}

func TestNewRunResets(t *testing.T) {
	m := quiet(2)
	m.ComputeAll(1000)
	m.NewRun()
	if m.MaxTime() != 0 {
		t.Error("NewRun should reset clocks")
	}
}

// ---------------------------------------------------------------------------
// Calibration

func TestCalibrateSingleNodeZero(t *testing.T) {
	lib, err := Calibrate(1)
	if err != nil {
		t.Fatal(err)
	}
	if lib.Shift.Eval(1024) != 0 || lib.Reduce.Eval(8) != 0 {
		t.Error("single-node library should be free")
	}
}

func TestCalibrateFitsMachine(t *testing.T) {
	lib, err := Calibrate(4)
	if err != nil {
		t.Fatal(err)
	}
	// The fitted model must track the machine's actual collective costs
	// within a few percent at interpolated sizes.
	m := quiet(4)
	for _, s := range []int{32, 200, 2048, 32768} {
		m.NewRun()
		m.ShiftExchange(func(int) int { return s }, func(r int) int {
			if r+1 < 4 {
				return r + 1
			}
			return -1
		})
		actual := m.MaxTime()
		model := lib.Shift.Eval(s)
		if d := math.Abs(model-actual) / actual; d > 0.15 {
			t.Errorf("shift model at %dB: %g vs %g (%.1f%%)", s, model, actual, d*100)
		}
	}
}

func TestCalibrateMonotone(t *testing.T) {
	lib, err := Calibrate(8)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a16, b16 uint16) bool {
		a, b := int(a16), int(b16)
		if a > b {
			a, b = b, a
		}
		return lib.Shift.Eval(a) <= lib.Shift.Eval(b)+1e-9 &&
			lib.Gather.Eval(a) <= lib.Gather.Eval(b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFitLine(t *testing.T) {
	m := fitLine([]float64{0, 1, 2, 3}, []float64{5, 7, 9, 11})
	if math.Abs(m.A-5) > 1e-9 || math.Abs(m.B-2) > 1e-9 {
		t.Errorf("fit = %+v, want A=5 B=2", m)
	}
	// Degenerate fit (single x) should not blow up.
	d := fitLine([]float64{2, 2}, []float64{4, 6})
	if d.Eval(2) <= 0 {
		t.Error("degenerate fit should return the mean")
	}
}

func TestHypercubeHopsViaExchange(t *testing.T) {
	// Exchange between hamming-distance-2 partners must cost more than
	// adjacent partners (per-hop latency).
	adj := func() float64 {
		m := quiet(8)
		m.ShiftExchange(func(int) int { return 64 }, func(r int) int {
			if r == 0 {
				return 1
			}
			return -1
		})
		return m.MaxTime()
	}()
	far := func() float64 {
		m := quiet(8)
		m.ShiftExchange(func(int) int { return 64 }, func(r int) int {
			if r == 0 {
				return 7 // hamming(0,7)=3
			}
			return -1
		})
		return m.MaxTime()
	}()
	if far <= adj {
		t.Errorf("3-hop exchange (%g) should exceed 1-hop (%g)", far, adj)
	}
}
