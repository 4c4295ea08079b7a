package sem

import (
	"math"
	"math/rand"
	"testing"
)

// naivePow is the repeated multiplication IntPow replaces.
func naivePow(base, exp int64) int64 {
	r := int64(1)
	for k := int64(0); k < exp; k++ {
		r *= base
	}
	return r
}

func TestIntPowMatchesRepeatedMultiplication(t *testing.T) {
	check := func(base, exp int64) {
		t.Helper()
		if got, want := IntPow(base, exp), naivePow(base, exp); got != want {
			t.Fatalf("IntPow(%d, %d) = %d, want %d", base, exp, got, want)
		}
	}
	// Edges: zero and unit bases, sign alternation, and products that
	// wrap past int64 (2**63 wraps to MinInt64, 2**64 to 0).
	for _, base := range []int64{0, 1, -1, 2, -2, 3, -3, 7, 10, -10, math.MaxInt64, math.MinInt64, 1 << 32, -(1 << 31) + 5} {
		for exp := int64(0); exp <= 130; exp++ {
			check(base, exp)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		base := rng.Int63() - rng.Int63()
		if i%2 == 0 {
			base = rng.Int63n(41) - 20
		}
		check(base, rng.Int63n(300))
	}
}

func TestIntPowHugeExponentIsFast(t *testing.T) {
	// Each case would take seconds to centuries as a loop.
	for _, c := range []struct{ base, exp, want int64 }{
		{2, 1_000_000_000, 0},
		{-1, math.MaxInt64, -1},
		{1, math.MaxInt64, 1},
		{0, math.MaxInt64, 0},
		{3, 1_000_000_000, IntPow(IntPow(3, 1_000_000), 1000)},
	} {
		if got := IntPow(c.base, c.exp); got != c.want {
			t.Errorf("IntPow(%d, %d) = %d, want %d", c.base, c.exp, got, c.want)
		}
	}
}

func TestConstPowerFolding(t *testing.T) {
	info := analyze(t, `PROGRAM p
PARAMETER (K = 2**1000000000, M = 3**40, R = 2**(-1))
!HPF$ PROCESSORS P(1)
END`)
	for name, want := range map[string]Value{
		"K": IntVal(0),
		"M": IntVal(naivePow(3, 40)),
		"R": RealVal(0.5), // negative exponents fold through math.Pow
	} {
		sym := info.Sym(name)
		if sym == nil || sym.Kind != SymConst {
			t.Fatalf("%s is not a folded constant", name)
		}
		if sym.Const != want {
			t.Errorf("%s = %v, want %v", name, sym.Const, want)
		}
	}
}
