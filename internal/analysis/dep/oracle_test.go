package dep_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hpfperf/internal/analysis/dep"
)

// The brute-force oracle: random affine subscript pairs over index
// spaces small enough to enumerate every pair of iterations, checked
// against what the dependence tests claim. TestDepOracle draws cases
// from a seeded generator; FuzzDep lets the fuzzer choose them.

// affine is one subscript c + Σ coeffs[k]·i_k.
type affine struct {
	c      int64
	coeffs []int64 // one per index
}

func (a affine) at(it []int64) int64 {
	v := a.c
	for k, x := range it {
		v += a.coeffs[k] * x
	}
	return v
}

// sub is the subscript in the engine's normalized form.
func (a affine) sub(idxs []dep.Index) dep.Sub {
	s := dep.Sub{Const: a.c, OK: true, Coeffs: map[string]int64{}}
	for k, x := range a.coeffs {
		if x != 0 {
			s.Coeffs[idxs[k].Name] = x
		}
	}
	return s
}

// fortran renders the subscript over the loop index I (single-index
// cases only).
func (a affine) fortran() string {
	s := fmt.Sprint(a.c)
	switch x := a.coeffs[0]; {
	case x > 0:
		s += fmt.Sprintf(" + %d*I", x)
	case x < 0:
		s += fmt.Sprintf(" - %d*I", -x)
	}
	return s
}

// depCase is one oracle case: the iteration ranges, the subscripts of a
// write, a read and an optional second write of one array, and whether
// each statement runs under an IF.
type depCase struct {
	idxs       []dep.Index // Lo/Hi always hold the range enumerated
	w, r, w2   []affine    // one subscript per array dimension
	g1, g2     bool        // statement guards: A(w) = A(r) + 1.0, A(w2) = 2.0
	secondStmt bool
}

// genCase draws a case from next, which returns a value in [0, n): one
// or two indices with bounds in [0, 12] (an empty range included), each
// sometimes hidden from the engine as unbounded; one or two array
// dimensions; coefficients in −3..3 and constants in −6..6.
func genCase(next func(n int) int) depCase {
	var c depCase
	for k, n := 0, 1+next(2); k < n; k++ {
		lo := int64(next(7))
		hi := lo - 1 + int64(next(14-int(lo)))
		c.idxs = append(c.idxs, dep.Index{Name: []string{"I", "J"}[k], Lo: lo, Hi: hi, Bounded: next(4) != 0})
	}
	dims := 1 + next(2)
	gen := func() []affine {
		out := make([]affine, dims)
		for d := range out {
			out[d].c = int64(next(13) - 6)
			for range c.idxs {
				out[d].coeffs = append(out[d].coeffs, int64(next(7)-3))
			}
		}
		return out
	}
	c.w, c.r, c.w2 = gen(), gen(), gen()
	c.g1, c.g2, c.secondStmt = next(3) == 0, next(3) == 0, next(2) == 0
	return c
}

// iterations lists every point of the index space.
func iterations(idxs []dep.Index) [][]int64 {
	its := [][]int64{{}}
	for _, ix := range idxs {
		var next [][]int64
		for _, it := range its {
			for v := ix.Lo; v <= ix.Hi; v++ {
				next = append(next, append(append([]int64{}, it...), v))
			}
		}
		its = next
	}
	return its
}

// collisions returns the direction vector of every iteration pair
// (i for x, i' for y) at which x and y touch the same element, keyed by
// its rendering.
func collisions(idxs []dep.Index, x, y []affine) map[string]bool {
	out := map[string]bool{}
	its := iterations(idxs)
	for _, i := range its {
		for _, j := range its {
			same := true
			for d := range x {
				if x[d].at(i) != y[d].at(j) {
					same = false
					break
				}
			}
			if !same {
				continue
			}
			dirs := make([]dep.Dir, len(i))
			for k := range i {
				switch {
				case i[k] < j[k]:
					dirs[k] = dep.DirLT
				case i[k] > j[k]:
					dirs[k] = dep.DirGT
				default:
					dirs[k] = dep.DirEQ
				}
			}
			out[dep.DirVector(dirs)] = true
		}
	}
	return out
}

func subs(as []affine, idxs []dep.Index) []dep.Sub {
	out := make([]dep.Sub, len(as))
	for d, a := range as {
		out[d] = a.sub(idxs)
	}
	return out
}

// checkPair holds TestPair to the enumeration: no collision may be
// disproven, every colliding direction must be reported, and an exact
// loop-carried claim needs a carried collision.
func checkPair(t *testing.T, c depCase) {
	t.Helper()
	got := collisions(c.idxs, c.w, c.r)
	res := dep.TestPair(subs(c.w, c.idxs), subs(c.r, c.idxs), c.idxs)
	reported := map[string]bool{}
	for _, ds := range res.Dirs {
		reported[dep.DirVector(ds)] = true
	}
	if len(got) > 0 && res.Kind == dep.Independent {
		t.Fatalf("%+v: TestPair says independent, but the references collide at %v", c, got)
	}
	carried := false
	for v := range got {
		if !reported[v] {
			t.Fatalf("%+v: references collide in direction %s, TestPair reports only %v", c, v, reported)
		}
		carried = carried || strings.ContainsAny(v, "<>")
	}
	if res.CarriedProven && !carried {
		t.Fatalf("%+v: TestPair proves a carried dependence, but no two iterations collide (collisions %v)", c, got)
	}
}

// oracleRef is one array reference of the VerifyLoop body.
type oracleRef struct {
	subs    []affine
	write   bool
	guarded bool
}

// checkVerify holds VerifyLoop to the enumeration over a DO loop
// (single-index cases with constant bounds): it may prove a loop only
// when no two different iterations touch one element through a write,
// and refute it only when two unguarded references do.
func checkVerify(t *testing.T, c depCase) {
	t.Helper()
	if len(c.idxs) != 1 || !c.idxs[0].Bounded {
		return
	}
	decl := "REAL A(-64:64)"
	if len(c.w) == 2 {
		decl = "REAL A(-64:64, -64:64)"
	}
	ref := func(as []affine) string {
		parts := make([]string, len(as))
		for d, a := range as {
			parts[d] = a.fortran()
		}
		return "A(" + strings.Join(parts, ", ") + ")"
	}
	stmt := func(s string, guarded bool) []string {
		if guarded {
			return []string{"IF (S > 0.0) THEN", s, "END IF"}
		}
		return []string{s}
	}
	body := stmt(ref(c.w)+" = "+ref(c.r)+" + 1.0", c.g1)
	refs := []oracleRef{{c.w, true, c.g1}, {c.r, false, c.g1}}
	if c.secondStmt {
		body = append(body, stmt(ref(c.w2)+" = 2.0", c.g2)...)
		refs = append(refs, oracleRef{c.w2, true, c.g2})
	}
	ix := c.idxs[0]
	idxs, stmts, consts, arrays := loopOf(t, decl+"\nREAL S", fmt.Sprint(ix.Lo), fmt.Sprint(ix.Hi), body...)

	collide, unguarded := false, false
	for _, x := range refs {
		for _, y := range refs {
			if !x.write && !y.write {
				continue
			}
			for v := range collisions(idxs, x.subs, y.subs) {
				if v != "(=)" {
					collide = true
					unguarded = unguarded || (!x.guarded && !y.guarded)
				}
			}
		}
	}
	v, ev := dep.VerifyLoop(idxs, stmts, consts, arrays)
	if v == dep.Proven && collide {
		t.Fatalf("VerifyLoop proves independent, but two iterations collide:\n%s", strings.Join(body, "\n"))
	}
	if v == dep.Refuted && !unguarded {
		t.Fatalf("VerifyLoop refutes (%v) without a collision between unguarded references over I = %d..%d:\n%s",
			ev, ix.Lo, ix.Hi, strings.Join(body, "\n"))
	}
}

func TestDepOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	next := func(n int) int { return rng.Intn(n) }
	for i := 0; i < 4000; i++ {
		c := genCase(next)
		checkPair(t, c)
		checkVerify(t, c)
	}
}

// FuzzDep runs the oracle over fuzzer-chosen cases: each byte of the
// input feeds one draw of genCase (missing bytes draw 0). The seed
// corpus in testdata/fuzz/FuzzDep includes the backward-carried
// asymmetric pair (write A(I), read A(2*I+5) over I = 0..6) that a
// doubly negated ">" Banerjee bound once disproved.
func FuzzDep(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		c := genCase(next)
		checkPair(t, c)
		checkVerify(t, c)
	})
}
