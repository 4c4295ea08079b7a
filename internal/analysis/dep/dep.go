// Package dep implements classic array-subscript dependence testing:
// subscript normalization to affine form, the ZIV/GCD screens, the exact
// strong-SIV test, weak-zero and weak-crossing SIV, and a separable-MIV
// Banerjee bound evaluated per direction vector. It answers the question
// the paper's interpretation framework keeps asking statically: can two
// references to the same array touch the same element on different
// iterations of an index space, and if so in which direction?
//
// The package is deliberately minimal in its inputs — ast expressions, a
// constant environment, and the index space — so the compiler (which
// decides INDEPENDENT directives), the node program (which records those
// decisions) and the analysis passes (which test FORALL bodies) can
// share it without import cycles.
package dep

import (
	"strings"

	"hpfperf/internal/ast"
	"hpfperf/internal/token"
)

// Sub is a subscript normalized to affine form c + Σ Coeffs[v]·v over the
// index variables. OK is false when the expression is not affine in the
// indices (the tests then degrade to Unknown).
type Sub struct {
	Coeffs map[string]int64
	Const  int64
	OK     bool
}

// Coeff returns the coefficient of index v (0 when absent).
func (s Sub) Coeff(v string) int64 { return s.Coeffs[v] }

// Normalize classifies e as affine in the index variables idx, folding
// all other terms through the named integer constants. Anything else
// (array reads, unresolved scalars, nonlinear products) yields OK=false.
func Normalize(e ast.Expr, consts map[string]int64, idx map[string]bool) Sub {
	switch x := e.(type) {
	case *ast.IntLit:
		return Sub{Const: x.Value, OK: true}
	case *ast.Ident:
		if idx[x.Name] {
			return Sub{Coeffs: map[string]int64{x.Name: 1}, OK: true}
		}
		if v, ok := consts[x.Name]; ok {
			return Sub{Const: v, OK: true}
		}
		return Sub{}
	case *ast.UnaryExpr:
		l := Normalize(x.X, consts, idx)
		if !l.OK {
			return Sub{}
		}
		switch x.Op {
		case token.PLUS:
			return l
		case token.MINUS:
			return l.scale(-1)
		}
		return Sub{}
	case *ast.BinaryExpr:
		a := Normalize(x.X, consts, idx)
		b := Normalize(x.Y, consts, idx)
		if !a.OK || !b.OK {
			return Sub{}
		}
		switch x.Op {
		case token.PLUS:
			return a.add(b, 1)
		case token.MINUS:
			return a.add(b, -1)
		case token.STAR:
			if len(a.Coeffs) == 0 {
				return b.scale(a.Const)
			}
			if len(b.Coeffs) == 0 {
				return a.scale(b.Const)
			}
		}
		return Sub{}
	}
	return Sub{}
}

func (s Sub) scale(k int64) Sub {
	out := Sub{Const: s.Const * k, OK: true}
	if len(s.Coeffs) > 0 {
		out.Coeffs = make(map[string]int64, len(s.Coeffs))
		for v, a := range s.Coeffs {
			if a*k != 0 {
				out.Coeffs[v] = a * k
			}
		}
	}
	return out
}

func (s Sub) add(o Sub, sign int64) Sub {
	out := Sub{Const: s.Const + sign*o.Const, OK: true, Coeffs: make(map[string]int64)}
	for v, a := range s.Coeffs {
		out.Coeffs[v] = a
	}
	for v, a := range o.Coeffs {
		out.Coeffs[v] += sign * a
	}
	for v, a := range out.Coeffs {
		if a == 0 {
			delete(out.Coeffs, v)
		}
	}
	return out
}

// Index describes one dimension of the iteration space. Bounds are
// optional: tests that need them degrade soundly when Bounded is false.
type Index struct {
	Name    string
	Lo, Hi  int64
	Bounded bool
}

// Dir is one component of a direction vector relating the "source"
// iteration (the write) to the "sink" iteration.
type Dir int

const (
	DirLT Dir = iota // source iteration earlier  (carried forward)
	DirEQ            // same iteration
	DirGT            // source iteration later    (carried backward)
)

func (d Dir) String() string {
	switch d {
	case DirLT:
		return "<"
	case DirEQ:
		return "="
	case DirGT:
		return ">"
	}
	return "?"
}

// DirVector formats a direction vector as "(<,=)".
func DirVector(ds []Dir) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = d.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Carried reports whether the vector has any non-"=" component, i.e.
// represents a loop-carried dependence.
func Carried(ds []Dir) bool {
	for _, d := range ds {
		if d != DirEQ {
			return true
		}
	}
	return false
}

// Kind is the three-valued outcome of a dependence test.
type Kind int

const (
	Independent Kind = iota // dependence disproven
	Dependent               // an integer solution was exhibited
	Unknown                 // tests could not decide
)

func (k Kind) String() string {
	switch k {
	case Independent:
		return "independent"
	case Dependent:
		return "dependent"
	}
	return "unknown"
}

// Result is the outcome of testing one (write, read) reference pair over
// an index space.
type Result struct {
	Kind Kind
	// Dirs lists the direction vectors (over the Index order given to
	// TestPair) that remain feasible; empty when Kind == Independent.
	Dirs [][]Dir
	// Dist is the constant dependence distance of the innermost carried
	// index when the tests pinned one exactly (strong SIV).
	Dist      int64
	DistKnown bool
	// Dim is the subscript dimension (0-based) that decided the verdict:
	// for Independent, the dimension that disproved dependence; for
	// Dependent, the dimension exhibiting the solution.
	Dim int
	// CarriedProven reports that a loop-carried solution was exhibited
	// (Kind == Dependent can also mean only same-iteration reuse).
	CarriedProven bool
}

// CarriedDirs returns only the loop-carried feasible vectors.
func (r Result) CarriedDirs() [][]Dir {
	var out [][]Dir
	for _, ds := range r.Dirs {
		if Carried(ds) {
			out = append(out, ds)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Extended integers: ±∞ with saturating arithmetic, for Banerjee bounds
// over possibly-unbounded index ranges.

type ext struct {
	inf int // -1 = -∞, 0 = finite, +1 = +∞
	v   int64
}

func fin(v int64) ext { return ext{v: v} }

var (
	negInf = ext{inf: -1}
	posInf = ext{inf: +1}
)

func (a ext) add(b ext) ext {
	if a.inf != 0 {
		return a
	}
	if b.inf != 0 {
		return b
	}
	return fin(a.v + b.v)
}

// mul multiplies an extended value by a finite scalar.
func (a ext) mul(k int64) ext {
	if k == 0 {
		return fin(0)
	}
	if a.inf != 0 {
		if k < 0 {
			return ext{inf: -a.inf}
		}
		return a
	}
	return fin(a.v * k)
}

func (a ext) le(v int64) bool { return a.inf < 0 || (a.inf == 0 && a.v <= v) }
func (a ext) ge(v int64) bool { return a.inf > 0 || (a.inf == 0 && a.v >= v) }
func extMin(a, b ext) ext {
	if a.inf < b.inf || (a.inf == b.inf && a.inf == 0 && a.v < b.v) {
		return a
	}
	return b
}
func extMax(a, b ext) ext {
	if a.inf > b.inf || (a.inf == b.inf && a.inf == 0 && a.v > b.v) {
		return a
	}
	return b
}

// rangeOf bounds a*i for i in the index range.
func rangeOf(a int64, ix Index) (lo, hi ext) {
	if a == 0 {
		return fin(0), fin(0)
	}
	if !ix.Bounded {
		return negInf, posInf
	}
	x, y := fin(a*ix.Lo), fin(a*ix.Hi)
	return extMin(x, y), extMax(x, y)
}

// ---------------------------------------------------------------------------
// Per-dimension tests

// gcd of non-negative operands.
func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// pin records that a dimension proved the distance i' − i of one index
// exactly (strong SIV). TestPair intersects pins across dimensions: two
// dimensions pinning different distances on the same index make the
// direction vector infeasible.
type pin struct {
	idx int
	d   int64
}

// dimFeasible tests one subscript dimension under one direction vector:
// does an integer solution of w(i) = r(i') exist with i, i' in bounds and
// each index pair related per dirs? It bounds h = w(i) - r(i') by the
// Banerjee-style box relaxation per direction (sound for disproving:
// the true solution set is contained in the relaxed box). exact reports
// that the test additionally *proved* this dimension's constraint is
// satisfied (ZIV equality, or strong SIV with an in-span constant
// distance, returned as p).
func dimFeasible(w, r Sub, idxs []Index, dirs []Dir) (feasible, exact bool, p *pin) {
	if !w.OK || !r.OK {
		return true, false, nil
	}
	// GCD screen (direction-independent): h = Σ a_k i_k - Σ b_k i'_k
	// must bridge r.Const - w.Const.
	var g int64
	for _, ix := range idxs {
		g = gcd(g, w.Coeff(ix.Name))
		g = gcd(g, r.Coeff(ix.Name))
	}
	diff := r.Const - w.Const
	if g == 0 {
		// ZIV: constant subscripts on both sides. When equal, every
		// direction stays feasible (and a solution exists whenever the
		// dir-constrained iterations do — TestPair checks the spans).
		return diff == 0, diff == 0, nil
	}
	if diff%g != 0 {
		return false, false, nil
	}

	// Strong SIV exactness: a single common index with equal coefficients
	// pins the distance d = i' - i = (w.Const - r.Const)/a exactly.
	if si, ok := singleIndex(w, r, idxs); ok {
		a, b := w.Coeff(idxs[si].Name), r.Coeff(idxs[si].Name)
		if a == b && a != 0 && diff%a == 0 {
			d := -diff / a // i' - i for a solution
			if !sivDirOK(d, dirs[si]) {
				return false, false, nil
			}
			ix := idxs[si]
			if ix.Bounded {
				span := ix.Hi - ix.Lo
				if span < 0 {
					span = 0
				}
				if d > span || d < -span {
					return false, false, nil
				}
				return true, true, &pin{idx: si, d: d}
			}
			// Distance pinned but existence over an unbounded range is not
			// proven (the range may be empty or too short).
			return true, false, &pin{idx: si, d: d}
		}
	}

	// Banerjee per-direction box bounds: for each index k, bound the
	// contribution a_k·i_k − b_k·i'_k under the direction constraint.
	lo, hi := fin(0), fin(0)
	for k, ix := range idxs {
		a, b := w.Coeff(ix.Name), r.Coeff(ix.Name)
		tlo, thi := termBounds(a, b, ix, dirs[k])
		lo = lo.add(tlo)
		hi = hi.add(thi)
	}
	// Feasible iff diff ∈ [lo, hi].
	return lo.le(diff) && hi.ge(diff), false, nil
}

// singleIndex reports the sole index appearing in either subscript, if
// exactly one does.
func singleIndex(w, r Sub, idxs []Index) (int, bool) {
	found, n := -1, 0
	for k, ix := range idxs {
		if w.Coeff(ix.Name) != 0 || r.Coeff(ix.Name) != 0 {
			found = k
			n++
		}
	}
	return found, n == 1
}

// sivDirOK checks a constant distance d = i' - i against a direction
// constraint on (i, i').
func sivDirOK(d int64, dir Dir) bool {
	switch dir {
	case DirLT:
		return d > 0
	case DirEQ:
		return d == 0
	case DirGT:
		return d < 0
	}
	return true
}

// termBounds bounds a·i − b·i' for index ix under direction dir.
// For "=" the term collapses to (a−b)·t exactly. For "<" and ">" the
// coupled constraint i' ≥ i+1 (resp. i ≥ i'+1) is handled exactly when
// the coefficients match (strong-SIV shape) and by box relaxation
// otherwise — still sound for disproving dependence.
func termBounds(a, b int64, ix Index, dir Dir) (lo, hi ext) {
	switch dir {
	case DirEQ:
		return rangeOf(a-b, ix)
	case DirLT:
		// i' = i + d, d ≥ 1: term = (a−b)·i − b·d.
		return coupledBounds(a, b, ix)
	case DirGT:
		// i = i' + d, d ≥ 1: term = (a−b)·i' + a·d, which is exactly the
		// shape coupledBounds(−b, −a) computes: (−b−(−a))·i' − (−a)·d.
		return coupledBounds(-b, -a, ix)
	}
	lo1, hi1 := rangeOf(a, ix)
	lo2, hi2 := rangeOf(b, ix)
	return lo1.add(hi2.mul(-1)), hi1.add(lo2.mul(-1))
}

// coupledBounds bounds (a−b)·i − b·d over i ∈ [Lo, Hi−1], d ∈ [1, Hi−i−…]
// relaxed to d ∈ [1, span]; unbounded ranges relax to ±∞ except when the
// expression is constant.
func coupledBounds(a, b int64, ix Index) (lo, hi ext) {
	c := a - b
	if c == 0 && b == 0 {
		return fin(0), fin(0)
	}
	if !ix.Bounded {
		// (a−b)·i unbounded unless c == 0; −b·d with d ≥ 1 unbounded above
		// or below per sign of b unless b == 0.
		lo, hi = fin(0), fin(0)
		if c != 0 {
			lo, hi = negInf, posInf
		}
		switch {
		case b > 0:
			lo = negInf
			hi = hi.add(fin(-b)) // d ≥ 1 ⇒ −b·d ≤ −b
		case b < 0:
			hi = posInf
			lo = lo.add(fin(-b))
		}
		return lo, hi
	}
	span := ix.Hi - ix.Lo
	if span < 1 {
		// No pair of distinct iterations exists: infeasible range.
		return fin(1), fin(0)
	}
	iLo, iHi := ix.Lo, ix.Hi-1
	clo, chi := fin(c*iLo), fin(c*iHi)
	if c < 0 {
		clo, chi = chi, clo
	}
	dlo, dhi := fin(-b*1), fin(-b*span)
	if b > 0 {
		dlo, dhi = dhi, dlo
	}
	return clo.add(dlo), chi.add(dhi)
}

// ---------------------------------------------------------------------------
// Pair testing

// TestPair tests one (write, read) pair of same-array references with
// subscripts w and r over the index space idxs. It enumerates direction
// vectors hierarchically and keeps those no dimension can disprove.
func TestPair(w, r []Sub, idxs []Index) Result {
	if len(w) != len(r) {
		return Result{Kind: Unknown}
	}
	n := len(idxs)
	total := 1
	for i := 0; i < n; i++ {
		total *= 3
	}
	res := Result{Kind: Independent}
	carriedExact := false
	eqExact := false
	var exactDist int64
	exactDim := 0
	for code := 0; code < total; code++ {
		dirs := make([]Dir, n)
		c := code
		for i := 0; i < n; i++ {
			dirs[i] = Dir(c % 3)
			c /= 3
		}
		feasible := true
		exactAll := true
		decidedDim := 0
		pins := make(map[int]int64) // index -> proven distance
		pinDim := make(map[int]int) // index -> dimension that pinned it
		for d := range w {
			f, ex, p := dimFeasible(w[d], r[d], idxs, dirs)
			if !f {
				feasible = false
				decidedDim = d
				break
			}
			if p != nil {
				if prev, ok := pins[p.idx]; ok && prev != p.d {
					// Two dimensions demand different distances on the same
					// index: no simultaneous solution under this vector.
					feasible = false
					decidedDim = d
					break
				}
				pins[p.idx] = p.d
				pinDim[p.idx] = d
			}
			if !ex {
				exactAll = false
			}
		}
		if !feasible {
			if len(res.Dirs) == 0 {
				res.Dim = decidedDim
			}
			continue
		}
		res.Dirs = append(res.Dirs, dirs)
		// An exact vector proves a solution only if every dir-constrained
		// index actually admits two distinct iterations.
		if exactAll && spansOK(idxs, dirs) {
			if Carried(dirs) {
				carriedExact = true
				if !res.DistKnown {
					// Report the distance of the first carried pinned index.
					for k, dr := range dirs {
						if dr == DirEQ {
							continue
						}
						if d, ok := pins[k]; ok {
							exactDist, exactDim = d, pinDim[k]
							res.DistKnown = true
							break
						}
					}
				}
			} else {
				eqExact = true
			}
		}
	}
	if len(res.Dirs) == 0 {
		res.Kind = Independent
		return res
	}
	switch {
	case carriedExact:
		res.Kind = Dependent
		res.CarriedProven = true
		res.Dist, res.Dim = exactDist, exactDim
	case eqExact:
		// Only loop-independent dependence proven (same-iteration reuse).
		res.Kind = Dependent
	default:
		res.Kind = Unknown
	}
	return res
}

// spansOK checks that the vector's iterations exist: every index has a
// known, non-empty range (an unbounded one may iterate zero times), and
// every index constrained to distinct iterations admits two of them.
func spansOK(idxs []Index, dirs []Dir) bool {
	for k, d := range dirs {
		ix := idxs[k]
		if !ix.Bounded || ix.Hi < ix.Lo || (d != DirEQ && ix.Hi == ix.Lo) {
			return false
		}
	}
	return true
}
