package exec

import (
	"math"
	"slices"
	"sync/atomic"

	"hpfperf/internal/ast"
	"hpfperf/internal/hir"
)

// A strip runs up to stripLen consecutive iterations of an innermost loop
// whose body is one independent element assignment as a unit. Inside one
// owner run every iteration has the same context, so the strip checks the
// subscripts at its first and last iteration, evaluates the right-hand
// side node by node into buffers, stores the results and replays each
// iteration's charges in order. Each element goes through the same float
// operations as one statement at a time would, so results, clocks, steps
// and polls stay bit-identical. A strip that could fail runs one
// statement at a time instead, which raises the error where a direct
// interpretation would.
const stripLen = 64

// stripTest is set only by tests: off turns strips off, and the counters
// count the assignments run in strips and one statement at a time.
var stripTest *stripCounts

type stripCounts struct {
	off         bool
	strip, elem atomic.Int64
}

// sub is a subscript a strip evaluates at any iteration: the loop
// variable (when loop is set) plus scalar s (negated when neg is set) plus
// add. Integer arithmetic wraps, so the sum is what lowerIndex computes in
// whatever order the subscript adds its terms.
type sub struct {
	loop, neg bool
	s         *slot
	add       int64
}

func (u sub) at(i int64) int {
	v := u.add
	if u.loop {
		v += i
	}
	if u.s != nil && u.neg {
		v -= u.s.v.asI()
	} else if u.s != nil {
		v += u.s.v.asI()
	}
	return int(v)
}

// ref is an element reference of a strip and, for the current strip, the
// offset of its first iteration's element and the offset step between
// iterations.
type ref struct {
	a         *array
	subs      []sub
	off, step int
}

// offset returns the element's offset at loop index i, or false when a
// subscript lies outside the array.
func (r *ref) offset(i int64) (int, bool) {
	off := 0
	for d, u := range r.subs {
		g, b := u.at(i), r.a.bounds[d]
		if g < b[0] || g > b[1] {
			return 0, false
		}
		off += (g - b[0]) * r.a.strides[d]
	}
	return off, true
}

// locate sets the offsets of the n iterations from index i to last and
// reports whether both ends lie inside the array. Each subscript moves by
// a constant amount per iteration, so the iterations between them do too.
func (r *ref) locate(i, last int64, n int) bool {
	first, ok := r.offset(i)
	end, ok2 := r.offset(last)
	if !ok || !ok2 {
		return false
	}
	r.off, r.step = first, 0
	if n > 1 {
		r.step = (end - first) / (n - 1)
	}
	return true
}

type opcode uint8

const (
	opFill opcode = iota // constant i or f, or scalar s (zero before its first store)
	opLoop               // the loop variable
	opLoad               // element r
	opAdd
	opSub
	opMul
	opDiv
	opPow
	opNeg
	opAbs
	opFn // fn, a float intrinsic
)

// instr computes one right-hand-side node for every iteration of a strip
// into slot of its kind's buffers, and then, when conv is set, converts
// it into slot of the other kind's buffers as asI or asF would. A binary
// operation combines its left operand in slot with its right one in
// slot+1, or, when swap is set, its left operand in slot+1 with its
// right one in slot. A load reads element reference r of the strip.
type instr struct {
	op              opcode
	int, conv, swap bool // int: integer result (kInt), else float
	slot            int
	i               int64
	f               float64
	s               *slot
	r               int
	fn              func(float64) float64
}

var stripOps = map[hir.Op]opcode{hir.OpAdd: opAdd, hir.OpSub: opSub, hir.OpMul: opMul, hir.OpDiv: opDiv, hir.OpPow: opPow}

// strip is the strip form of a loop whose body is one element assignment.
type strip struct {
	vm    *VM
	line  int
	loop  string // loop variable
	iv    *slot
	moves bool    // an LHS subscript carries the loop variable
	own   *owners // the LHS owners of a guarded assignment, else nil
	idx   []int   // the LHS index of a guarded strip's first iteration
	refs  []ref   // the LHS, then every element the right-hand side reads
	code  []instr
	us    []float64 // the statement's charge
	// slots of each kind the code uses
	fSlots, iSlots int
}

// stripPlan holds the charges of one iteration of a strip: us[k] to rank
// ranks[k].
type stripPlan struct {
	ranks []int
	us    []float64
}

// lowerStrip returns the strip form of loop x, or nil when its body is
// not one assignment whose iterations are independent of each other: an
// assignment to an element of a REAL or DOUBLE PRECISION array whose
// subscripts sub parses, whose right-hand side uses only the arithmetic
// and intrinsics instr computes, and which reads the array it stores only
// at the element each iteration stores, one that moves with the loop.
func (vm *VM) lowerStrip(x *hir.Loop, iv *slot) *strip {
	if len(x.Body) != 1 || (stripTest != nil && stripTest.off) {
		return nil
	}
	as, ok := x.Body[0].(*hir.Assign)
	if !ok {
		return nil
	}
	lv, ok := as.Lhs.(*hir.ElemLV)
	if !ok {
		return nil
	}
	a := vm.arrays[lv.Array]
	if a == nil || (a.typ != ast.TReal && a.typ != ast.TDouble) {
		return nil
	}
	s := &strip{vm: vm, line: as.SrcLine, loop: x.Var, iv: iv, us: vm.costs[as]}
	if s.ref(a, lv.Subs) < 0 {
		return nil
	}
	for _, u := range s.lhs().subs {
		s.moves = s.moves || u.loop
	}
	if !s.operand(as.Rhs, 0, false) {
		return nil
	}
	if as.Guard {
		s.own, s.idx = vm.lowerOwners(lv.Array), make([]int, len(lv.Subs))
	}
	vm.fSlots, vm.iSlots = max(vm.fSlots, s.fSlots), max(vm.iSlots, s.iSlots)
	return s
}

// lhs is the element the strip stores, its first reference.
func (s *strip) lhs() *ref { return &s.refs[0] }

// ref appends an element reference to s.refs and returns its index, or
// -1 when a subscript is not one a strip evaluates.
func (s *strip) ref(a *array, subs []hir.Expr) int {
	r := ref{a: a, subs: make([]sub, len(subs))}
	for d, e := range subs {
		var ok bool
		if r.subs[d], ok = s.sub(e); !ok {
			return -1
		}
	}
	s.refs = append(s.refs, r)
	return len(s.refs) - 1
}

// sub parses a subscript that is a constant, a scalar or the loop
// variable, or the integer sum or difference of two of them, with the
// loop variable at most once and never subtracted.
func (s *strip) sub(e hir.Expr) (u sub, ok bool) {
	terms, minus := []hir.Expr{e}, false
	if b, isBin := e.(*hir.Bin); isBin {
		if b.Typ != ast.TInteger || (b.Op != hir.OpAdd && b.Op != hir.OpSub) {
			return u, false
		}
		terms, minus = []hir.Expr{b.X, b.Y}, b.Op == hir.OpSub
	}
	for k, t := range terms {
		neg := minus && k == 1
		switch x := t.(type) {
		case *hir.Const:
			if c := fromSem(x.Val).asI(); neg {
				u.add -= c
			} else {
				u.add += c
			}
		case *hir.Ref:
			switch {
			case x.Name == s.loop && !u.loop && !neg:
				u.loop = true
			case x.Name != s.loop && u.s == nil:
				u.s, u.neg = s.vm.slot(x.Name), neg
			default:
				return u, false
			}
		default:
			return u, false
		}
	}
	return u, true
}

// operand compiles e into slot d as a value of the wanted kind, converting
// as asI or asF would, and reports whether a strip can evaluate it.
func (s *strip) operand(e hir.Expr, d int, wantInt bool) bool {
	isInt, ok := s.compile(e, d)
	if !ok || isInt == wantInt {
		return ok
	}
	in := &s.code[len(s.code)-1]
	if in.conv {
		return false // REAL of an integer, read as an integer: two conversions
	}
	in.conv = true
	s.slots(d, wantInt)
	return true
}

// compile appends the code leaving e's value in slot d and reports the
// kind lowerExpr(e)() has (true: kInt) and whether a strip can evaluate e.
func (s *strip) compile(e hir.Expr, d int) (isInt, ok bool) {
	switch x := e.(type) {
	case *hir.Const:
		if t := x.Val.Type; t == ast.TInteger || t == ast.TReal || t == ast.TDouble {
			v := fromSem(x.Val)
			return s.emit(instr{op: opFill, slot: d, i: v.i, f: v.f}, v.isInt()), true
		}
	case *hir.Ref:
		if x.Name == s.loop {
			return s.emit(instr{op: opLoop, slot: d}, true), true
		}
		if x.Typ == ast.TInteger || x.Typ == ast.TReal || x.Typ == ast.TDouble {
			return s.emit(instr{op: opFill, slot: d, s: s.vm.slot(x.Name)}, x.Typ == ast.TInteger), true
		}
	case *hir.Elem:
		a := s.vm.arrays[x.Array]
		if a == nil || a.typ == ast.TLogical {
			return false, false
		}
		k := s.ref(a, x.Subs)
		if k < 0 || (a == s.lhs().a && !(s.moves && slices.Equal(s.refs[k].subs, s.lhs().subs))) {
			return false, false
		}
		return s.emit(instr{op: opLoad, slot: d, r: k}, a.typ == ast.TInteger), true
	case *hir.Bin:
		// A leaf left operand waits in the slot above a deeper right one,
		// so a constant factor holds no slot while the rest is computed.
		isInt, swap := x.Typ == ast.TInteger, leaf(x.X) && !leaf(x.Y)
		first, second := x.X, x.Y
		if swap {
			first, second = x.Y, x.X
		}
		op, known := stripOps[x.Op]
		if known && !(isInt && op >= opDiv) && s.operand(first, d, isInt) && s.operand(second, d+1, isInt) {
			return s.emit(instr{op: op, slot: d, swap: swap}, isInt), true
		}
	case *hir.Un:
		isInt := x.Typ == ast.TInteger
		if x.Op == hir.OpNeg && s.operand(x.X, d, isInt) {
			return s.emit(instr{op: opNeg, slot: d}, isInt), true
		}
	case *hir.Intr:
		if len(x.Args) != 1 {
			return false, false
		}
		switch fn := floatFns[x.Name]; {
		case x.Name == "REAL" || x.Name == "FLOAT" || x.Name == "DBLE":
			return false, s.operand(x.Args[0], d, false)
		case x.Name == "ABS":
			if isInt, ok := s.compile(x.Args[0], d); !ok {
				return false, false
			} else if isInt {
				return s.emit(instr{op: opAbs, slot: d}, true), true
			}
			return s.emit(instr{op: opFn, slot: d, fn: math.Abs}, false), true
		case fn != nil && s.operand(x.Args[0], d, false):
			return s.emit(instr{op: opFn, slot: d, fn: fn}, false), true
		}
	}
	return false, false
}

// emit appends in with result kind isInt, which it returns.
func (s *strip) emit(in instr, isInt bool) bool {
	in.int = isInt
	s.code = append(s.code, in)
	s.slots(in.slot, isInt)
	return isInt
}

// slots counts slot d of a kind as used.
func (s *strip) slots(d int, isInt bool) {
	if isInt {
		s.iSlots = max(s.iSlots, d+1)
	} else {
		s.fSlots = max(s.fSlots, d+1)
	}
}

func leaf(e hir.Expr) bool {
	switch e.(type) {
	case *hir.Const, *hir.Ref, *hir.Elem:
		return true
	}
	return false
}

// count returns how many of the indices from, from+st, from+2st, ... lie
// on this side of to (inclusive), at most stripLen. from must not lie
// beyond to; the arithmetic is unsigned, so it cannot overflow.
func count(from, to, st int64) int {
	d, s := uint64(to)-uint64(from), uint64(st)
	if st < 0 {
		d, s = uint64(from)-uint64(to), -s
	}
	if q := d / s; q < stripLen {
		return int(q) + 1
	}
	return stripLen
}

// within returns how many iterations from element g, moving by st, stay
// inside the run [lo,hi] that holds g, at most stripLen.
func within(g, lo, hi int, st int64) int {
	if st < 0 {
		return count(int64(g), int64(lo), st)
	}
	return count(int64(g), int64(hi), st)
}

// fits reports whether every scalar the right-hand side reads holds the
// kind its reference reads; the body assigns no scalar, so this holds for
// the whole loop or for none of it.
func (s *strip) fits() bool {
	for k := range s.code {
		in, want := &s.code[k], kFloat
		if in.int {
			want = kInt
		}
		if in.s != nil && in.s.set && in.s.v.kind != want {
			return false
		}
	}
	return true
}

// run runs the iterations from loop index i (to h by st) as one strip
// under cursor c and returns the last index it ran. It runs none, and
// returns false, when one of them could fail; the caller then runs
// iteration i one statement at a time.
func (s *strip) run(c *cursor, i, h, st int64) (int64, bool) {
	vm, lhs := s.vm, s.lhs()
	n := count(i, h, st)
	if st > 1<<32 || st < -1<<32 {
		n = 1 // a longer strip could wrap a subscript between its ends
	}
	g := int(i) + c.off
	if !c.reach(vm.parts, g) {
		return 0, false
	}
	n = min(n, within(g, c.lo, c.hi, st))
	opc := c.inner
	if s.own != nil {
		for d, u := range lhs.subs {
			s.idx[d] = u.at(i)
		}
		for k := range s.own.dims {
			if d := &s.own.dims[k]; s.idx[d.dim] < d.dd.Lo || s.idx[d.dim] > d.dd.Hi {
				return 0, false
			}
		}
		opc = s.own.narrow(c.inner, s.idx)
		for k := range s.own.dims {
			if d := &s.own.dims[k]; lhs.subs[d.dim].loop {
				n = min(n, within(s.idx[d.dim], d.lo, d.hi, st))
			}
		}
	}
	last := i + int64(n-1)*st
	for k := range s.refs {
		if !s.refs[k].locate(i, last, n) {
			return 0, false
		}
	}
	steps := vm.steps + 2*int64(n)
	if steps > vm.maxStep {
		return 0, false
	}
	s.eval(i, st, n)
	for p := steps/ctxCheckSteps - vm.steps/ctxCheckSteps; p > 0; p-- {
		vm.poll()
	}
	data, off := lhs.a.data, lhs.off
	for _, v := range vm.sf[:n] {
		data[off] = v
		off += lhs.step
	}
	s.plan(c.inner, opc)
	vm.mach.Charge(vm.plan.ranks, vm.plan.us, n)
	vm.steps = steps
	s.iv.store(intV(last))
	vm.line = s.line
	if t := stripTest; t != nil {
		t.strip.Add(int64(n))
	}
	return last, true
}

// plan lays out the charges of one iteration under context inner: the
// loop overhead to inner's ranks, then the ownership test to inner's ranks
// and the statement to those of own (when own >= 0), or, unguarded, the
// statement to inner's ranks.
func (s *strip) plan(inner, own int) {
	p := &s.vm.plan
	p.ranks, p.us = p.ranks[:0], p.us[:0]
	p.add(s.vm.parts, inner, s.vm.overhead)
	if s.own == nil {
		p.add(s.vm.parts, inner, s.us)
		return
	}
	p.add(s.vm.parts, inner, s.vm.guard)
	if own >= 0 {
		p.add(s.vm.parts, own, s.us)
	}
}

func (p *stripPlan) add(parts *partitions, pc int, us []float64) {
	if us == nil {
		return
	}
	for _, r := range parts.ranksOf(pc) {
		p.ranks = append(p.ranks, r)
		p.us = append(p.us, us[r])
	}
}

// eval computes the right-hand side for the n iterations from loop index
// i, leaving the values to store in float slot 0.
func (s *strip) eval(i, st int64, n int) {
	vm := s.vm
	f := func(d int) []float64 { return vm.sf[d*stripLen : d*stripLen+n] }
	j := func(d int) []int64 { return vm.si[d*stripLen : d*stripLen+n] }
	for c := range s.code {
		in := &s.code[c]
		d := in.slot
		switch {
		case in.op == opFill:
			iv, fv := in.i, in.f
			if in.s != nil && in.s.set {
				iv, fv = in.s.v.i, in.s.v.f
			}
			if in.int {
				fill(j(d), iv)
			} else {
				fill(f(d), fv)
			}
		case in.op == opLoop:
			x := j(d)
			for k := range x {
				x[k] = i + int64(k)*st
			}
		case in.op == opLoad && in.int:
			load(j(d), &s.refs[in.r])
		case in.op == opLoad:
			load(f(d), &s.refs[in.r])
		case in.op == opFn:
			x := f(d)
			for k := range x {
				x[k] = in.fn(x[k])
			}
		case in.op == opAbs:
			x := j(d)
			for k, v := range x {
				if v < 0 {
					x[k] = -v
				}
			}
		case in.op == opNeg && in.int:
			neg(j(d))
		case in.op == opNeg:
			neg(f(d))
		case in.int && in.swap:
			arith(in.op, j(d), j(d+1), j(d))
		case in.int:
			arith(in.op, j(d), j(d), j(d+1))
		case in.op == opPow:
			z, x, y := f(d), f(d), f(d+1)
			if in.swap {
				x, y = y, x
			}
			for k := range z {
				z[k] = math.Pow(x[k], y[k])
			}
		case in.swap:
			arith(in.op, f(d), f(d+1), f(d))
		default:
			arith(in.op, f(d), f(d), f(d+1))
		}
		if in.conv && in.int {
			convert(f(d), j(d))
		} else if in.conv {
			convert(j(d), f(d))
		}
	}
}

type number interface{ int64 | float64 }

func fill[T number](x []T, v T) {
	for k := range x {
		x[k] = v
	}
}

func load[T number](x []T, r *ref) {
	data, off := r.a.data, r.off
	for k := range x {
		x[k] = T(data[off])
		off += r.step
	}
}

func convert[T, U number](x []T, y []U) {
	for k, v := range y {
		x[k] = T(v)
	}
}

// arith sets z to x op y element by element; z may be x or y.
func arith[T number](op opcode, z, x, y []T) {
	switch op {
	case opAdd:
		for k := range z {
			z[k] = x[k] + y[k]
		}
	case opSub:
		for k := range z {
			z[k] = x[k] - y[k]
		}
	case opMul:
		for k := range z {
			z[k] = x[k] * y[k]
		}
	case opDiv:
		for k := range z {
			z[k] = x[k] / y[k]
		}
	}
}

func neg[T number](x []T) {
	for k := range x {
		x[k] = -x[k]
	}
}
