package exec

import (
	"math"

	"hpfperf/internal/ast"
	"hpfperf/internal/hir"
	"hpfperf/internal/sem"
)

// exprFn evaluates a lowered expression. Expressions have no side
// effects, so a runtime error simply aborts the run (see VM.fail).
type exprFn func() val

// indexFn evaluates a lowered subscript to a global index.
type indexFn func() int

// slot is the frame slot of one scalar. set stays false until the first
// store: Fortran leaves uninitialized variables undefined, modeled as
// zero of the reading reference's type.
type slot struct {
	v   val
	set bool
}

// slot returns the frame slot of scalar name.
func (vm *VM) slot(name string) *slot {
	s := vm.slots[name]
	if s == nil {
		s = &slot{}
		vm.slots[name] = s
	}
	return s
}

// read returns the slot's value, or def when it was never stored.
func (s *slot) read(def val) val {
	if s.set {
		return s.v
	}
	return def
}

func (s *slot) store(v val) {
	s.v = v
	s.set = true
}

// lowerExpr lowers an expression to a closure over the run's storage.
func (vm *VM) lowerExpr(e hir.Expr) exprFn {
	switch x := e.(type) {
	case *hir.Const:
		v := fromSem(x.Val)
		return func() val { return v }
	case *hir.Ref:
		s, zero := vm.slot(x.Name), convertTo(val{}, x.Typ)
		return func() val { return s.read(zero) }
	case *hir.Elem:
		a := vm.arrays[x.Array]
		if a == nil {
			return func() val {
				vm.fail("array %s has no storage", x.Array)
				return val{}
			}
		}
		at := vm.lowerOffset(a, x.Subs)
		return func() val { return a.load(at()) }
	case *hir.Bin:
		return vm.lowerBin(x)
	case *hir.Un:
		f := vm.lowerExpr(x.X)
		switch {
		case x.Op == hir.OpNot:
			return func() val { return boolV(!f().asB()) }
		case x.Op == hir.OpNeg && x.Typ == ast.TInteger:
			return func() val { return intV(-f().asI()) }
		case x.Op == hir.OpNeg:
			return func() val { return floatV(-f().asF()) }
		}
		return func() val {
			f()
			vm.fail("bad unary op %v", x.Op)
			return val{}
		}
	case *hir.Intr:
		return vm.lowerIntr(x)
	}
	return func() val {
		vm.fail("unsupported expression %T", e)
		return val{}
	}
}

// lowerIndex lowers a subscript. Loop variables and variable±constant,
// the common subscripts, read their slot directly.
func (vm *VM) lowerIndex(e hir.Expr) indexFn {
	switch x := e.(type) {
	case *hir.Const:
		g := int(fromSem(x.Val).asI())
		return func() int { return g }
	case *hir.Ref:
		// An unset scalar reads as zero whatever its type.
		s := vm.slot(x.Name)
		return func() int { return int(s.v.asI()) }
	case *hir.Bin:
		ref, isRef := x.X.(*hir.Ref)
		c, isConst := x.Y.(*hir.Const)
		if isRef && isConst && x.Typ == ast.TInteger && (x.Op == hir.OpAdd || x.Op == hir.OpSub) {
			s, k := vm.slot(ref.Name), fromSem(c.Val).asI()
			if x.Op == hir.OpSub {
				return func() int { return int(s.v.asI() - k) }
			}
			return func() int { return int(s.v.asI() + k) }
		}
	}
	f := vm.lowerExpr(e)
	return func() int { return int(f().asI()) }
}

// lowerOffset lowers the subscripts of a reference to array a into the
// element's bounds-checked linear offset.
func (vm *VM) lowerOffset(a *array, subs []hir.Expr) func() int {
	idx := vm.lowerSubs(subs)
	return func() int {
		off, err := a.offset(idx())
		if err != nil {
			vm.fail("%v", err)
		}
		return off
	}
}

// lowerSubs lowers a subscript list into a closure filling a scratch
// index vector owned by this reference site (expressions never
// re-enter their own site, so one buffer per site suffices).
func (vm *VM) lowerSubs(subs []hir.Expr) func() []int {
	fs := make([]indexFn, len(subs))
	for i, s := range subs {
		fs[i] = vm.lowerIndex(s)
	}
	idx := make([]int, len(subs))
	return func() []int {
		for i, f := range fs {
			idx[i] = f()
		}
		return idx
	}
}

func (vm *VM) lowerBin(x *hir.Bin) exprFn {
	fx, fy := vm.lowerExpr(x.X), vm.lowerExpr(x.Y)
	switch x.Op {
	case hir.OpAnd:
		return func() val {
			a, b := fx(), fy()
			return boolV(a.asB() && b.asB())
		}
	case hir.OpOr:
		return func() val {
			a, b := fx(), fy()
			return boolV(a.asB() || b.asB())
		}
	case hir.OpEq:
		return func() val { return boolV(compare(fx(), fy()) == 0) }
	case hir.OpNe:
		return func() val { return boolV(compare(fx(), fy()) != 0) }
	case hir.OpLt:
		return func() val { return boolV(compare(fx(), fy()) < 0) }
	case hir.OpLe:
		return func() val { return boolV(compare(fx(), fy()) <= 0) }
	case hir.OpGt:
		return func() val { return boolV(compare(fx(), fy()) > 0) }
	case hir.OpGe:
		return func() val { return boolV(compare(fx(), fy()) >= 0) }
	}
	if x.Typ == ast.TInteger {
		switch x.Op {
		case hir.OpAdd:
			return func() val { return intV(fx().asI() + fy().asI()) }
		case hir.OpSub:
			return func() val { return intV(fx().asI() - fy().asI()) }
		case hir.OpMul:
			return func() val { return intV(fx().asI() * fy().asI()) }
		case hir.OpDiv:
			return func() val {
				a, b := fx().asI(), fy().asI()
				if b == 0 {
					vm.fail("integer division by zero")
				}
				return intV(a / b)
			}
		case hir.OpPow:
			return func() val {
				a, b := fx().asI(), fy().asI()
				if b < 0 {
					return intV(0) // Fortran i**(-j) truncates to 0 for |i|>1
				}
				return intV(sem.IntPow(a, b))
			}
		}
	}
	switch x.Op {
	case hir.OpAdd:
		return func() val { return floatV(fx().asF() + fy().asF()) }
	case hir.OpSub:
		return func() val { return floatV(fx().asF() - fy().asF()) }
	case hir.OpMul:
		return func() val { return floatV(fx().asF() * fy().asF()) }
	case hir.OpDiv:
		return func() val { return floatV(fx().asF() / fy().asF()) }
	case hir.OpPow:
		return func() val { return floatV(math.Pow(fx().asF(), fy().asF())) }
	}
	return func() val {
		fx()
		fy()
		vm.fail("bad binary op %v", x.Op)
		return val{}
	}
}

// compare orders two values: as integers when both are integers, else
// as floats, where a NaN compares equal to everything.
func compare(a, b val) int {
	if a.isInt() && b.isInt() {
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		}
		return 0
	}
	af, bf := a.asF(), b.asF()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	}
	return 0
}

// lowerIntr lowers an elemental intrinsic. Every argument is evaluated,
// left to right, before the intrinsic applies.
func (vm *VM) lowerIntr(x *hir.Intr) exprFn {
	fs := make([]exprFn, len(x.Args))
	for i, a := range x.Args {
		fs[i] = vm.lowerExpr(a)
	}
	args := make([]val, len(fs)) // this site's scratch argument vector
	apply := vm.intrinsic(x.Name)
	return func() val {
		for i, f := range fs {
			args[i] = f()
		}
		return apply(args)
	}
}

// intrinsic returns an intrinsic as a function of its evaluated
// arguments.
func (vm *VM) intrinsic(name string) func(args []val) val {
	f1 := func(fn func(float64) float64) func([]val) val {
		return func(args []val) val { return floatV(fn(args[0].asF())) }
	}
	switch name {
	case "ABS":
		return func(args []val) val {
			if args[0].isInt() {
				v := args[0].asI()
				if v < 0 {
					v = -v
				}
				return intV(v)
			}
			return floatV(math.Abs(args[0].asF()))
		}
	case "SQRT":
		return f1(math.Sqrt)
	case "EXP":
		return f1(math.Exp)
	case "LOG":
		return f1(math.Log)
	case "SIN":
		return f1(math.Sin)
	case "COS":
		return f1(math.Cos)
	case "TAN":
		return f1(math.Tan)
	case "ATAN":
		return f1(math.Atan)
	case "MOD":
		return func(args []val) val {
			if args[0].isInt() && args[1].isInt() {
				if args[1].asI() == 0 {
					vm.fail("MOD by zero")
				}
				return intV(args[0].asI() % args[1].asI())
			}
			return floatV(math.Mod(args[0].asF(), args[1].asF()))
		}
	case "MIN":
		return func(args []val) val {
			out := args[0]
			for _, a := range args[1:] {
				if a.asF() < out.asF() {
					out = a
				}
			}
			return out
		}
	case "MAX":
		return func(args []val) val {
			out := args[0]
			for _, a := range args[1:] {
				if a.asF() > out.asF() {
					out = a
				}
			}
			return out
		}
	case "SIGN":
		return func(args []val) val {
			m := math.Abs(args[0].asF())
			if args[1].asF() < 0 {
				m = -m
			}
			return floatV(m)
		}
	case "INT":
		return func(args []val) val { return intV(args[0].asI()) }
	case "REAL", "FLOAT", "DBLE":
		return func(args []val) val { return floatV(args[0].asF()) }
	}
	return func([]val) val {
		vm.fail("unsupported intrinsic %s", name)
		return val{}
	}
}
