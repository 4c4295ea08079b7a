package hir

import (
	"math"

	"hpfperf/internal/ast"
	"hpfperf/internal/sem"
)

// EvalConst abstractly evaluates a scalar HIR expression against an
// abstract scalar store (§4.2 definition tracing: a critical variable is
// "a variable whose value effects the flow of execution, e.g. a loop
// limit"). lookup resolves scalar references; ok is false when the value
// depends on run-time data (array elements, unresolved scalars, division
// by an unknown zero, ...). Both the interpretation engine (package core)
// and the static-analysis tracer (package analysis) evaluate through this
// one definition so their notions of "statically determinable" agree.
func EvalConst(e Expr, lookup func(name string) (sem.Value, bool)) (sem.Value, bool) {
	switch x := e.(type) {
	case *Const:
		return x.Val, true
	case *Ref:
		return lookup(x.Name)
	case *Elem:
		return sem.Value{}, false
	case *Un:
		v, ok := EvalConst(x.X, lookup)
		if !ok {
			return v, false
		}
		switch x.Op {
		case OpNeg:
			if v.Type == ast.TInteger {
				return sem.IntVal(-v.I), true
			}
			return sem.RealVal(-v.AsFloat()), true
		case OpNot:
			return sem.LogicalVal(!v.B), true
		}
		return sem.Value{}, false
	case *Bin:
		a, ok := EvalConst(x.X, lookup)
		if !ok {
			return a, false
		}
		b, ok := EvalConst(x.Y, lookup)
		if !ok {
			return b, false
		}
		return evalBin(x, a, b)
	case *Intr:
		args := make([]sem.Value, len(x.Args))
		for i, a := range x.Args {
			v, ok := EvalConst(a, lookup)
			if !ok {
				return v, false
			}
			args[i] = v
		}
		return evalIntr(x.Name, args)
	}
	return sem.Value{}, false
}

func evalBin(x *Bin, a, b sem.Value) (sem.Value, bool) {
	switch x.Op {
	case OpAnd:
		return sem.LogicalVal(a.B && b.B), true
	case OpOr:
		return sem.LogicalVal(a.B || b.B), true
	}
	if x.Op.IsCompare() {
		af, bf := a.AsFloat(), b.AsFloat()
		switch x.Op {
		case OpEq:
			return sem.LogicalVal(af == bf), true
		case OpNe:
			return sem.LogicalVal(af != bf), true
		case OpLt:
			return sem.LogicalVal(af < bf), true
		case OpLe:
			return sem.LogicalVal(af <= bf), true
		case OpGt:
			return sem.LogicalVal(af > bf), true
		case OpGe:
			return sem.LogicalVal(af >= bf), true
		}
	}
	if x.Typ == ast.TInteger {
		ai, bi := a.AsInt(), b.AsInt()
		switch x.Op {
		case OpAdd:
			return sem.IntVal(ai + bi), true
		case OpSub:
			return sem.IntVal(ai - bi), true
		case OpMul:
			return sem.IntVal(ai * bi), true
		case OpDiv:
			if bi == 0 {
				return sem.Value{}, false
			}
			return sem.IntVal(ai / bi), true
		case OpPow:
			if bi < 0 {
				return sem.IntVal(0), true
			}
			return sem.IntVal(sem.IntPow(ai, bi)), true
		}
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch x.Op {
	case OpAdd:
		return sem.RealVal(af + bf), true
	case OpSub:
		return sem.RealVal(af - bf), true
	case OpMul:
		return sem.RealVal(af * bf), true
	case OpDiv:
		return sem.RealVal(af / bf), true
	case OpPow:
		return sem.RealVal(math.Pow(af, bf)), true
	}
	return sem.Value{}, false
}

func evalIntr(name string, args []sem.Value) (sem.Value, bool) {
	f1 := func(fn func(float64) float64) (sem.Value, bool) {
		return sem.RealVal(fn(args[0].AsFloat())), true
	}
	switch name {
	case "ABS":
		if args[0].Type == ast.TInteger {
			v := args[0].I
			if v < 0 {
				v = -v
			}
			return sem.IntVal(v), true
		}
		return f1(math.Abs)
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
	case "INT":
		return sem.IntVal(args[0].AsInt()), true
	case "REAL", "FLOAT", "DBLE":
		return sem.RealVal(args[0].AsFloat()), true
	case "MOD":
		if args[0].Type == ast.TInteger && args[1].Type == ast.TInteger {
			if args[1].I == 0 {
				return sem.Value{}, false
			}
			return sem.IntVal(args[0].I % args[1].I), true
		}
		return sem.RealVal(math.Mod(args[0].AsFloat(), args[1].AsFloat())), true
	case "MIN":
		out := args[0]
		for _, a := range args[1:] {
			if a.AsFloat() < out.AsFloat() {
				out = a
			}
		}
		return out, true
	case "MAX":
		out := args[0]
		for _, a := range args[1:] {
			if a.AsFloat() > out.AsFloat() {
				out = a
			}
		}
		return out, true
	}
	return sem.Value{}, false
}

// ScalarRefs lists the scalar names referenced anywhere in an expression,
// including inside array subscripts (for critical-variable diagnostics).
func ScalarRefs(e Expr) []string {
	var out []string
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *Ref:
			out = append(out, x.Name)
		case *Bin:
			walk(x.X)
			walk(x.Y)
		case *Un:
			walk(x.X)
		case *Intr:
			for _, a := range x.Args {
				walk(a)
			}
		case *Elem:
			for _, s := range x.Subs {
				walk(s)
			}
		}
	}
	walk(e)
	return out
}
