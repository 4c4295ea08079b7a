package sem

import (
	"fmt"
	"math"

	"hpfperf/internal/ast"
	"hpfperf/internal/token"
)

// EvalConst evaluates a constant expression over named constants.
// It supports the arithmetic operators, unary minus, and a few numeric
// intrinsics (MOD, MIN, MAX, INT, REAL, SQRT) on constant arguments.
func EvalConst(e ast.Expr, consts map[string]Value) (Value, error) {
	switch x := e.(type) {
	case *ast.IntLit:
		return IntVal(x.Value), nil
	case *ast.RealLit:
		return RealVal(x.Value), nil
	case *ast.LogicalLit:
		return LogicalVal(x.Value), nil
	case *ast.Ident:
		if v, ok := consts[x.Name]; ok {
			return v, nil
		}
		return Value{}, fmt.Errorf("%s: %s is not a named constant", x.Pos(), x.Name)
	case *ast.UnaryExpr:
		v, err := EvalConst(x.X, consts)
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case token.MINUS:
			if v.Type == ast.TInteger {
				return IntVal(-v.I), nil
			}
			return RealVal(-v.R), nil
		case token.NOT:
			return LogicalVal(!v.B), nil
		}
		return Value{}, fmt.Errorf("%s: unsupported constant unary op %s", x.Pos(), x.Op)
	case *ast.BinaryExpr:
		a, err := EvalConst(x.X, consts)
		if err != nil {
			return Value{}, err
		}
		b, err := EvalConst(x.Y, consts)
		if err != nil {
			return Value{}, err
		}
		return evalConstBinop(x.Op, a, b, x.Pos())
	case *ast.CallOrIndex:
		return evalConstCall(x, consts)
	}
	return Value{}, fmt.Errorf("%s: expression is not constant", e.Pos())
}

func evalConstBinop(op token.Kind, a, b Value, pos token.Pos) (Value, error) {
	bothInt := a.Type == ast.TInteger && b.Type == ast.TInteger
	switch op {
	case token.PLUS:
		if bothInt {
			return IntVal(a.I + b.I), nil
		}
		return RealVal(a.AsFloat() + b.AsFloat()), nil
	case token.MINUS:
		if bothInt {
			return IntVal(a.I - b.I), nil
		}
		return RealVal(a.AsFloat() - b.AsFloat()), nil
	case token.STAR:
		if bothInt {
			return IntVal(a.I * b.I), nil
		}
		return RealVal(a.AsFloat() * b.AsFloat()), nil
	case token.SLASH:
		if bothInt {
			if b.I == 0 {
				return Value{}, fmt.Errorf("%s: constant division by zero", pos)
			}
			return IntVal(a.I / b.I), nil
		}
		return RealVal(a.AsFloat() / b.AsFloat()), nil
	case token.POW:
		if bothInt && b.I >= 0 {
			return IntVal(IntPow(a.I, b.I)), nil
		}
		return RealVal(math.Pow(a.AsFloat(), b.AsFloat())), nil
	case token.EQ:
		return LogicalVal(a.AsFloat() == b.AsFloat()), nil
	case token.NE:
		return LogicalVal(a.AsFloat() != b.AsFloat()), nil
	case token.LT:
		return LogicalVal(a.AsFloat() < b.AsFloat()), nil
	case token.LE:
		return LogicalVal(a.AsFloat() <= b.AsFloat()), nil
	case token.GT:
		return LogicalVal(a.AsFloat() > b.AsFloat()), nil
	case token.GE:
		return LogicalVal(a.AsFloat() >= b.AsFloat()), nil
	case token.AND:
		return LogicalVal(a.B && b.B), nil
	case token.OR:
		return LogicalVal(a.B || b.B), nil
	}
	return Value{}, fmt.Errorf("%s: unsupported constant operator %s", pos, op)
}

func evalConstCall(x *ast.CallOrIndex, consts map[string]Value) (Value, error) {
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := EvalConst(a, consts)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s: %s expects %d constant arguments, got %d", x.Pos(), x.Name, n, len(args))
		}
		return nil
	}
	switch x.Name {
	case "MOD":
		if err := need(2); err != nil {
			return Value{}, err
		}
		if args[0].Type == ast.TInteger && args[1].Type == ast.TInteger {
			if args[1].I == 0 {
				return Value{}, fmt.Errorf("%s: MOD by zero", x.Pos())
			}
			return IntVal(args[0].I % args[1].I), nil
		}
		return RealVal(math.Mod(args[0].AsFloat(), args[1].AsFloat())), nil
	case "MIN":
		v := args[0]
		for _, a := range args[1:] {
			if a.AsFloat() < v.AsFloat() {
				v = a
			}
		}
		return v, nil
	case "MAX":
		v := args[0]
		for _, a := range args[1:] {
			if a.AsFloat() > v.AsFloat() {
				v = a
			}
		}
		return v, nil
	case "INT":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return IntVal(args[0].AsInt()), nil
	case "REAL", "FLOAT", "DBLE":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return RealVal(args[0].AsFloat()), nil
	case "SQRT":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return RealVal(math.Sqrt(args[0].AsFloat())), nil
	}
	return Value{}, fmt.Errorf("%s: %s is not a constant intrinsic", x.Pos(), x.Name)
}

// EvalConstInt evaluates a constant expression and coerces it to int.
func EvalConstInt(e ast.Expr, consts map[string]Value) (int, error) {
	v, err := EvalConst(e, consts)
	if err != nil {
		return 0, err
	}
	if v.Type != ast.TInteger {
		return 0, fmt.Errorf("%s: expected integer constant", e.Pos())
	}
	return int(v.I), nil
}

// IntPow returns base**exp for exp >= 0 by square-and-multiply, in
// O(log exp) multiplications. int64 multiplication wraps modulo 2**64,
// so the result has the same bits as exp repeated multiplications,
// overflow included. Callers decide what a negative exponent means.
func IntPow(base, exp int64) int64 {
	r := int64(1)
	for ; exp > 0; exp >>= 1 {
		if exp&1 == 1 {
			r *= base
		}
		base *= base
	}
	return r
}
