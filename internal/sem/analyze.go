package sem

import (
	"context"
	"fmt"

	"hpfperf/internal/ast"
	"hpfperf/internal/dist"
	"hpfperf/internal/obs"
	"hpfperf/internal/token"
)

// Analyze runs semantic analysis over a parsed program: declarations,
// implicit typing, directive resolution (into dist descriptors), and a
// full typing/shape pass over all statements.
func Analyze(prog *ast.Program) (*Info, error) {
	return AnalyzeContext(context.Background(), prog)
}

// AnalyzeContext is Analyze under a context. With an active obs span it
// records directive resolution — the data-partitioning step of the
// compilation model — as a child "partition" span.
func AnalyzeContext(ctx context.Context, prog *ast.Program) (*Info, error) {
	a := &analyzer{
		info: &Info{
			Prog:      prog,
			Symbols:   make(map[string]*Symbol),
			Templates: make(map[string][]dist.DimDist),
			Types:     make(map[ast.Expr]ast.BaseType),
			Shapes:    make(map[ast.Expr]*Shape),
			Consts:    make(map[string]Value),
		},
	}
	a.collectDecls()
	_, ps := obs.Start(ctx, "partition")
	a.resolveDirectives()
	ps.End()
	a.checkStmts(prog.Body, nil)
	if len(a.errs) > 0 {
		return a.info, a.errs[0]
	}
	return a.info, nil
}

type analyzer struct {
	info         *Info
	errs         []*Error
	implicitNone bool
}

func (a *analyzer) errorf(pos token.Pos, format string, args ...any) {
	a.errs = append(a.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// ---------------------------------------------------------------------------
// Declarations

func (a *analyzer) collectDecls() {
	prog := a.info.Prog
	// First pass: named constants, in order (later params may reference
	// earlier ones).
	for _, d := range prog.Decls {
		switch x := d.(type) {
		case *ast.ImplicitNoneDecl:
			a.implicitNone = true
		case *ast.ParameterDecl:
			for i, name := range x.Names {
				v, err := EvalConst(x.Values[i], a.info.Consts)
				if err != nil {
					a.errorf(x.Pos(), "PARAMETER %s: %v", name, err)
					continue
				}
				a.info.Consts[name] = v
				a.info.Symbols[name] = &Symbol{Name: name, Kind: SymConst, Type: v.Type, Const: v}
			}
		}
	}
	// Second pass: typed entities.
	for _, d := range prog.Decls {
		td, ok := d.(*ast.TypeDecl)
		if !ok {
			continue
		}
		for _, e := range td.Entities {
			a.declareEntity(e, td.Type)
		}
	}
	// DIMENSION declarations (type comes from earlier decl or implicit).
	for _, d := range prog.Decls {
		dd, ok := d.(*ast.DimensionDecl)
		if !ok {
			continue
		}
		for _, e := range dd.Entities {
			typ := a.implicitType(e.Name, e.Pos)
			if s := a.info.Symbols[e.Name]; s != nil {
				typ = s.Type
			}
			a.declareEntity(e, typ)
		}
	}
}

func (a *analyzer) declareEntity(e ast.Entity, typ ast.BaseType) {
	if s, exists := a.info.Symbols[e.Name]; exists {
		if s.Kind == SymConst {
			a.errorf(e.Pos, "%s already declared as a constant", e.Name)
			return
		}
		if s.Kind == SymScalar && len(e.Dims) > 0 {
			// DIMENSION after type decl upgrades scalar to array.
		} else if len(e.Dims) == 0 {
			s.Type = typ
			return
		}
	}
	sym := &Symbol{Name: e.Name, Type: typ}
	if len(e.Dims) == 0 {
		sym.Kind = SymScalar
	} else {
		sym.Kind = SymArray
		for _, b := range e.Dims {
			lo := 1
			if b.Lo != nil {
				v, err := EvalConstInt(b.Lo, a.info.Consts)
				if err != nil {
					a.errorf(e.Pos, "array %s: non-constant lower bound: %v", e.Name, err)
					return
				}
				lo = v
			}
			hi, err := EvalConstInt(b.Hi, a.info.Consts)
			if err != nil {
				a.errorf(e.Pos, "array %s: non-constant upper bound: %v", e.Name, err)
				return
			}
			if hi < lo {
				a.errorf(e.Pos, "array %s: empty dimension %d:%d", e.Name, lo, hi)
				return
			}
			sym.Bounds = append(sym.Bounds, [2]int{lo, hi})
		}
	}
	a.info.Symbols[e.Name] = sym
}

// implicitType applies Fortran implicit typing (I-N integer, else real).
func (a *analyzer) implicitType(name string, pos token.Pos) ast.BaseType {
	if a.implicitNone {
		a.errorf(pos, "%s is not declared (IMPLICIT NONE in effect)", name)
	}
	c := name[0]
	if c >= 'I' && c <= 'N' {
		return ast.TInteger
	}
	return ast.TReal
}

// lookupOrImplicit returns the symbol for a name, creating an implicitly
// typed scalar when permitted.
func (a *analyzer) lookupOrImplicit(name string, pos token.Pos) *Symbol {
	if s, ok := a.info.Symbols[name]; ok {
		return s
	}
	s := &Symbol{Name: name, Kind: SymScalar, Type: a.implicitType(name, pos)}
	a.info.Symbols[name] = s
	return s
}

// ---------------------------------------------------------------------------
// Statement checking

// loopScope tracks names bound by enclosing DO/FORALL indices.
type loopScope struct {
	parent *loopScope
	name   string
}

func (l *loopScope) bound(name string) bool {
	for s := l; s != nil; s = s.parent {
		if s.name == name {
			return true
		}
	}
	return false
}

func (a *analyzer) checkStmts(stmts []ast.Stmt, scope *loopScope) {
	for _, s := range stmts {
		a.checkStmt(s, scope)
	}
}

func (a *analyzer) checkStmt(s ast.Stmt, scope *loopScope) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		a.checkAssign(x, scope)
	case *ast.IfStmt:
		ct := a.checkExpr(x.Cond, scope)
		if ct != ast.TLogical && ct != ast.TUnknown {
			a.errorf(x.Pos(), "IF condition must be LOGICAL, got %s", ct)
		}
		if sh := a.info.ShapeOf(x.Cond); sh != nil {
			a.errorf(x.Pos(), "IF condition must be scalar")
		}
		a.checkStmts(x.Then, scope)
		a.checkStmts(x.Else, scope)
	case *ast.DoStmt:
		sym := a.lookupOrImplicit(x.Var, x.Pos())
		if sym.Kind != SymScalar || sym.Type != ast.TInteger {
			a.errorf(x.Pos(), "DO variable %s must be an INTEGER scalar", x.Var)
		}
		a.checkExpr(x.From, scope)
		a.checkExpr(x.To, scope)
		if x.Step != nil {
			a.checkExpr(x.Step, scope)
		}
		a.checkStmts(x.Body, &loopScope{parent: scope, name: x.Var})
	case *ast.DoWhileStmt:
		a.checkExpr(x.Cond, scope)
		a.checkStmts(x.Body, scope)
	case *ast.ForallStmt:
		inner := scope
		for _, ix := range x.Indices {
			a.checkExpr(ix.Lo, scope)
			a.checkExpr(ix.Hi, scope)
			if ix.Stride != nil {
				a.checkExpr(ix.Stride, scope)
			}
			// Forall indices are statement-scoped integer names.
			if sym, ok := a.info.Symbols[ix.Name]; ok && sym.Kind == SymArray {
				a.errorf(x.Pos(), "FORALL index %s conflicts with array", ix.Name)
			}
			inner = &loopScope{parent: inner, name: ix.Name}
		}
		if x.Mask != nil {
			mt := a.checkExpr(x.Mask, inner)
			if mt != ast.TLogical && mt != ast.TUnknown {
				a.errorf(x.Mask.Pos(), "FORALL mask must be LOGICAL, got %s", mt)
			}
		}
		for _, body := range x.Body {
			as, ok := body.(*ast.AssignStmt)
			if !ok {
				a.errorf(body.Pos(), "FORALL body must contain only assignments")
				continue
			}
			a.checkAssign(as, inner)
		}
	case *ast.WhereStmt:
		mt := a.checkExpr(x.Mask, scope)
		if mt != ast.TLogical && mt != ast.TUnknown {
			a.errorf(x.Mask.Pos(), "WHERE mask must be LOGICAL, got %s", mt)
		}
		if a.info.ShapeOf(x.Mask) == nil {
			a.errorf(x.Mask.Pos(), "WHERE mask must be an array expression")
		}
		for _, body := range append(append([]ast.Stmt{}, x.Body...), x.ElseBody...) {
			as, ok := body.(*ast.AssignStmt)
			if !ok {
				a.errorf(body.Pos(), "WHERE body must contain only array assignments")
				continue
			}
			a.checkAssign(as, scope)
		}
	case *ast.CallStmt:
		for _, arg := range x.Args {
			a.checkExpr(arg, scope)
		}
	case *ast.PrintStmt:
		for _, arg := range x.Args {
			a.checkExpr(arg, scope)
		}
	case *ast.StopStmt, *ast.ContinueStmt:
	}
}

func (a *analyzer) checkAssign(x *ast.AssignStmt, scope *loopScope) {
	lt := a.checkExpr(x.Lhs, scope)
	rt := a.checkExpr(x.Rhs, scope)
	switch lhs := x.Lhs.(type) {
	case *ast.Ident:
		if s, ok := a.info.Symbols[lhs.Name]; ok && s.Kind == SymConst {
			a.errorf(x.Pos(), "cannot assign to constant %s", lhs.Name)
		}
		if scope.bound(lhs.Name) {
			// assigning to a loop index is legal Fortran only outside the
			// loop; flag it as an error to keep the subset strict.
			a.errorf(x.Pos(), "assignment to active loop index %s", lhs.Name)
		}
	case *ast.CallOrIndex:
		if lhs.Resolved != ast.RefArray {
			a.errorf(x.Pos(), "left side %s is not an array reference", lhs.Name)
		}
	}
	// Numeric assignments convert freely; logical must match.
	if lt == ast.TLogical && rt != ast.TLogical && rt != ast.TUnknown {
		a.errorf(x.Pos(), "cannot assign %s to LOGICAL", rt)
	}
	if rt == ast.TLogical && lt != ast.TLogical && lt != ast.TUnknown {
		a.errorf(x.Pos(), "cannot assign LOGICAL to %s", lt)
	}
	// Shape conformance: scalar RHS broadcasts; array RHS must conform.
	ls, rs := a.info.ShapeOf(x.Lhs), a.info.ShapeOf(x.Rhs)
	if rs != nil {
		if ls == nil {
			a.errorf(x.Pos(), "cannot assign array value to scalar %s", ast.ExprString(x.Lhs))
		} else if !ls.Conforms(rs) {
			a.errorf(x.Pos(), "non-conforming array assignment: %v vs %v", ls.Dims, rs.Dims)
		}
	}
}

// ---------------------------------------------------------------------------
// Expression checking: returns the type, records type and shape.

func (a *analyzer) checkExpr(e ast.Expr, scope *loopScope) ast.BaseType {
	t, sh := a.typeAndShape(e, scope)
	a.info.Types[e] = t
	if sh != nil {
		a.info.Shapes[e] = sh
	}
	return t
}

func (a *analyzer) typeAndShape(e ast.Expr, scope *loopScope) (ast.BaseType, *Shape) {
	switch x := e.(type) {
	case *ast.IntLit:
		return ast.TInteger, nil
	case *ast.RealLit:
		if x.Double {
			return ast.TDouble, nil
		}
		return ast.TReal, nil
	case *ast.LogicalLit:
		return ast.TLogical, nil
	case *ast.StringLit:
		return ast.TCharacter, nil
	case *ast.Ident:
		if scope.bound(x.Name) {
			return ast.TInteger, nil
		}
		sym := a.lookupOrImplicit(x.Name, x.Pos())
		if sym.Kind == SymArray {
			return sym.Type, &Shape{Dims: sym.Bounds}
		}
		return sym.Type, nil
	case *ast.UnaryExpr:
		t := a.checkExpr(x.X, scope)
		sh := a.info.ShapeOf(x.X)
		if x.Op == token.NOT && t != ast.TLogical && t != ast.TUnknown {
			a.errorf(x.Pos(), ".NOT. requires LOGICAL operand, got %s", t)
		}
		if x.Op == token.MINUS && t == ast.TLogical {
			a.errorf(x.Pos(), "unary minus on LOGICAL operand")
		}
		return t, sh
	case *ast.BinaryExpr:
		return a.binaryTypeAndShape(x, scope)
	case *ast.Section:
		// Bare sections are handled inside CallOrIndex; seeing one here is
		// a parser artifact.
		a.errorf(x.Pos(), "unexpected section outside array reference")
		return ast.TUnknown, nil
	case *ast.CallOrIndex:
		return a.callTypeAndShape(x, scope)
	}
	return ast.TUnknown, nil
}

func (a *analyzer) binaryTypeAndShape(x *ast.BinaryExpr, scope *loopScope) (ast.BaseType, *Shape) {
	lt := a.checkExpr(x.X, scope)
	rt := a.checkExpr(x.Y, scope)
	ls, rs := a.info.ShapeOf(x.X), a.info.ShapeOf(x.Y)
	// Result shape: elementwise ops broadcast scalars.
	var sh *Shape
	switch {
	case ls != nil && rs != nil:
		if !ls.Conforms(rs) {
			a.errorf(x.Pos(), "non-conforming operands: %v vs %v", ls.Dims, rs.Dims)
		}
		sh = ls
	case ls != nil:
		sh = ls
	case rs != nil:
		sh = rs
	}
	if x.Op.IsRelational() {
		a.requireNumeric(lt, x.X.Pos())
		a.requireNumeric(rt, x.Y.Pos())
		return ast.TLogical, sh
	}
	switch x.Op {
	case token.AND, token.OR, token.EQV, token.NEQV:
		if lt != ast.TLogical && lt != ast.TUnknown {
			a.errorf(x.X.Pos(), "%s requires LOGICAL operands, got %s", x.Op, lt)
		}
		if rt != ast.TLogical && rt != ast.TUnknown {
			a.errorf(x.Y.Pos(), "%s requires LOGICAL operands, got %s", x.Op, rt)
		}
		return ast.TLogical, sh
	case token.CONCAT:
		a.errorf(x.Pos(), "%s (concatenation) is not supported", x.Op)
		return ast.TUnknown, sh
	}
	a.requireNumeric(lt, x.X.Pos())
	a.requireNumeric(rt, x.Y.Pos())
	return promote(lt, rt), sh
}

func (a *analyzer) requireNumeric(t ast.BaseType, pos token.Pos) {
	switch t {
	case ast.TInteger, ast.TReal, ast.TDouble, ast.TUnknown:
	default:
		a.errorf(pos, "numeric operand required, got %s", t)
	}
}

// promote implements Fortran numeric type promotion.
func promote(aT, bT ast.BaseType) ast.BaseType {
	if aT == ast.TDouble || bT == ast.TDouble {
		return ast.TDouble
	}
	if aT == ast.TReal || bT == ast.TReal {
		return ast.TReal
	}
	return ast.TInteger
}

func (a *analyzer) callTypeAndShape(x *ast.CallOrIndex, scope *loopScope) (ast.BaseType, *Shape) {
	sym, declared := a.info.Symbols[x.Name]
	if declared && sym.Kind == SymArray {
		x.Resolved = ast.RefArray
		return a.arrayRefTypeAndShape(x, sym, scope)
	}
	if info, ok := Intrinsics[x.Name]; ok {
		x.Resolved = ast.RefIntrinsic
		return a.intrinsicTypeAndShape(x, info, scope)
	}
	a.errorf(x.Pos(), "%s is neither a declared array nor a supported intrinsic", x.Name)
	return ast.TUnknown, nil
}

func (a *analyzer) arrayRefTypeAndShape(x *ast.CallOrIndex, sym *Symbol, scope *loopScope) (ast.BaseType, *Shape) {
	if len(x.Args) != sym.Rank() {
		a.errorf(x.Pos(), "array %s has rank %d, referenced with %d subscripts", x.Name, sym.Rank(), len(x.Args))
		return sym.Type, nil
	}
	var dims [][2]int
	for i, arg := range x.Args {
		if sec, ok := arg.(*ast.Section); ok {
			lo, hi := sym.Bounds[i][0], sym.Bounds[i][1]
			stride := 1
			if sec.Lo != nil {
				a.checkExpr(sec.Lo, scope)
				if v, err := EvalConstInt(sec.Lo, a.info.Consts); err == nil {
					lo = v
				}
			}
			if sec.Hi != nil {
				a.checkExpr(sec.Hi, scope)
				if v, err := EvalConstInt(sec.Hi, a.info.Consts); err == nil {
					hi = v
				}
			}
			if sec.Stride != nil {
				a.checkExpr(sec.Stride, scope)
				if v, err := EvalConstInt(sec.Stride, a.info.Consts); err == nil && v != 0 {
					stride = v
				}
			}
			// Extent of the section; for non-constant bounds this is a
			// conservative estimate using declared bounds.
			n := (hi - lo) / stride
			if n < 0 {
				n = 0
			}
			dims = append(dims, [2]int{1, n + 1})
			continue
		}
		t := a.checkExpr(arg, scope)
		if t != ast.TInteger && t != ast.TUnknown {
			a.errorf(arg.Pos(), "subscript %d of %s must be INTEGER, got %s", i+1, x.Name, t)
		}
	}
	if dims != nil {
		return sym.Type, &Shape{Dims: dims}
	}
	return sym.Type, nil
}

func (a *analyzer) intrinsicTypeAndShape(x *ast.CallOrIndex, info IntrinsicInfo, scope *loopScope) (ast.BaseType, *Shape) {
	if len(x.Args) < info.MinArgs || len(x.Args) > info.MaxArgs {
		a.errorf(x.Pos(), "%s expects %d..%d arguments, got %d", info.Name, info.MinArgs, info.MaxArgs, len(x.Args))
	}
	var argTypes []ast.BaseType
	var argShapes []*Shape
	for _, arg := range x.Args {
		argTypes = append(argTypes, a.checkExpr(arg, scope))
		argShapes = append(argShapes, a.info.ShapeOf(arg))
	}
	firstShape := func() *Shape {
		if len(argShapes) > 0 {
			return argShapes[0]
		}
		return nil
	}
	resultType := ast.TReal
	if len(argTypes) > 0 {
		resultType = argTypes[0]
		for _, t := range argTypes[1:] {
			if t == ast.TInteger || t == ast.TReal || t == ast.TDouble {
				resultType = promote(resultType, t)
			}
		}
	}
	if info.ReturnsInt {
		resultType = ast.TInteger
	}
	if info.ReturnsLogical {
		resultType = ast.TLogical
	}
	switch info.Class {
	case Elemental:
		return resultType, firstShape()
	case Reduction, Location, Transformational, Inquiry:
		if info.Class != Inquiry && firstShape() == nil {
			a.errorf(x.Pos(), "%s requires an array argument", info.Name)
		}
		return resultType, nil
	case Shift:
		if firstShape() == nil {
			a.errorf(x.Pos(), "%s requires an array argument", info.Name)
		}
		return resultType, firstShape()
	}
	return resultType, nil
}
