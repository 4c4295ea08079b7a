// Package compiler implements phase 1 of the paper (§4.1): it translates a
// semantically analyzed HPF/Fortran 90D program into a loosely synchronous
// SPMD node program (package hir) through the five steps of the
// HPF/Fortran 90D compilation model:
//
//  1. parsing (package parser),
//  2. partitioning via the HPF directives (package sem + dist),
//  3. forall normalization: array assignments and WHERE become foralls,
//  4. sequentialization: parallel constructs become owner-computes loops,
//  5. communication detection and insertion (Shift / AllGather /
//     FetchElem / CShift / Reduce collective calls),
//
// producing alternating phases of local computation and collective
// communication.
package compiler

import (
	"context"
	"fmt"

	"hpfperf/internal/analysis/dep"
	"hpfperf/internal/ast"
	"hpfperf/internal/hir"
	"hpfperf/internal/obs"
	"hpfperf/internal/parser"
	"hpfperf/internal/sem"
	"hpfperf/internal/token"
)

// Error is a compilation error with source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Compile parses, analyzes and lowers an HPF/Fortran 90D source text
// with default options (communication optimization enabled).
func Compile(src string) (*hir.Program, error) {
	return CompileWith(src, Options{})
}

func compileNoOpt(ctx context.Context, src string, opts Options) (*hir.Program, error) {
	_, ps := obs.Start(ctx, "parse")
	prog, err := parser.Parse(src)
	ps.End()
	if err != nil {
		return nil, err
	}
	sctx, ss := obs.Start(ctx, "sem")
	info, err := sem.AnalyzeContext(sctx, prog)
	ss.End()
	if err != nil {
		return nil, err
	}
	// Lowering performs sequentialization plus communication detection
	// and insertion (steps 3-5), so it carries the comm-insert span.
	_, ls := obs.Start(ctx, "comm-insert")
	defer ls.End()
	return LowerWith(info, opts)
}

// LowerWith translates an analyzed program with explicit options.
func LowerWith(info *sem.Info, opts Options) (*hir.Program, error) {
	lw := &lowerer{
		info: info,
		opts: opts,
		out:  &hir.Program{Name: info.Prog.Name, Info: info},
	}
	body, err := lw.lowerStmts(info.Prog.Body, nil)
	if err != nil {
		return nil, err
	}
	lw.out.Body = body
	return lw.out, nil
}

// lowerer carries lowering state.
type lowerer struct {
	info    *sem.Info
	opts    Options
	out     *hir.Program
	tmpN    int
	privTyp map[string]ast.BaseType
	gctx    *gatherCtx // active sequential-loop gather scope, or nil
}

func (lw *lowerer) errf(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// newPriv allocates a private per-processor scalar.
func (lw *lowerer) newPriv(prefix string, t ast.BaseType) string {
	lw.tmpN++
	name := fmt.Sprintf("$%s%d", prefix, lw.tmpN)
	if lw.privTyp == nil {
		lw.privTyp = make(map[string]ast.BaseType)
	}
	lw.privTyp[name] = t
	lw.out.PrivScalars = append(lw.out.PrivScalars, name)
	if lw.out.PrivTypes == nil {
		lw.out.PrivTypes = make(map[string]ast.BaseType)
	}
	lw.out.PrivTypes[name] = t
	return name
}

// newRepl allocates a replicated scalar temporary (registered as an
// ordinary scalar symbol).
func (lw *lowerer) newRepl(prefix string, t ast.BaseType) string {
	lw.tmpN++
	name := fmt.Sprintf("$%s%d", prefix, lw.tmpN)
	lw.info.Symbols[name] = &sem.Symbol{Name: name, Kind: sem.SymScalar, Type: t}
	return name
}

// newTempArray allocates a compiler temporary array cloning the bounds,
// type and mapping of origin.
func (lw *lowerer) newTempArray(origin string) string {
	lw.tmpN++
	name := fmt.Sprintf("$A%d", lw.tmpN)
	os := lw.info.Symbols[origin]
	m := *os.Map
	m.Name = name
	sym := &sem.Symbol{Name: name, Kind: sem.SymArray, Type: os.Type, Bounds: os.Bounds, Map: &m}
	lw.info.Symbols[name] = sym
	lw.out.Temps = append(lw.out.Temps, hir.TempArray{Name: name, Origin: origin, Typ: os.Type})
	return name
}

// idxEnv maps active loop-index names to their HIR private refs.
type idxEnv struct {
	parent *idxEnv
	name   string
}

func (e *idxEnv) bound(name string) bool {
	for s := e; s != nil; s = s.parent {
		if s.name == name {
			return true
		}
	}
	return false
}

func (e *idxEnv) push(name string) *idxEnv { return &idxEnv{parent: e, name: name} }

// lowerStmts lowers a statement list.
func (lw *lowerer) lowerStmts(stmts []ast.Stmt, env *idxEnv) ([]hir.Stmt, error) {
	var out []hir.Stmt
	for _, s := range stmts {
		lowered, err := lw.lowerStmt(s, env)
		if err != nil {
			return nil, err
		}
		out = append(out, lowered...)
	}
	return out, nil
}

func (lw *lowerer) lowerStmt(s ast.Stmt, env *idxEnv) ([]hir.Stmt, error) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		return lw.lowerAssign(x, env)
	case *ast.DoStmt:
		return lw.lowerDo(x, env)
	case *ast.DoWhileStmt:
		return lw.lowerDoWhile(x, env)
	case *ast.IfStmt:
		return lw.lowerIf(x, env)
	case *ast.ForallStmt:
		return lw.lowerForall(x, env, false)
	case *ast.WhereStmt:
		return lw.lowerWhere(x, env)
	case *ast.PrintStmt:
		return lw.lowerPrint(x, env)
	case *ast.StopStmt, *ast.ContinueStmt:
		return nil, nil
	case *ast.CallStmt:
		return nil, lw.errf(x.Pos(), "CALL %s: external subroutines are outside the supported subset", x.Name)
	}
	return nil, lw.errf(s.Pos(), "unsupported statement %T", s)
}

// lowerDo lowers a sequential DO loop: replicated control flow; the body
// may contain parallel constructs and guarded element assignments. A DO
// carrying a *proven* INDEPENDENT annotation is re-lowered as a forall
// nest instead, giving it an owner-computes partition.
func (lw *lowerer) lowerDo(x *ast.DoStmt, env *idxEnv) ([]hir.Stmt, error) {
	if x.Independent {
		f := forallFromDo(x)
		i := lw.decideIndependent(x.DoPos.Line, false, f.Indices, x.Body)
		if lw.out.Independent[i].Verdict == dep.Proven && forallConvertible(x.Body) {
			if stmts, err := lw.lowerForall(f, env, true); err == nil {
				lw.out.Independent[i].Honored = true
				return stmts, nil
			}
			// The nest builder rejected a shape the verifier accepted (e.g.
			// a non-unit subscript scale on a distributed dimension): fall
			// back to the exact sequential lowering.
		}
	}
	var pre []hir.Stmt
	lo, p1, err := lw.lowerScalarExpr(x.From, env)
	if err != nil {
		return nil, err
	}
	pre = append(pre, p1...)
	hi, p2, err := lw.lowerScalarExpr(x.To, env)
	if err != nil {
		return nil, err
	}
	pre = append(pre, p2...)
	var step hir.Expr = &hir.Const{Val: sem.IntVal(1)}
	if x.Step != nil {
		var p3 []hir.Stmt
		step, p3, err = lw.lowerScalarExpr(x.Step, env)
		if err != nil {
			return nil, err
		}
		pre = append(pre, p3...)
	}
	saved := lw.gctx
	lw.gctx = &gatherCtx{written: lw.writtenArrays(x.Body), gathered: make(map[string]bool)}
	body, err := lw.lowerStmts(x.Body, env.push(x.Var))
	hoisted := lw.gctx.hoisted
	lw.gctx = saved
	if err != nil {
		return nil, err
	}
	var bc hir.OpCount
	bc.Add(hir.CountExpr(lo), 1)
	bc.Add(hir.CountExpr(hi), 1)
	bc.Add(hir.CountExpr(step), 1)
	loop := &hir.Loop{
		Var: x.Var, Lo: lo, Hi: hi, Step: step,
		Body: body, Par: nil, SrcLine: x.Pos().Line, BoundCost: bc, Label: "DO",
	}
	pre = append(pre, hoisted...)
	return append(pre, loop), nil
}

func (lw *lowerer) lowerDoWhile(x *ast.DoWhileStmt, env *idxEnv) ([]hir.Stmt, error) {
	cond, pre, err := lw.lowerScalarExpr(x.Cond, env)
	if err != nil {
		return nil, err
	}
	if len(pre) > 0 {
		// The condition re-evaluates each iteration; hoisted fetches would
		// go stale. Keep the subset strict.
		return nil, lw.errf(x.Pos(), "DO WHILE condition may not read distributed array elements")
	}
	saved := lw.gctx
	lw.gctx = &gatherCtx{written: lw.writtenArrays(x.Body), gathered: make(map[string]bool)}
	body, err := lw.lowerStmts(x.Body, env)
	hoisted := lw.gctx.hoisted
	lw.gctx = saved
	if err != nil {
		return nil, err
	}
	out := append([]hir.Stmt{}, hoisted...)
	return append(out, &hir.While{
		Cond: cond, Body: body, SrcLine: x.Pos().Line, Cost: hir.CountExpr(cond),
	}), nil
}

func (lw *lowerer) lowerIf(x *ast.IfStmt, env *idxEnv) ([]hir.Stmt, error) {
	cond, pre, err := lw.lowerScalarExpr(x.Cond, env)
	if err != nil {
		return nil, err
	}
	then, err := lw.lowerStmts(x.Then, env)
	if err != nil {
		return nil, err
	}
	els, err := lw.lowerStmts(x.Else, env)
	if err != nil {
		return nil, err
	}
	return append(pre, &hir.If{
		Cond: cond, Then: then, Else: els, SrcLine: x.Pos().Line, Cost: hir.CountExpr(cond),
	}), nil
}

func (lw *lowerer) lowerPrint(x *ast.PrintStmt, env *idxEnv) ([]hir.Stmt, error) {
	var pre []hir.Stmt
	var args []hir.Expr
	var cost hir.OpCount
	for _, a := range x.Args {
		if _, isStr := a.(*ast.StringLit); isStr {
			args = append(args, &hir.Const{Val: sem.Value{Type: ast.TCharacter}})
			continue
		}
		if sh := lw.info.ShapeOf(a); sh != nil {
			return nil, lw.errf(a.Pos(), "PRINT of whole arrays is outside the supported subset")
		}
		e, p, err := lw.lowerScalarExpr(a, env)
		if err != nil {
			return nil, err
		}
		pre = append(pre, p...)
		args = append(args, e)
		cost.Add(hir.CountExpr(e), 1)
	}
	return append(pre, &hir.Print{Args: args, SrcLine: x.Pos().Line, Cost: cost}), nil
}
