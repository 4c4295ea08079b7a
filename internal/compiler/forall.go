package compiler

import (
	"fmt"

	"hpfperf/internal/analysis/dep"
	"hpfperf/internal/ast"
	"hpfperf/internal/dist"
	"hpfperf/internal/hir"
	"hpfperf/internal/sem"
	"hpfperf/internal/token"
)

// lowerForall sequentializes a FORALL statement or construct into
// owner-computes partitioned loop nests (§4.3 of the paper, Figure 2):
// a communication level fetching off-processor data, a local computation
// level, and (via write buffering) a final level writing computed values.
// noBuffer drops the write buffering, which is sound only when no
// iteration reads an element another iteration writes; an INDEPENDENT
// annotation on x sets it from the verifier's verdict.
//
// A proven annotation on x is honored only when some assignment needed
// the copy it drops; otherwise it has no effect on the lowered program.
func (lw *lowerer) lowerForall(x *ast.ForallStmt, env *idxEnv, noBuffer bool) ([]hir.Stmt, error) {
	rec := -1
	if x.Independent {
		rec = lw.decideIndependent(x.ForPos.Line, true, x.Indices, x.Body)
		noBuffer = lw.out.Independent[rec].Verdict == dep.Proven
	}
	var out []hir.Stmt
	type trip struct{ lo, hi, step hir.Expr }
	trips := make([]trip, len(x.Indices))
	for i, ix := range x.Indices {
		lo, p, err := lw.lowerScalarExpr(ix.Lo, env)
		if err != nil {
			return nil, err
		}
		out = append(out, p...)
		hi, p2, err := lw.lowerScalarExpr(ix.Hi, env)
		if err != nil {
			return nil, err
		}
		out = append(out, p2...)
		var step hir.Expr = &hir.Const{Val: sem.IntVal(1)}
		if ix.Stride != nil {
			var p3 []hir.Stmt
			step, p3, err = lw.lowerScalarExpr(ix.Stride, env)
			if err != nil {
				return nil, err
			}
			out = append(out, p3...)
		}
		trips[i] = trip{lo, hi, step}
	}

	// Each body assignment is an independent forall (construct semantics:
	// statements complete in sequence).
	for _, body := range x.Body {
		as, ok := body.(*ast.AssignStmt)
		if !ok {
			return nil, lw.errf(body.Pos(), "FORALL body must contain only assignments")
		}
		ctx := newNestCtx(lw, env, as.Pos().Line)
		ctx.noBuffer = noBuffer
		for _, ix := range x.Indices {
			ctx.addIndex(ix.Name)
		}
		bounds := make([][3]hir.Expr, len(x.Indices))
		for i := range x.Indices {
			bounds[i] = [3]hir.Expr{trips[i].lo, trips[i].hi, trips[i].step}
		}
		stmts, err := lw.lowerNestAssign(ctx, as, x.Mask, bounds, "FORALL")
		if err != nil {
			return nil, err
		}
		out = append(out, stmts...)
		if rec >= 0 && ctx.skippedCopy {
			lw.out.Independent[rec].Honored = true
		}
	}
	return out, nil
}

// lowerWhere lowers a WHERE statement/construct: each branch assignment is
// a masked array assignment (§4.3: WHERE is a special case of forall).
func (lw *lowerer) lowerWhere(x *ast.WhereStmt, env *idxEnv) ([]hir.Stmt, error) {
	var out []hir.Stmt
	for _, body := range x.Body {
		as, ok := body.(*ast.AssignStmt)
		if !ok {
			return nil, lw.errf(body.Pos(), "WHERE body must contain only array assignments")
		}
		stmts, err := lw.lowerArrayAssign(as, x.Mask, env, "WHERE")
		if err != nil {
			return nil, err
		}
		out = append(out, stmts...)
	}
	if len(x.ElseBody) > 0 {
		neg := &ast.UnaryExpr{Op: token.NOT, X: x.Mask, OpPos: x.Pos()}
		lw.info.Types[neg] = ast.TLogical
		if s := lw.info.Shapes[x.Mask]; s != nil {
			lw.info.Shapes[neg] = s
		}
		for _, body := range x.ElseBody {
			as, ok := body.(*ast.AssignStmt)
			if !ok {
				return nil, lw.errf(body.Pos(), "ELSEWHERE body must contain only array assignments")
			}
			stmts, err := lw.lowerArrayAssign(as, neg, env, "WHERE")
			if err != nil {
				return nil, err
			}
			out = append(out, stmts...)
		}
	}
	return out, nil
}

// lowerArrayAssign normalizes an array(-section) assignment (optionally
// masked, for WHERE) into an equivalent forall nest with synthetic
// positional indices.
func (lw *lowerer) lowerArrayAssign(as *ast.AssignStmt, mask ast.Expr, env *idxEnv, label string) ([]hir.Stmt, error) {
	if mask == nil {
		if stmts, ok, err := lw.directShiftAssign(as, env); err != nil || ok {
			return stmts, err
		}
	}
	ctx := newNestCtx(lw, env, as.Pos().Line)

	var lhsName string
	var lhsDescs []accessDesc
	var bounds [][3]hir.Expr

	one := &hir.Const{Val: sem.IntVal(1)}
	switch lhs := as.Lhs.(type) {
	case *ast.Ident:
		sym := lw.info.Sym(lhs.Name)
		lhsName = lhs.Name
		for d, b := range sym.Bounds {
			lw.tmpN++
			idx := fmt.Sprintf("$I%d", lw.tmpN)
			ctx.addIndex(idx)
			ctx.bind(idx, d, b[0]-1)
			lhsDescs = append(lhsDescs, accessDesc{kind: descIdx, idx: idx, off: b[0] - 1, scale: 1})
			bounds = append(bounds, [3]hir.Expr{one, &hir.Const{Val: sem.IntVal(int64(b[1] - b[0] + 1))}, one})
		}
	case *ast.CallOrIndex:
		sym := lw.info.Sym(lhs.Name)
		if sym == nil || sym.Kind != sem.SymArray {
			return nil, lw.errf(as.Pos(), "assignment target %s is not an array", lhs.Name)
		}
		lhsName = lhs.Name
		for d, a := range lhs.Args {
			sec, isSec := a.(*ast.Section)
			if !isSec {
				// Scalar subscript on this dimension.
				desc := accessDesc{kind: descConst, src: a}
				if v, err := sem.EvalConstInt(a, lw.info.Consts); err == nil {
					desc.cval, desc.cvalOK = v, true
				}
				lhsDescs = append(lhsDescs, desc)
				continue
			}
			lo, hi := sym.Bounds[d][0], sym.Bounds[d][1]
			loOK, hiOK := true, true
			if sec.Lo != nil {
				if v, err := sem.EvalConstInt(sec.Lo, lw.info.Consts); err == nil {
					lo = v
				} else {
					loOK = false
				}
			}
			if sec.Hi != nil {
				if v, err := sem.EvalConstInt(sec.Hi, lw.info.Consts); err == nil {
					hi = v
				} else {
					hiOK = false
				}
			}
			stride := 1
			if sec.Stride != nil {
				v, err := sem.EvalConstInt(sec.Stride, lw.info.Consts)
				if err != nil {
					return nil, lw.errf(as.Pos(), "section stride on assignment target must be constant")
				}
				stride = v
			}
			distributed := sym.Map != nil && !sym.Map.Replicated && sym.Map.Dims[d].Kind != dist.Collapsed
			if distributed && (!loOK || !hiOK || stride != 1) {
				return nil, lw.errf(as.Pos(), "assignment to %s: distributed dimension %d requires a constant unit-stride section", lhs.Name, d+1)
			}
			lw.tmpN++
			idx := fmt.Sprintf("$I%d", lw.tmpN)
			ctx.addIndex(idx)
			if stride == 1 {
				ctx.bind(idx, d, lo-1)
			}
			lhsDescs = append(lhsDescs, accessDesc{kind: descIdx, idx: idx, off: lo - stride, scale: stride})
			if loOK && hiOK {
				ext := (hi-lo)/stride + 1
				if ext < 0 {
					ext = 0
				}
				bounds = append(bounds, [3]hir.Expr{one, &hir.Const{Val: sem.IntVal(int64(ext))}, one})
			} else {
				// Non-constant extent on a collapsed dimension.
				loE, p, err := lw.lowerScalarExpr(orDefault(sec.Lo, lo, as.Pos()), env)
				if err != nil {
					return nil, err
				}
				ctx.pre = append(ctx.pre, p...)
				hiE, p2, err := lw.lowerScalarExpr(orDefault(sec.Hi, hi, as.Pos()), env)
				if err != nil {
					return nil, err
				}
				ctx.pre = append(ctx.pre, p2...)
				extent := mkBin(hir.OpAdd,
					mkBin(hir.OpDiv, mkBin(hir.OpSub, hiE, loE), &hir.Const{Val: sem.IntVal(int64(stride))}),
					one)
				bounds = append(bounds, [3]hir.Expr{one, extent, one})
				// The descriptor must rebuild the exact global index.
				lhsDescs[len(lhsDescs)-1] = accessDesc{kind: descOther, src: sectionIndexAST(sec, sym.Bounds[d][0], stride, idx, as.Pos())}
			}
		}
	default:
		return nil, lw.errf(as.Pos(), "unsupported assignment target")
	}

	return lw.finishNestAssign(ctx, lhsName, lhsDescs, bounds, as, mask, label)
}

// orDefault returns e, or an IntLit of def when e is nil.
func orDefault(e ast.Expr, def int, pos token.Pos) ast.Expr {
	if e != nil {
		return e
	}
	return &ast.IntLit{Value: int64(def), ValuePos: pos}
}

// sectionIndexAST builds the AST of "lo + stride*idx - stride" for a
// non-constant section on the assignment target.
func sectionIndexAST(sec *ast.Section, deflo int, stride int, idx string, pos token.Pos) ast.Expr {
	lo := orDefault(sec.Lo, deflo, pos)
	return &ast.BinaryExpr{
		Op:    token.MINUS,
		X:     &ast.BinaryExpr{Op: token.PLUS, X: lo, Y: mulAST(stride, idx, pos), OpPos: pos},
		Y:     &ast.IntLit{Value: int64(stride), ValuePos: pos},
		OpPos: pos,
	}
}

// lowerNestAssign lowers a forall body assignment with named indices.
func (lw *lowerer) lowerNestAssign(ctx *nestCtx, as *ast.AssignStmt, mask ast.Expr, bounds [][3]hir.Expr, label string) ([]hir.Stmt, error) {
	lhs, ok := as.Lhs.(*ast.CallOrIndex)
	if !ok {
		return nil, lw.errf(as.Pos(), "FORALL assignment target must be an array element")
	}
	sym := lw.info.Sym(lhs.Name)
	if sym == nil || sym.Kind != sem.SymArray {
		return nil, lw.errf(as.Pos(), "FORALL assignment target %s is not an array", lhs.Name)
	}
	distributedLHS := sym.Map != nil && !sym.Map.Replicated
	var lhsDescs []accessDesc
	for d, a := range lhs.Args {
		if _, isSec := a.(*ast.Section); isSec {
			return nil, lw.errf(as.Pos(), "array sections are not allowed inside FORALL bodies")
		}
		desc := ctx.classifySub(a)
		switch desc.kind {
		case descIdx:
			if _, dup := ctx.dimOf[desc.idx]; dup {
				return nil, lw.errf(as.Pos(), "FORALL index %s used in two subscripts of %s", desc.idx, lhs.Name)
			}
			ctx.bind(desc.idx, d, desc.off)
		case descConst:
			if v, err := sem.EvalConstInt(a, lw.info.Consts); err == nil {
				desc.cval, desc.cvalOK = v, true
			}
		case descOther:
			if distributedLHS && sym.Map.Dims[d].Kind != dist.Collapsed {
				return nil, lw.errf(as.Pos(),
					"FORALL: subscript %s of distributed dimension %d of %s is not affine in a single index",
					ast.ExprString(a), d+1, lhs.Name)
			}
		}
		lhsDescs = append(lhsDescs, desc)
	}
	return lw.finishNestAssign(ctx, lhs.Name, lhsDescs, bounds, as, mask, label)
}

// finishNestAssign elementizes mask and RHS, detects write/read overlap
// (forall right-hand sides are fully evaluated before assignment), and
// assembles the communication and loop statements.
func (lw *lowerer) finishNestAssign(ctx *nestCtx, lhsName string, lhsDescs []accessDesc, bounds [][3]hir.Expr, as *ast.AssignStmt, mask ast.Expr, label string) ([]hir.Stmt, error) {
	ctx.lhsArray = lhsName
	sym := lw.info.Sym(lhsName)

	var pre []hir.Stmt
	rhsAst, err := lw.rewriteShifts(as.Rhs, ctx.env, &pre)
	if err != nil {
		return nil, err
	}
	var maskH hir.Expr
	if mask != nil {
		maskAst, err := lw.rewriteShifts(mask, ctx.env, &pre)
		if err != nil {
			return nil, err
		}
		maskH, err = ctx.elementize(maskAst)
		if err != nil {
			return nil, err
		}
	}
	rhsH, err := ctx.elementize(rhsAst)
	if err != nil {
		return nil, err
	}

	overlap := overlaps(ctx.reads, lhsName, lhsDescs)
	needBuffer := overlap && !ctx.noBuffer
	ctx.skippedCopy = overlap && ctx.noBuffer
	target := lhsName
	if needBuffer {
		target = lw.newTempArray(lhsName)
	}
	lhsSubs, err := ctx.descExprs(lhsDescs)
	if err != nil {
		return nil, err
	}

	var cost hir.OpCount
	cost.Add(hir.CountExpr(rhsH), 1)
	for _, s := range lhsSubs {
		cost.Add(hir.CountExpr(s), 1)
	}
	cost.Store++
	cost.Elems++

	guard := sym.Map != nil && !sym.Map.Replicated
	assign := &hir.Assign{
		Lhs:     &hir.ElemLV{Array: target, Subs: lhsSubs, Typ: sym.Type},
		Rhs:     rhsH,
		Guard:   guard,
		SrcLine: ctx.line,
		Cost:    cost,
	}
	var body []hir.Stmt
	if maskH != nil {
		body = []hir.Stmt{&hir.If{Cond: maskH, Then: []hir.Stmt{assign}, SrcLine: ctx.line, Cost: hir.CountExpr(maskH)}}
	} else {
		body = []hir.Stmt{assign}
	}
	ctx.permuteForLocality(bounds)
	par := ctx.parSpecs(target, lhsDescs)
	out := append(pre, ctx.nestStmts(ctx.buildLoops(body, bounds, par, label))...)

	if needBuffer {
		var ccost hir.OpCount
		ccost.Load++
		ccost.Store++
		ccost.Elems += 2
		copyAssign := &hir.Assign{
			Lhs:     &hir.ElemLV{Array: lhsName, Subs: lhsSubs, Typ: sym.Type},
			Rhs:     &hir.Elem{Array: target, Subs: lhsSubs, Typ: sym.Type},
			Guard:   guard,
			SrcLine: ctx.line,
			Cost:    ccost,
		}
		var cbody []hir.Stmt = []hir.Stmt{copyAssign}
		if maskH != nil {
			cbody = []hir.Stmt{&hir.If{Cond: maskH, Then: cbody, SrcLine: ctx.line, Cost: hir.CountExpr(maskH)}}
		}
		out = append(out, ctx.buildLoops(cbody, bounds, ctx.parSpecs(lhsName, lhsDescs), "COPY")...)
	}
	return out, nil
}

// parSpecs builds the per-loop partition specs from the LHS binding.
func (c *nestCtx) parSpecs(targetArray string, lhsDescs []accessDesc) []*hir.ParSpec {
	m := c.lw.info.ArrayMap(c.lhsArray)
	par := make([]*hir.ParSpec, len(c.idxNames))
	for i, idx := range c.idxNames {
		d, bound := c.dimOf[idx]
		if !bound || m == nil || m.Replicated {
			continue
		}
		if m.Dims[d].Kind == dist.Collapsed {
			continue
		}
		par[i] = &hir.ParSpec{Array: targetArray, Dim: d, Offset: c.offOf[idx]}
	}
	return par
}

// overlaps reports whether any recorded read of the assignment target may
// alias an element written by a different iteration (in which case forall
// semantics require a temporary). A read is harmless when it is
// element-wise identical to the write reference, or provably disjoint
// from it (two constant subscripts that differ select disjoint slices).
func overlaps(reads []readRec, lhs string, lhsDescs []accessDesc) bool {
	for _, r := range reads {
		if r.array != lhs {
			continue
		}
		if r.shadow || len(r.descs) != len(lhsDescs) {
			return true
		}
		identical := true
		disjoint := false
		for d := range r.descs {
			if !sameDesc(r.descs[d], lhsDescs[d]) {
				identical = false
			}
			a, b := r.descs[d], lhsDescs[d]
			if a.kind == descConst && b.kind == descConst && a.cvalOK && b.cvalOK && a.cval != b.cval {
				disjoint = true
			}
		}
		if !identical && !disjoint {
			return true
		}
	}
	return false
}

func sameDesc(a, b accessDesc) bool {
	if a.kind == descIdx && b.kind == descIdx {
		return a.idx == b.idx && a.off == b.off && a.scale == b.scale
	}
	if a.kind == descConst && b.kind == descConst {
		return a.cvalOK && b.cvalOK && a.cval == b.cval
	}
	return false
}
