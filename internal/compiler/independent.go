package compiler

import (
	"hpfperf/internal/analysis/dep"
	"hpfperf/internal/ast"
	"hpfperf/internal/hir"
	"hpfperf/internal/sem"
)

// This file implements the INDEPENDENT directive's one decision site.
// Each annotated DO or FORALL is verified once, and the verdict is
// recorded on the program (hir.Program.Independent), from which the
// analysis layer renders its HPF05xx diagnostics. A proven annotation on
// a DO loop re-lowers the loop as a forall nest, so sequentialization
// assigns it an owner-computes partition (Par) and the serialization
// penalty — full trip counts on every processor plus per-element
// FetchElem / hoisted AllGather traffic — disappears from the predicted
// profile. A proven annotation on a FORALL lets the nest skip the
// evaluate-then-assign double buffer. Refuted or unprovable annotations
// change nothing here: the loop keeps its exact sequential semantics.

// decideIndependent runs the dependence verifier over one annotated
// loop, records the decision on the program in source order, and
// returns the record's index so the lowering can mark it honored.
func (lw *lowerer) decideIndependent(line int, forall bool, indices []ast.ForallIndex, body []ast.Stmt) int {
	consts := make(map[string]int64, len(lw.info.Consts))
	for n, v := range lw.info.Consts {
		if v.Type == ast.TInteger {
			consts[n] = v.I
		}
	}
	// Declared array names tell bare-identifier writes in the body apart
	// as whole-array assignments.
	arrays := make(map[string]bool)
	for n, s := range lw.info.Symbols {
		if s.Kind == sem.SymArray {
			arrays[n] = true
		}
	}
	idxs := make([]dep.Index, len(indices))
	for i, ix := range indices {
		idxs[i] = dep.IndexFromRange(ix.Name, ix.Lo, ix.Hi, ix.Stride, consts)
	}
	v, ev := dep.VerifyLoop(idxs, body, consts, arrays)
	lw.out.Independent = append(lw.out.Independent, hir.Independent{Line: line, Forall: forall, Verdict: v, Evidence: ev})
	return len(lw.out.Independent) - 1
}

// forallFromDo rewrites a DO as a single-index FORALL construct over the
// same body, which is legal for a proven-independent DO exactly because
// independence makes iteration order — and evaluate/assign interleaving
// — unobservable. Expression nodes are shared with the original AST so
// the semantic type/shape tables keep applying.
func forallFromDo(x *ast.DoStmt) *ast.ForallStmt {
	return &ast.ForallStmt{
		Indices:   []ast.ForallIndex{{Name: x.Var, Lo: x.From, Hi: x.To, Stride: x.Step}},
		Body:      x.Body,
		Construct: true,
		ForPos:    x.DoPos,
	}
}

// forallConvertible pre-checks the structural subset the forall lowering
// accepts, so an honored DO does not fail compilation on a shape the
// nest builder rejects (element assignments only, no sections).
func forallConvertible(body []ast.Stmt) bool {
	for _, s := range body {
		as, ok := s.(*ast.AssignStmt)
		if !ok {
			return false
		}
		lhs, ok := as.Lhs.(*ast.CallOrIndex)
		if !ok || lhs.Resolved != ast.RefArray {
			return false
		}
		for _, a := range lhs.Args {
			if _, isSec := a.(*ast.Section); isSec {
				return false
			}
		}
	}
	return true
}
