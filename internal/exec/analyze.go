package exec

import (
	"hpfperf/internal/ast"
	"hpfperf/internal/hir"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/sem"
)

// costCtx carries loop context during static cost analysis.
type costCtx struct {
	innerVar  string // variable of the innermost enclosing loop
	footprint int    // per-node data footprint (bytes) of the outermost nest
	// missScale discounts strided misses for groups of references that
	// share cache lines (e.g. PX(1,J)..PX(13,J) all read column J).
	missScale map[*hir.Elem]float64
}

// analyzeCosts walks the program once, computing per-statement costs.
func (vm *VM) analyzeCosts() {
	vm.costs = make(map[hir.Stmt][]float64)
	P := vm.mach.Node().P
	vm.overhead, vm.guard = vm.us(P.LoopOverheadCycles), vm.us(P.GuardCycles)
	vm.analyzeStmts(vm.prog.Body, costCtx{})
}

func (vm *VM) analyzeStmts(ss []hir.Stmt, ctx costCtx) {
	for _, s := range ss {
		vm.analyzeStmt(s, ctx)
	}
}

func (vm *VM) analyzeStmt(s hir.Stmt, ctx costCtx) {
	P := vm.mach.Node().P
	var cycles float64
	switch x := s.(type) {
	case *hir.Assign:
		var storeScale float64
		ctx.missScale, storeScale = vm.groupMissScale(x)
		cycles = vm.exprCycles(x.Rhs, ctx) + P.StartupStatueCycles
		switch lhs := x.Lhs.(type) {
		case *hir.ElemLV:
			for _, sub := range lhs.Subs {
				cycles += vm.exprCycles(sub, ctx) + P.IntOpCycles
			}
			cls := vm.accessClass(lhs.Subs, false, ctx)
			cycles += vm.mach.MemAccessCyclesScaled(true, cls, ctx.footprint, lhs.Typ.Bytes(), storeScale)
			cycles += P.IndexCycles
		case *hir.ScalarLV:
			cycles += vm.mach.Node().M.StoreCycles
		}
	case *hir.Loop:
		cycles = vm.exprCycles(x.Lo, ctx) + vm.exprCycles(x.Hi, ctx) + vm.exprCycles(x.Step, ctx)
		inner := costCtx{innerVar: x.Var, footprint: ctx.footprint}
		if ctx.footprint == 0 {
			inner.footprint = vm.nestFootprint(x)
		}
		vm.analyzeStmts(x.Body, inner)
	case *hir.While:
		cycles = vm.exprCycles(x.Cond, ctx) + P.BranchCycles
		vm.analyzeStmts(x.Body, ctx)
	case *hir.If:
		cycles = vm.exprCycles(x.Cond, ctx) + P.BranchCycles
		vm.analyzeStmts(x.Then, ctx)
		vm.analyzeStmts(x.Else, ctx)
	case *hir.FetchElem:
		for _, sub := range x.Subs {
			cycles += vm.exprCycles(sub, ctx)
		}
	case *hir.Print:
		for _, a := range x.Args {
			cycles += vm.exprCycles(a, ctx)
		}
	case *hir.Reduce:
		// Local combine bookkeeping per stage is tiny; charged as a fixed
		// handful of cycles (the network cost dominates and is charged by
		// the machine model).
		cycles = 12
	case *hir.CShift:
		cycles = vm.exprCycles(x.Shift, ctx)
	case *hir.EOShift:
		cycles = vm.exprCycles(x.Shift, ctx)
		if x.Boundary != nil {
			cycles += vm.exprCycles(x.Boundary, ctx)
		}
	}
	vm.costs[s] = vm.us(cycles)
}

// us returns cycles as each rank's clock advance, the value
// Machine.Compute adds, or nil for zero cycles, which charge nothing.
// The tables of a run share a few slabs.
func (vm *VM) us(cycles float64) []float64 {
	if cycles == 0 {
		return nil
	}
	n := vm.mach.Nodes()
	if len(vm.slab) < n {
		vm.slab = make([]float64, 16*n)
	}
	t := vm.slab[:n:n]
	vm.slab = vm.slab[n:]
	for r := range t {
		t[r] = vm.mach.ComputeUS(r, cycles)
	}
	return t
}

// exprCycles returns the detailed per-evaluation cycle cost of an
// expression: processing operations plus cache-modeled memory accesses.
func (vm *VM) exprCycles(e hir.Expr, ctx costCtx) float64 {
	P := vm.mach.Node().P
	M := vm.mach.Node().M
	switch x := e.(type) {
	case *hir.Const:
		return 0
	case *hir.Ref:
		return M.LoadCycles
	case *hir.Elem:
		c := P.IndexCycles
		for _, sub := range x.Subs {
			c += vm.exprCycles(sub, ctx) + P.IntOpCycles
		}
		cls := vm.accessClass(x.Subs, x.Shadow, ctx)
		scale := 1.0
		if f, ok := ctx.missScale[x]; ok {
			scale = f
		}
		c += vm.mach.MemAccessCyclesScaled(false, cls, ctx.footprint, x.Typ.Bytes(), scale)
		return c
	case *hir.Bin:
		c := vm.exprCycles(x.X, ctx) + vm.exprCycles(x.Y, ctx)
		isInt := x.Typ == ast.TInteger
		switch {
		case x.Op == hir.OpAdd || x.Op == hir.OpSub:
			if isInt {
				c += P.IntOpCycles
			} else {
				c += P.FAddCycles
			}
		case x.Op == hir.OpMul:
			if isInt {
				c += P.IntOpCycles
			} else {
				c += P.FMulCycles
			}
		case x.Op == hir.OpDiv:
			if isInt {
				c += P.IntOpCycles * 4
			} else {
				c += P.FDivCycles
			}
		case x.Op == hir.OpPow:
			c += P.PowCycles
		case x.Op.IsCompare():
			c += P.CmpCycles
		default:
			c += P.LogicalCycles
		}
		return c
	case *hir.Un:
		c := vm.exprCycles(x.X, ctx)
		if x.Op == hir.OpNot {
			return c + P.LogicalCycles
		}
		if x.Typ == ast.TInteger {
			return c + P.IntOpCycles
		}
		return c + P.FAddCycles
	case *hir.Intr:
		c := P.IntrinsicCallCycles
		if ic, ok := P.IntrinsicCycles[x.Name]; ok {
			c += ic
		} else {
			c += 20
		}
		for _, a := range x.Args {
			c += vm.exprCycles(a, ctx)
		}
		return c
	}
	return 0
}

// groupMissScale finds groups of element reads in one assignment that
// differ only in a constant leading subscript (they stream the same
// columns and share cache lines) and returns a per-reference miss-rate
// scale factor: lines touched by the group divided by references in the
// group.
func (vm *VM) groupMissScale(x *hir.Assign) (map[*hir.Elem]float64, float64) {
	type group struct {
		elems  []*hir.Elem
		consts []int64
	}
	groups := make(map[string]*group)
	var scan func(e hir.Expr)
	scan = func(e hir.Expr) {
		switch n := e.(type) {
		case *hir.Elem:
			if len(n.Subs) >= 2 {
				if c, ok := n.Subs[0].(*hir.Const); ok && c.Val.Type == ast.TInteger {
					key := n.Array
					for _, s := range n.Subs[1:] {
						key += "|" + s.String()
					}
					g := groups[key]
					if g == nil {
						g = &group{}
						groups[key] = g
					}
					g.elems = append(g.elems, n)
					g.consts = append(g.consts, c.Val.I)
				}
			}
			for _, s := range n.Subs {
				scan(s)
			}
		case *hir.Bin:
			scan(n.X)
			scan(n.Y)
		case *hir.Un:
			scan(n.X)
		case *hir.Intr:
			for _, a := range n.Args {
				scan(a)
			}
		}
	}
	scan(x.Rhs)
	// Include the store target in the grouping: a constant-subscripted
	// write lands in the same lines as grouped reads of the same column.
	var lhsElem *hir.Elem
	if lv, ok := x.Lhs.(*hir.ElemLV); ok && len(lv.Subs) >= 2 {
		lhsElem = &hir.Elem{Array: lv.Array, Subs: lv.Subs, Typ: lv.Typ}
		scan(lhsElem)
	}
	if len(groups) == 0 {
		return nil, 1
	}
	scale := make(map[*hir.Elem]float64)
	line := vm.mach.Node().M.LineBytes
	for _, g := range groups {
		if len(g.elems) < 2 {
			continue
		}
		minC, maxC := g.consts[0], g.consts[0]
		for _, c := range g.consts[1:] {
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		spanBytes := int(maxC-minC)*g.elems[0].Typ.Bytes() + g.elems[0].Typ.Bytes()
		lines := (spanBytes + line - 1) / line
		f := float64(lines) / float64(len(g.elems))
		if f > 1 {
			f = 1
		}
		for _, e := range g.elems {
			scale[e] = f
		}
	}
	storeScale := 1.0
	if lhsElem != nil {
		if f, ok := scale[lhsElem]; ok {
			storeScale = f
		}
	}
	return scale, storeScale
}

// accessClass classifies an element access stream by where the innermost
// loop variable appears in the subscripts (Fortran column-major: the first
// subscript is contiguous).
func (vm *VM) accessClass(subs []hir.Expr, shadow bool, ctx costCtx) ipsc.AccessClass {
	if shadow {
		return ipsc.Random
	}
	if ctx.innerVar == "" || len(subs) == 0 {
		return ipsc.Unit
	}
	if exprUsesVar(subs[0], ctx.innerVar) {
		return ipsc.Unit
	}
	for _, s := range subs[1:] {
		if exprUsesVar(s, ctx.innerVar) {
			return ipsc.Strided
		}
	}
	return ipsc.Unit
}

func exprUsesVar(e hir.Expr, name string) bool {
	switch x := e.(type) {
	case *hir.Ref:
		return x.Name == name
	case *hir.Bin:
		return exprUsesVar(x.X, name) || exprUsesVar(x.Y, name)
	case *hir.Un:
		return exprUsesVar(x.X, name)
	case *hir.Intr:
		for _, a := range x.Args {
			if exprUsesVar(a, name) {
				return true
			}
		}
	case *hir.Elem:
		for _, a := range x.Subs {
			if exprUsesVar(a, name) {
				return true
			}
		}
	}
	return false
}

// nestFootprint estimates the per-node bytes touched by a loop nest: the
// sum of the local shares of every array referenced inside it (whole size
// for replicated arrays and gathered shadows).
func (vm *VM) nestFootprint(loop *hir.Loop) int {
	seen := make(map[string]int)
	var scanExpr func(e hir.Expr)
	scanExpr = func(e hir.Expr) {
		switch x := e.(type) {
		case *hir.Elem:
			b := vm.arrayLocalBytes(x.Array, x.Shadow)
			if b > seen[x.Array] {
				seen[x.Array] = b
			}
			for _, s := range x.Subs {
				scanExpr(s)
			}
		case *hir.Bin:
			scanExpr(x.X)
			scanExpr(x.Y)
		case *hir.Un:
			scanExpr(x.X)
		case *hir.Intr:
			for _, a := range x.Args {
				scanExpr(a)
			}
		}
	}
	var scan func(ss []hir.Stmt)
	scan = func(ss []hir.Stmt) {
		for _, s := range ss {
			switch x := s.(type) {
			case *hir.Assign:
				scanExpr(x.Rhs)
				if lhs, ok := x.Lhs.(*hir.ElemLV); ok {
					b := vm.arrayLocalBytes(lhs.Array, false)
					if b > seen[lhs.Array] {
						seen[lhs.Array] = b
					}
					for _, sub := range lhs.Subs {
						scanExpr(sub)
					}
				}
			case *hir.Loop:
				scan(x.Body)
			case *hir.While:
				scanExpr(x.Cond)
				scan(x.Body)
			case *hir.If:
				scanExpr(x.Cond)
				scan(x.Then)
				scan(x.Else)
			case *hir.FetchElem:
				for _, sub := range x.Subs {
					scanExpr(sub)
				}
			case *hir.Print:
				for _, a := range x.Args {
					scanExpr(a)
				}
			}
		}
	}
	scan(loop.Body)
	total := 0
	for _, b := range seen {
		total += b
	}
	return total
}

// arrayLocalBytes returns the per-node storage of an array: its local
// share when distributed, the full size when replicated or shadowed.
func (vm *VM) arrayLocalBytes(name string, shadow bool) int {
	sym := vm.prog.Info.Sym(name)
	if sym == nil || sym.Kind != sem.SymArray {
		return 0
	}
	m := sym.Map
	if m == nil || m.Replicated || shadow {
		return sym.Elems() * sym.Type.Bytes()
	}
	return m.MaxLocalCount() * sym.Type.Bytes()
}
