package exec

import (
	"strings"

	"hpfperf/internal/ast"
	"hpfperf/internal/dist"
	"hpfperf/internal/hir"
)

// stmtFn executes one lowered statement under partition context pc.
//
// Lowering turns the node program into closures once per timed run:
// scalars resolve to frame slots, arrays to their storage, statement
// costs to constants and subscripts to per-site evaluators. The
// closures replay exactly the machine calls of a direct interpretation
// of the program, in the same order, so results are bit-identical.
type stmtFn func(pc int)

// lowerBlock lowers a statement list.
func (vm *VM) lowerBlock(ss []hir.Stmt) stmtFn {
	fs := make([]stmtFn, len(ss))
	for i, s := range ss {
		fs[i] = vm.lowerStmt(s)
	}
	if len(fs) == 1 {
		return fs[0]
	}
	return func(pc int) {
		for _, f := range fs {
			f(pc)
		}
	}
}

func (vm *VM) lowerStmt(s hir.Stmt) stmtFn {
	line := s.Line()
	switch x := s.(type) {
	case *hir.Assign:
		return vm.lowerAssign(x)
	case *hir.Loop:
		return vm.lowerLoop(x)
	case *hir.While:
		return vm.lowerWhile(x)
	case *hir.If:
		cycles := vm.costs[x].cycles
		cond, then, els := vm.lowerExpr(x.Cond), vm.lowerBlock(x.Then), vm.lowerBlock(x.Else)
		return func(pc int) {
			vm.enter(line)
			vm.charge(pc, cycles)
			if cond().asB() {
				then(pc)
			} else {
				els(pc)
			}
		}
	case *hir.Reduce:
		return vm.lowerReduce(x)
	case *hir.Shift:
		return vm.lowerShift(x)
	case *hir.AllGather:
		return vm.lowerAllGather(x)
	case *hir.CShift:
		return vm.lowerCShift(x, x.Dst, x.Src, x.Dim, x.Shift, nil, true)
	case *hir.EOShift:
		return vm.lowerCShift(x, x.Dst, x.Src, x.Dim, x.Shift, x.Boundary, false)
	case *hir.FetchElem:
		return vm.lowerFetch(x)
	case *hir.Print:
		return vm.lowerPrint(x)
	}
	return func(int) {
		vm.enter(line)
		vm.fail("unsupported statement %T", s)
	}
}

func (vm *VM) lowerAssign(x *hir.Assign) stmtFn {
	line, cost := x.SrcLine, vm.costs[x]
	cycles := cost.cycles
	rhs := vm.lowerExpr(x.Rhs)
	if lhs, ok := x.Lhs.(*hir.ScalarLV); ok {
		s, typ := vm.slot(lhs.Name), lhs.Typ
		return func(pc int) {
			vm.enter(line)
			s.store(convertTo(rhs(), typ))
			vm.charge(pc, cycles)
		}
	}
	lhs := x.Lhs.(*hir.ElemLV)
	a := vm.arrays[lhs.Array]
	if a == nil {
		return func(int) {
			vm.enter(line)
			rhs()
			vm.fail("array %s has no storage", lhs.Array)
		}
	}
	if !x.Guard {
		at := vm.lowerOffset(a, lhs.Subs)
		return func(pc int) {
			vm.enter(line)
			v := rhs()
			a.store(at(), v)
			vm.charge(pc, cycles)
		}
	}
	// Outside partitioned loops only the owners store: every rank
	// reaching the statement pays the ownership test, then the owners
	// pay the store.
	subs, guard := vm.lowerSubs(lhs.Subs), cost.guardCycles
	m := vm.prog.Info.ArrayMap(lhs.Array)
	return func(pc int) {
		vm.enter(line)
		v := rhs()
		idx := subs()
		off, err := a.offset(idx)
		if err != nil {
			vm.fail("%v", err)
		}
		a.store(off, v)
		vm.charge(pc, guard)
		for _, r := range vm.parts.ranksOf(pc) {
			if m.OwnsCoords(vm.parts.coords[r], idx) {
				vm.mach.Compute(r, cycles)
			}
		}
	}
}

func (vm *VM) lowerLoop(x *hir.Loop) stmtFn {
	line, cycles := x.SrcLine, vm.costs[x].cycles
	lo, hi, step := vm.lowerExpr(x.Lo), vm.lowerExpr(x.Hi), vm.lowerExpr(x.Step)
	iv, body := vm.slot(x.Var), vm.lowerBlock(x.Body)
	overhead := vm.mach.Node().P.LoopOverheadCycles
	// bounds starts the loop: it charges the bound evaluation and returns
	// the evaluated lo, hi and step.
	bounds := func(pc int) (int64, int64, int64) {
		vm.enter(line)
		vm.charge(pc, cycles)
		l, h, st := lo().asI(), hi().asI(), step().asI()
		if st == 0 {
			vm.fail("loop %s has zero step", x.Var)
		}
		return l, h, st
	}
	if x.Par == nil {
		return func(pc int) {
			l, h, st := bounds(pc)
			for i := l; (st > 0 && i <= h) || (st < 0 && i >= h); i += st {
				vm.tick()
				iv.store(intV(i))
				vm.charge(pc, overhead)
				body(pc)
			}
		}
	}
	// Owner-computes partitioned loop: iteration i runs on the owners of
	// element i+Offset of the partitioning array's dimension.
	par := *x.Par
	m := vm.prog.Info.ArrayMap(par.Array)
	return func(pc int) {
		l, h, st := bounds(pc)
		if m == nil {
			vm.fail("partitioned loop references unmapped array %s", par.Array)
		}
		dd := m.Dims[par.Dim]
		for i := l; (st > 0 && i <= h) || (st < 0 && i >= h); i += st {
			vm.tick()
			g := int(i) + par.Offset
			if g < dd.Lo || g > dd.Hi {
				vm.fail("partitioned index %d outside dimension [%d,%d] of %s", g, dd.Lo, dd.Hi, par.Array)
			}
			inner := vm.parts.with(pc, dd.ProcDim, dd.Owner(g))
			iv.store(intV(i))
			vm.charge(inner, overhead)
			body(inner)
		}
	}
}

func (vm *VM) lowerWhile(x *hir.While) stmtFn {
	line, cycles := x.SrcLine, vm.costs[x].cycles
	cond, body := vm.lowerExpr(x.Cond), vm.lowerBlock(x.Body)
	return func(pc int) {
		vm.enter(line)
		for iter := 0; ; iter++ {
			if iter > 100_000_000 {
				vm.fail("DO WHILE exceeded 1e8 iterations")
			}
			vm.tick()
			vm.charge(pc, cycles)
			if !cond().asB() {
				return
			}
			body(pc)
		}
	}
}

func (vm *VM) lowerReduce(x *hir.Reduce) stmtFn {
	line, cycles := x.SrcLine, vm.costs[x].cycles
	src, dst, zero := vm.slot(x.Src), vm.slot(x.Dst), convertTo(val{}, x.Typ)
	bytes := 8
	var locSrc, locDst *slot
	if x.LocSrc != "" {
		locSrc, locDst = vm.slot(x.LocSrc), vm.slot(x.LocDst)
		bytes = 16
	}
	return func(int) {
		vm.enter(line)
		dst.store(convertTo(src.read(zero), x.Typ))
		if locSrc != nil {
			locDst.store(convertTo(locSrc.read(val{}), ast.TInteger))
		}
		vm.mach.AllReduce(bytes)
		vm.charge(freePC, cycles)
	}
}

// stripBytes computes the per-rank halo volume of a shift of array m along
// dimension dim by delta: the number of boundary elements exchanged with
// the neighbour, times the local extent of every other dimension.
func stripBytes(m *dist.ArrayMap, elemBytes, dim, delta, rank int) int {
	if delta < 0 {
		delta = -delta
	}
	shape := m.LocalShape(rank)
	dd := m.Dims[dim]
	rows := delta
	switch dd.Kind {
	case dist.Block:
		if rows > dd.BlockSize() {
			rows = dd.BlockSize()
		}
	case dist.Cyclic:
		rows = dist.CyclicShiftRows(shape[dim], dd.BlockSize(), delta)
	}
	vol := rows
	for d, e := range shape {
		if d != dim {
			vol *= e
		}
	}
	return vol * elemBytes
}

// exchange is a shift's per-rank message volume and partner (-1: none),
// fixed by the array mapping, so each run tabulates it once.
type exchange struct {
	bytes, partner []int
}

func (e *exchange) run(vm *VM) {
	vm.mach.ShiftExchange(
		func(rank int) int { return e.bytes[rank] },
		func(rank int) int { return e.partner[rank] },
	)
}

// shiftExchange tabulates the exchange of a shift of array m by delta
// along dimension dim, over grid dimension pd.
func (vm *VM) shiftExchange(m *dist.ArrayMap, elemBytes, dim, delta, pd int, circular bool) *exchange {
	dir := 1
	if delta < 0 {
		dir = -1
	}
	shape := vm.prog.Info.Grid.Shape
	e := &exchange{bytes: make([]int, len(vm.parts.coords)), partner: make([]int, len(vm.parts.coords))}
	c := make([]int, len(shape))
	for rank, coords := range vm.parts.coords {
		e.bytes[rank] = stripBytes(m, elemBytes, dim, delta, rank)
		copy(c, coords)
		c[pd] += dir
		switch {
		case circular:
			c[pd] = ((c[pd] % shape[pd]) + shape[pd]) % shape[pd]
		case c[pd] < 0 || c[pd] >= shape[pd]:
			e.partner[rank] = -1 // boundary: no wraparound for end-off shifts
			continue
		}
		e.partner[rank] = vm.prog.Info.Grid.Rank(c)
		if circular && e.partner[rank] == rank {
			e.partner[rank] = -1
		}
	}
	return e
}

func (vm *VM) lowerShift(x *hir.Shift) stmtFn {
	line := x.SrcLine
	var ex *exchange
	resolved := false
	return func(int) {
		vm.enter(line)
		if !resolved {
			sym := vm.prog.Info.Sym(x.Array)
			m := sym.Map
			dd := m.Dims[x.Dim]
			if pd := dd.ProcDim; pd >= 0 && dd.NProc > 1 {
				ex = vm.shiftExchange(m, sym.Type.Bytes(), x.Dim, x.Offset, pd, false)
			}
			resolved = true
		}
		if ex != nil {
			ex.run(vm)
		}
	}
}

func (vm *VM) lowerAllGather(x *hir.AllGather) stmtFn {
	line := x.SrcLine
	var local []int
	bytes := func(rank int) int {
		if local == nil {
			sym := vm.prog.Info.Sym(x.Array)
			local = make([]int, len(vm.parts.coords))
			for r := range local {
				local[r] = sym.Map.LocalCount(r) * sym.Type.Bytes()
			}
		}
		return local[rank]
	}
	return func(int) {
		vm.enter(line)
		vm.mach.AllGatherV(bytes)
	}
}

// lowerCShift lowers CSHIFT (circular=true) and EOSHIFT/TSHIFT: a
// functional copy plus the exchange and the local copy's cycles.
func (vm *VM) lowerCShift(s hir.Stmt, dstName, srcName string, dim int, shiftE, boundary hir.Expr, circular bool) stmtFn {
	line, cycles := s.Line(), vm.costs[s].cycles
	dst, src := vm.arrays[dstName], vm.arrays[srcName]
	shiftF := vm.lowerExpr(shiftE)
	var boundF exprFn
	if boundary != nil {
		boundF = vm.lowerExpr(boundary)
	}
	exchanges := make(map[int]*exchange) // by shift amount
	var copyCycles []float64
	var idx, srcIdx []int // this site's scratch index vectors
	if src != nil {
		idx, srcIdx = make([]int, len(src.bounds)), make([]int, len(src.bounds))
	}
	return func(int) {
		vm.enter(line)
		if dst == nil {
			vm.fail("array %s has no storage", dstName)
		}
		if src == nil {
			vm.fail("array %s has no storage", srcName)
		}
		shift := int(shiftF().asI())
		bval := 0.0
		if boundF != nil {
			bval = boundF().asF()
		}
		vm.shiftCopy(dst, src, dim, shift, bval, circular, idx, srcIdx)

		// Timing: boundary exchange with the neighbour in the shift
		// direction plus the local data movement.
		sym := vm.prog.Info.Sym(srcName)
		m := sym.Map
		if m != nil && !m.Replicated && dim < len(m.Dims) && m.Dims[dim].ProcDim >= 0 && m.Dims[dim].NProc > 1 {
			ex := exchanges[shift]
			if ex == nil {
				ex = vm.shiftExchange(m, sym.Type.Bytes(), dim, shift, m.Dims[dim].ProcDim, circular)
				exchanges[shift] = ex
			}
			ex.run(vm)
		}
		if copyCycles == nil {
			M := vm.mach.Node().M
			per := M.LoadCycles + M.StoreCycles + 2
			copyCycles = make([]float64, len(vm.parts.coords))
			for r := range copyCycles {
				local := src.elems()
				if m != nil && !m.Replicated {
					local = m.LocalCount(r)
				}
				copyCycles[r] = float64(local) * per
			}
		}
		for r, c := range copyCycles {
			vm.mach.Compute(r, c)
		}
		vm.charge(freePC, cycles)
	}
}

// shiftCopy sets dst(..., i, ...) = src(..., i+shift, ...) along dim,
// with circular wraparound or boundary fill; idx and srcIdx are scratch
// vectors of src's rank.
func (vm *VM) shiftCopy(dst, src *array, dim, shift int, bval float64, circular bool, idx, srcIdx []int) {
	b := src.bounds[dim]
	n := b[1] - b[0] + 1
	for d := range idx {
		idx[d] = src.bounds[d][0]
	}
	total := src.elems()
	for k := 0; k < total; k++ {
		copy(srcIdx, idx)
		j := idx[dim] - b[0] + shift
		inRange := true
		if circular {
			j = ((j % n) + n) % n
		} else if j < 0 || j >= n {
			inRange = false
		}
		var v float64
		if inRange {
			srcIdx[dim] = b[0] + j
			off, err := src.offset(srcIdx)
			if err != nil {
				vm.fail("%v", err)
			}
			v = src.data[off]
		} else {
			v = bval
		}
		off, err := dst.offset(idx)
		if err != nil {
			vm.fail("%v", err)
		}
		dst.data[off] = v
		// Advance the index vector (column-major order).
		for d := 0; d < len(idx); d++ {
			idx[d]++
			if idx[d] <= src.bounds[d][1] {
				break
			}
			idx[d] = src.bounds[d][0]
		}
	}
}

func (vm *VM) lowerFetch(x *hir.FetchElem) stmtFn {
	line, cycles := x.SrcLine, vm.costs[x].cycles
	a := vm.arrays[x.Array]
	subs, dst := vm.lowerSubs(x.Subs), vm.slot(x.Dst)
	m := vm.prog.Info.ArrayMap(x.Array)
	bytes := x.Typ.Bytes()
	return func(pc int) {
		vm.enter(line)
		if a == nil {
			vm.fail("array %s has no storage", x.Array)
		}
		idx := subs()
		off, err := a.offset(idx)
		if err != nil {
			vm.fail("%v", err)
		}
		dst.store(convertTo(a.load(off), x.Typ))
		owner := 0
		if m != nil {
			owner = m.PrimaryOwner(idx)
		}
		vm.mach.FetchBroadcast(owner, bytes)
		vm.charge(pc, cycles)
	}
}

func (vm *VM) lowerPrint(x *hir.Print) stmtFn {
	line, cycles := x.SrcLine, vm.costs[x].cycles
	var fs []exprFn
	for _, a := range x.Args {
		if c, ok := a.(*hir.Const); ok && c.Val.Type == ast.TCharacter {
			continue
		}
		fs = append(fs, vm.lowerExpr(a))
	}
	io := 16 * len(x.Args)
	return func(pc int) {
		vm.enter(line)
		var parts []string
		for _, f := range fs {
			parts = append(parts, f().String())
		}
		vm.printed = append(vm.printed, strings.Join(parts, " "))
		vm.charge(pc, cycles)
		vm.mach.HostIO(io)
	}
}
