package compiler

import (
	"hpfperf/internal/ast"
	"hpfperf/internal/dist"
	"hpfperf/internal/hir"
	"hpfperf/internal/sem"
	"hpfperf/internal/token"
)

// descKind classifies one subscript of an array reference within a
// parallel nest.
type descKind int

const (
	descIdx   descKind = iota // scale*idx + off, affine in one nest index
	descConst                 // nest-index-free scalar expression
	descOther                 // anything else (non-affine in a nest index)
)

// accessDesc is the classification of one subscript.
type accessDesc struct {
	kind   descKind
	idx    string // nest index name (descIdx)
	off    int    // additive constant (descIdx)
	scale  int    // multiplicative constant (descIdx; 1 in named mode)
	src    ast.Expr
	cval   int  // constant value (descConst, when evaluable)
	cvalOK bool // cval is valid
}

// readRec records an array read for overlap analysis.
type readRec struct {
	array  string
	descs  []accessDesc
	shadow bool
}

type shiftKey struct {
	array      string
	dim, delta int
}

// nestCtx is the lowering context of one parallel loop nest (a forall, a
// normalized array assignment, a WHERE branch, or a reduction).
type nestCtx struct {
	lw   *lowerer
	env  *idxEnv // enclosing sequential loop indices
	line int

	idxNames []string
	idxSet   map[string]bool

	// LHS binding: which array dimension (and offset) each nest index
	// partitions. For reductions the binding is adopted from the first
	// cleanly accessed distributed array (the "driver").
	lhsArray   string
	dimOf      map[string]int
	offOf      map[string]int
	pickDriver bool

	shifts  map[shiftKey]bool
	gathers map[string]bool
	comms   []hir.Stmt // ordered Shift/AllGather statements
	pre     []hir.Stmt // hoisted scalar statements (fetches, reductions)
	reads   []readRec

	// noBuffer suppresses the evaluate-then-assign double buffer: set when
	// a proven INDEPENDENT annotation guarantees no iteration reads an
	// element another iteration writes.
	noBuffer bool
	// skippedCopy records that noBuffer dropped a copy the assignment's
	// reads would otherwise have forced.
	skippedCopy bool
}

func newNestCtx(lw *lowerer, env *idxEnv, line int) *nestCtx {
	return &nestCtx{
		lw: lw, env: env, line: line,
		idxSet:  make(map[string]bool),
		dimOf:   make(map[string]int),
		offOf:   make(map[string]int),
		shifts:  make(map[shiftKey]bool),
		gathers: make(map[string]bool),
	}
}

func (c *nestCtx) addIndex(name string) {
	c.idxNames = append(c.idxNames, name)
	c.idxSet[name] = true
}

func (c *nestCtx) bind(idx string, dim, off int) {
	c.dimOf[idx] = dim
	c.offOf[idx] = off
}

// containsNestIdx reports whether e references any nest index.
func (c *nestCtx) containsNestIdx(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.idxSet[id.Name] {
			found = true
		}
		return !found
	})
	return found
}

// classifySub classifies a named-mode subscript expression.
func (c *nestCtx) classifySub(e ast.Expr) accessDesc {
	if !c.containsNestIdx(e) {
		d := accessDesc{kind: descConst, src: e}
		if v, err := sem.EvalConstInt(e, c.lw.info.Consts); err == nil {
			d.cval, d.cvalOK = v, true
		}
		return d
	}
	switch x := e.(type) {
	case *ast.Ident:
		if c.idxSet[x.Name] {
			return accessDesc{kind: descIdx, idx: x.Name, off: 0, scale: 1, src: e}
		}
	case *ast.BinaryExpr:
		if id, ok := x.X.(*ast.Ident); ok && c.idxSet[id.Name] && !c.containsNestIdx(x.Y) {
			if v, err := sem.EvalConstInt(x.Y, c.lw.info.Consts); err == nil {
				switch x.Op {
				case token.PLUS:
					return accessDesc{kind: descIdx, idx: id.Name, off: v, scale: 1, src: e}
				case token.MINUS:
					return accessDesc{kind: descIdx, idx: id.Name, off: -v, scale: 1, src: e}
				}
			}
		}
		if id, ok := x.Y.(*ast.Ident); ok && c.idxSet[id.Name] && !c.containsNestIdx(x.X) && x.Op == token.PLUS {
			if v, err := sem.EvalConstInt(x.X, c.lw.info.Consts); err == nil {
				return accessDesc{kind: descIdx, idx: id.Name, off: v, scale: 1, src: e}
			}
		}
	}
	return accessDesc{kind: descOther, src: e}
}

// idxRef builds the HIR reference of a nest index.
func idxRef(name string) hir.Expr {
	return &hir.Ref{Name: name, Kind: hir.Private, Typ: ast.TInteger}
}

// descExpr builds the HIR subscript expression of a descriptor.
func (c *nestCtx) descExpr(d accessDesc) (hir.Expr, error) {
	switch d.kind {
	case descIdx:
		var e hir.Expr = idxRef(d.idx)
		if d.scale != 1 {
			e = mkBin(hir.OpMul, &hir.Const{Val: sem.IntVal(int64(d.scale))}, e)
		}
		if d.off != 0 {
			e = mkBin(hir.OpAdd, e, &hir.Const{Val: sem.IntVal(int64(d.off))})
		}
		return e, nil
	default:
		return c.elementize(d.src)
	}
}

// ---------------------------------------------------------------------------
// Elementization

// elementize lowers an expression inside the nest body, substituting nest
// indices, inserting communication for distributed reads, and delegating
// nest-invariant subtrees to the replicated scalar lowering.
func (c *nestCtx) elementize(e ast.Expr) (hir.Expr, error) {
	lw := c.lw
	switch x := e.(type) {
	case *ast.IntLit, *ast.RealLit, *ast.LogicalLit:
		return lw.scalarExpr(e, c.env, &c.pre)
	case *ast.Ident:
		if c.idxSet[x.Name] {
			return idxRef(x.Name), nil
		}
		sym := lw.info.Sym(x.Name)
		if sym != nil && sym.Kind == sem.SymArray {
			// Whole-array reference in positional mode: implicit full
			// sections over every dimension.
			return c.arrayRead(x.Name, nil, x.Pos())
		}
		return lw.scalarExpr(e, c.env, &c.pre)
	case *ast.UnaryExpr:
		in, err := c.elementize(x.X)
		if err != nil {
			return nil, err
		}
		op := hir.OpNeg
		if x.Op == token.NOT {
			op = hir.OpNot
		}
		return &hir.Un{Op: op, X: in, Typ: in.Type()}, nil
	case *ast.BinaryExpr:
		a, err := c.elementize(x.X)
		if err != nil {
			return nil, err
		}
		b, err := c.elementize(x.Y)
		if err != nil {
			return nil, err
		}
		return mkBin(mapOp(x.Op), a, b), nil
	case *ast.CallOrIndex:
		if x.Resolved == ast.RefArray {
			return c.arrayRead(x.Name, x.Args, x.Pos())
		}
		info, ok := sem.Intrinsics[x.Name]
		if !ok {
			return nil, lw.errf(x.Pos(), "unknown function %s", x.Name)
		}
		switch info.Class {
		case sem.Reduction, sem.Location, sem.Transformational:
			if c.containsNestIdx(x) {
				return nil, lw.errf(x.Pos(), "%s nested inside a parallel construct is not supported", x.Name)
			}
			// Nest-invariant reduction: hoist before the nest.
			return lw.scalarExpr(e, c.env, &c.pre)
		case sem.Shift:
			return nil, lw.errf(x.Pos(), "%s must appear as a top-level operand of an array assignment", x.Name)
		case sem.Inquiry:
			return lw.lowerInquiry(x)
		}
		// Elemental intrinsic: elementwise over the arguments.
		args := make([]hir.Expr, len(x.Args))
		t := ast.TReal
		for i, a := range x.Args {
			ea, err := c.elementize(a)
			if err != nil {
				return nil, err
			}
			args[i] = ea
			if i == 0 {
				t = ea.Type()
			} else {
				t = promoteHIR(t, ea.Type())
			}
		}
		if info.ReturnsInt {
			t = ast.TInteger
		}
		if x.Name == "REAL" || x.Name == "FLOAT" {
			t = ast.TReal
		}
		return &hir.Intr{Name: x.Name, Args: args, Typ: t}, nil
	case *ast.Section:
		return nil, lw.errf(x.Pos(), "unexpected bare array section")
	}
	return nil, lw.errf(e.Pos(), "unsupported expression %T in parallel construct", e)
}

// refDescs builds per-dimension access descriptors for an array reference.
// args == nil denotes a whole-array reference (positional full sections).
func (c *nestCtx) refDescs(sym *sem.Symbol, args []ast.Expr, pos token.Pos) ([]accessDesc, error) {
	descs := make([]accessDesc, 0, sym.Rank())
	if args == nil {
		// Whole array: one positional index per dimension, in order.
		if len(c.idxNames) < sym.Rank() {
			return nil, c.lw.errf(pos, "whole array %s (rank %d) in a rank-%d context", sym.Name, sym.Rank(), len(c.idxNames))
		}
		for d := 0; d < sym.Rank(); d++ {
			descs = append(descs, accessDesc{
				kind: descIdx, idx: c.idxNames[d], off: sym.Bounds[d][0] - 1, scale: 1,
			})
		}
		return descs, nil
	}
	posN := 0
	for d, a := range args {
		if sec, ok := a.(*ast.Section); ok {
			if posN >= len(c.idxNames) {
				return nil, c.lw.errf(pos, "section rank of %s exceeds nest rank", sym.Name)
			}
			idx := c.idxNames[posN]
			posN++
			lo := sym.Bounds[d][0]
			loConst := true
			if sec.Lo != nil {
				if v, err := sem.EvalConstInt(sec.Lo, c.lw.info.Consts); err == nil {
					lo = v
				} else {
					loConst = false
				}
			}
			stride := 1
			if sec.Stride != nil {
				v, err := sem.EvalConstInt(sec.Stride, c.lw.info.Consts)
				if err != nil {
					return nil, c.lw.errf(pos, "section stride of %s must be constant", sym.Name)
				}
				stride = v
			}
			if !loConst {
				// Non-constant section origin: the global index is
				// lo + stride*idx - stride. Mark non-affine so the
				// communication analysis falls back conservatively.
				src := &ast.BinaryExpr{
					Op:    token.MINUS,
					X:     &ast.BinaryExpr{Op: token.PLUS, X: sec.Lo, Y: mulAST(stride, idx, pos), OpPos: pos},
					Y:     &ast.IntLit{Value: int64(stride), ValuePos: pos},
					OpPos: pos,
				}
				descs = append(descs, accessDesc{kind: descOther, src: src})
				continue
			}
			descs = append(descs, accessDesc{kind: descIdx, idx: idx, off: lo - stride, scale: stride})
			continue
		}
		// Scalar subscript.
		descs = append(descs, c.classifySub(a))
	}
	return descs, nil
}

// mulAST builds stride*idx as an AST expression (used for non-constant
// section origins).
func mulAST(stride int, idx string, pos token.Pos) ast.Expr {
	id := &ast.Ident{Name: idx, NamePos: pos}
	if stride == 1 {
		return id
	}
	return &ast.BinaryExpr{Op: token.STAR, X: &ast.IntLit{Value: int64(stride), ValuePos: pos}, Y: id, OpPos: pos}
}

// arrayRead lowers a (possibly sectioned) array read inside the nest,
// inserting the communication it requires.
func (c *nestCtx) arrayRead(name string, args []ast.Expr, pos token.Pos) (hir.Expr, error) {
	lw := c.lw
	sym := lw.info.Sym(name)
	if sym == nil || sym.Kind != sem.SymArray {
		return nil, lw.errf(pos, "%s is not an array", name)
	}
	descs, err := c.refDescs(sym, args, pos)
	if err != nil {
		return nil, err
	}
	mode, shifts, err := c.commForRead(sym, descs, pos)
	if err != nil {
		return nil, err
	}
	switch mode {
	case readFetch:
		subs, err := c.descExprs(descs)
		if err != nil {
			return nil, err
		}
		dst := lw.newRepl("F", sym.Type)
		var cost hir.OpCount
		for _, s := range subs {
			cost.Add(hir.CountExpr(s), 1)
		}
		c.pre = append(c.pre, &hir.FetchElem{Array: name, Subs: subs, Dst: dst, Typ: sym.Type, SrcLine: c.line, Cost: cost})
		return &hir.Ref{Name: dst, Kind: hir.Replicated, Typ: sym.Type}, nil
	case readShadow:
		if !c.gathers[name] {
			c.gathers[name] = true
			c.comms = append(c.comms, &hir.AllGather{Array: name, SrcLine: c.line})
		}
		subs, err := c.descExprs(descs)
		if err != nil {
			return nil, err
		}
		c.reads = append(c.reads, readRec{array: name, descs: descs, shadow: true})
		return &hir.Elem{Array: name, Subs: subs, Shadow: true, Typ: sym.Type}, nil
	default: // readLocal, possibly with halo shifts
		for _, sk := range shifts {
			if !c.shifts[sk] {
				c.shifts[sk] = true
				c.comms = append(c.comms, &hir.Shift{Array: sk.array, Dim: sk.dim, Offset: sk.delta, SrcLine: c.line})
			}
		}
		subs, err := c.descExprs(descs)
		if err != nil {
			return nil, err
		}
		c.reads = append(c.reads, readRec{array: name, descs: descs})
		return &hir.Elem{Array: name, Subs: subs, Typ: sym.Type}, nil
	}
}

func (c *nestCtx) descExprs(descs []accessDesc) ([]hir.Expr, error) {
	subs := make([]hir.Expr, len(descs))
	for i, d := range descs {
		e, err := c.descExpr(d)
		if err != nil {
			return nil, err
		}
		subs[i] = e
	}
	return subs, nil
}

type readMode int

const (
	readLocal readMode = iota
	readShadow
	readFetch
)

// commForRead decides the communication needed for a read of sym with the
// given descriptors, relative to the nest's LHS binding (§4.1 step 4:
// communication detection).
func (c *nestCtx) commForRead(sym *sem.Symbol, descs []accessDesc, pos token.Pos) (readMode, []shiftKey, error) {
	m := sym.Map
	if m == nil || m.Replicated {
		return readLocal, nil, nil
	}
	var shifts []shiftKey
	nConst, nAffine, nBad := 0, 0, 0
	lhsMap := c.lhsMap()
	for d, dd := range m.Dims {
		if dd.Kind == dist.Collapsed {
			continue
		}
		desc := descs[d]
		switch desc.kind {
		case descConst:
			nConst++
		case descOther:
			nBad++
		case descIdx:
			if desc.scale != 1 {
				nBad++
				continue
			}
			dL, bound := c.dimOf[desc.idx]
			if !bound {
				if c.pickDriver && c.lhsArray == "" {
					// Adopt this array as the reduction driver lazily; the
					// full adoption happens below once all dims check out.
					nAffine++
					continue
				}
				nBad++
				continue
			}
			if lhsMap == nil {
				nBad++
				continue
			}
			ld := lhsMap.Dims[dL]
			if ld.Kind != dd.Kind || ld.ProcDim != dd.ProcDim || ld.NProc != dd.NProc {
				nBad++
				continue
			}
			switch dd.Kind {
			case dist.Block:
				if ld.BlockSize() != dd.BlockSize() {
					nBad++
					continue
				}
				delta := (desc.off - dd.Lo) - (c.offOf[desc.idx] - ld.Lo)
				if delta != 0 {
					shifts = append(shifts, shiftKey{array: sym.Name, dim: d, delta: delta})
				}
				nAffine++
			case dist.Cyclic:
				if ld.BlockSize() != dd.BlockSize() {
					nBad++
					continue
				}
				delta := (desc.off - dd.Lo) - (c.offOf[desc.idx] - ld.Lo)
				// A CYCLIC(k) offset is alignment-preserving only when it
				// spans whole rounds of k*NProc elements (k=1 reduces to
				// the element-cyclic mod-NProc test).
				if mod(delta, dd.NProc*dd.BlockSize()) != 0 {
					shifts = append(shifts, shiftKey{array: sym.Name, dim: d, delta: delta})
				}
				nAffine++
			}
		}
	}
	// Reduction driver adoption: all distributed dims are clean affine and
	// no binding exists yet.
	if c.pickDriver && c.lhsArray == "" && nBad == 0 && nConst == 0 {
		ok := true
		for d, dd := range m.Dims {
			if dd.Kind == dist.Collapsed {
				continue
			}
			desc := descs[d]
			if desc.kind != descIdx || desc.scale != 1 {
				ok = false
				break
			}
			if _, taken := c.dimOf[desc.idx]; taken {
				ok = false
				break
			}
		}
		if ok {
			c.lhsArray = sym.Name
			for d, dd := range m.Dims {
				if dd.Kind == dist.Collapsed {
					continue
				}
				c.bind(descs[d].idx, d, descs[d].off)
			}
			return readLocal, nil, nil
		}
	}
	switch {
	case nBad > 0:
		return readShadow, nil, nil
	case nConst > 0 && nAffine > 0:
		return readShadow, nil, nil
	case nConst > 0:
		// Every distributed dimension has a nest-invariant subscript:
		// fetch the single element per nest instance.
		return readFetch, nil, nil
	default:
		return readLocal, shifts, nil
	}
}

// lhsMap returns the ArrayMap of the binding array (nil when unbound).
func (c *nestCtx) lhsMap() *dist.ArrayMap {
	if c.lhsArray == "" {
		return nil
	}
	return c.lw.info.ArrayMap(c.lhsArray)
}

func mod(a, n int) int {
	r := a % n
	if r < 0 {
		r += n
	}
	return r
}

// permuteForLocality reorders the nest indices (and their bounds) so that
// the index bound to the lowest LHS array dimension runs innermost: Fortran
// arrays are column-major, so this is the cache-friendly sequentialization
// order a Fortran compiler produces. Unbound indices stay outermost.
// The permutation is applied in place to c.idxNames and bounds.
func (c *nestCtx) permuteForLocality(bounds [][3]hir.Expr) {
	if c.lw.opts.NoLoopReorder {
		return
	}
	type slot struct {
		name  string
		bound [3]hir.Expr
		key   int
	}
	slots := make([]slot, len(c.idxNames))
	for i, name := range c.idxNames {
		key := 1 << 20 // unbound: outermost
		if d, ok := c.dimOf[name]; ok {
			key = d
		}
		slots[i] = slot{name: name, bound: bounds[i], key: key}
	}
	// Stable sort by descending key: higher dimensions outer, dim 0 inner.
	for i := 1; i < len(slots); i++ {
		for j := i; j > 0 && slots[j-1].key < slots[j].key; j-- {
			slots[j-1], slots[j] = slots[j], slots[j-1]
		}
	}
	for i, s := range slots {
		c.idxNames[i] = s.name
		bounds[i] = s.bound
	}
}

// buildLoops wraps body into the nest's loop statements, innermost index
// last in c.idxNames. extents[i] are the loop bound expressions (lo, hi,
// step). par[i] is the ParSpec of loop i (nil = sequential).
func (c *nestCtx) buildLoops(body []hir.Stmt, bounds [][3]hir.Expr, par []*hir.ParSpec, label string) []hir.Stmt {
	out := body
	for i := len(c.idxNames) - 1; i >= 0; i-- {
		var bc hir.OpCount
		bc.Add(hir.CountExpr(bounds[i][0]), 1)
		bc.Add(hir.CountExpr(bounds[i][1]), 1)
		bc.Add(hir.CountExpr(bounds[i][2]), 1)
		out = []hir.Stmt{&hir.Loop{
			Var: c.idxNames[i], Lo: bounds[i][0], Hi: bounds[i][1], Step: bounds[i][2],
			Body: out, Par: par[i], SrcLine: c.line, BoundCost: bc, Label: label,
		}}
	}
	return out
}

// nestStmts assembles the final statement sequence: hoisted scalar pre
// statements, communication phase, then the loops.
func (c *nestCtx) nestStmts(loops []hir.Stmt) []hir.Stmt {
	out := make([]hir.Stmt, 0, len(c.pre)+len(c.comms)+len(loops))
	out = append(out, c.pre...)
	out = append(out, c.comms...)
	out = append(out, loops...)
	return out
}
