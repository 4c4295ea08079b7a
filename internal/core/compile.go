// Closure-compiled prediction core (ROADMAP: "lower the AAG to a
// compact prediction IR"). The tree-walking interpreter re-dispatches on
// hir.Stmt types at every AAU for every sweep point; this file compiles
// the SAAG once per (program, machine, static options) into a tree of
// cost thunks ("cnodes") whose statically determinable inputs — op
// costs, loop triplets without scalar references, communication volumes,
// partition maps, kill sets — are resolved at compile time. A sweep then
// evaluates pre-compiled closures against a tiny per-point state instead
// of re-walking HIR.
//
// Evaluation is bit-identical to the tree walker by construction: every
// floating-point accumulation the walker performs (per-AAU add order,
// clock advance, by-line accumulation) is performed in exactly the same
// sequence, and the differential suite in equiv_test.go enforces it.
//
// This is the engine that serves every prediction, traced or not. When
// the evaluation context carries an obs span, each AAU's evaluation is
// wrapped in an interp.<kind> child span; the span is read per
// evaluation, never at compile time, because compiled forms are cached
// and shared between requests.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"hpfperf/internal/analysis"
	"hpfperf/internal/dist"
	"hpfperf/internal/faults"
	"hpfperf/internal/hir"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/obs"
	"hpfperf/internal/sem"
	"hpfperf/internal/sysmodel"
)

// traceCap bounds the memoized definition-tracing runs kept per compiled
// program.
const traceCap = 64

// Compiled is the closure-compiled form of one (program, machine, static
// options) triple. It is immutable after compilation apart from its
// internal tracing memo and safe for concurrent Evaluate/EvaluateWith.
// Evaluations with no pinned values read the definition trace of the
// analysis unit the form was compiled from, so the program's unpinned
// trace is computed once, by whoever built the unit; the memo holds the
// traces of pinned value sets (and the unpinned trace of a form built
// without a unit).
type Compiled struct {
	prog  *hir.Program
	unit  *analysis.Unit // unpinned analysis; nil for Interpreter.Interpret
	mach  *sysmodel.Machine
	lib   *ipsc.CommLibrary
	opts  Options // Values/TripCounts act as Evaluate defaults
	costs map[hir.Stmt]costParts

	tmpl  *SAAG // metric-free template, cloned per evaluation
	maxID int
	tops  []cnode

	mu     sync.Mutex
	traces map[string]*analysis.Trace
}

// cnode is one compiled AAU: a cost thunk plus the identifiers needed to
// attribute its results.
type cnode struct {
	id   int
	line int
	span string // interp.<kind>, the AAU's span name when traced
	fn   func(st *evalState, mult float64) (Metrics, error)
}

// evalState is the per-evaluation mutable state — the compiled
// counterpart of the Interpreter's byLine/warnings/clock/env fields.
type evalState struct {
	ctx    context.Context
	span   *obs.Span // current parent span; nil when untraced
	env    absEnv
	pinned map[string]bool
	trips  map[int]int
	trace  *analysis.Trace

	byID     []*AAU
	recs     []*CommRec
	byLine   map[int]*Metrics
	warnings []string
	clock    float64
	stride   int
}

// ---------------------------------------------------------------------------
// Public API

// CompilePrediction builds the closure-compiled prediction form of the
// unit's program for mach under opts. The returned Compiled can be
// evaluated repeatedly (and concurrently) with varying critical-variable
// values and trip counts; static options (memory model, load model, mask
// density, branch probability, comm model, machine) are bound at compile
// time. Evaluations with no pinned values use u.Trace, which must be the
// program's unpinned definition trace (analysis.NewUnit); the unit is
// shared, never modified.
func CompilePrediction(ctx context.Context, u *analysis.Unit, mach *sysmodel.Machine, opts Options) (*Compiled, error) {
	it, err := NewContext(ctx, u.Prog, mach, opts)
	if err != nil {
		return nil, err
	}
	return compile(it, u), nil
}

// Evaluate runs the compiled prediction under the Values/TripCounts
// bound at compile time.
func (c *Compiled) Evaluate(ctx context.Context) (*Report, error) {
	return c.evaluate(ctx, c.opts.Values, c.opts.TripCounts)
}

// EvaluateWith evaluates the prediction under the given critical-variable
// values and trip counts instead of the ones bound at compile time, so
// one compiled form serves every point of a parameter sweep. Each call
// runs every cost thunk. With no values it reads the unit's unpinned
// trace; a pinned value set is traced once and memoized per set.
func (c *Compiled) EvaluateWith(ctx context.Context, values map[string]sem.Value, trips map[int]int) (*Report, error) {
	return c.evaluate(ctx, values, trips)
}

// Procs returns the processor-grid size the program was compiled for.
func (c *Compiled) Procs() int { return c.prog.Info.Grid.Size() }

// Program returns the compiled program's name.
func (c *Compiled) Program() string { return c.prog.Name }

// ---------------------------------------------------------------------------
// Compilation

// compile lowers the interpreter's SAAG. u is the program's unpinned
// analysis unit, or nil to trace on first use.
func compile(it *Interpreter, u *analysis.Unit) *Compiled {
	it.costs = make(map[hir.Stmt]costParts)
	it.prepass(it.prog.Body, 0)
	c := &Compiled{
		prog:   it.prog,
		unit:   u,
		mach:   it.mach,
		lib:    it.lib,
		opts:   it.opts,
		costs:  it.costs,
		tmpl:   BuildSAAG(it.prog),
		traces: make(map[string]*analysis.Trace),
	}
	c.tmpl.Walk(func(a *AAU) {
		if a.ID > c.maxID {
			c.maxID = a.ID
		}
	})
	c.tops = c.compileAAUs(c.tmpl.Root.Children)
	return c
}

func (c *Compiled) compileAAUs(aaus []*AAU) []cnode {
	out := make([]cnode, len(aaus))
	for i, a := range aaus {
		out[i] = c.compileAAU(a)
	}
	return out
}

func (c *Compiled) compileAAU(a *AAU) cnode {
	var n cnode
	switch a.Kind {
	case Seq:
		n = c.compileSeq(a)
	case Iter, IterD:
		if _, ok := a.Stmt.(*hir.While); ok {
			n = c.compileWhile(a)
		} else {
			n = c.compileLoop(a)
		}
	case Condt, CondtD:
		n = c.compileCondt(a)
	case Comm:
		n = c.compileComm(a)
	case IO:
		n = c.compileIO(a)
	default:
		err := fmt.Errorf("core: cannot interpret AAU kind %s", a.Kind)
		n = cnode{id: a.ID, line: a.Line, fn: func(*evalState, float64) (Metrics, error) {
			return Metrics{}, err
		}}
	}
	n.span = "interp." + a.Kind.String()
	return n
}

func (c *Compiled) compileSeq(a *AAU) cnode {
	x := a.Stmt.(*hir.Assign)
	parts := c.costs[a.Stmt]
	P := c.mach.Node.P
	base := Metrics{CompUS: parts.compUS, OvhdUS: parts.ovhdUS, Execs: 1}
	if x.Guard {
		base.OvhdUS += P.CyclesToUS(P.GuardCycles)
	}
	var lhs string
	if lv, ok := x.Lhs.(*hir.ScalarLV); ok {
		lhs = lv.Name
	}
	rhs := x.Rhs
	// A right-hand side without scalar references evaluates identically
	// in every environment; resolve it once.
	var staticVal sem.Value
	staticKnown := false
	static := lhs != "" && len(hir.ScalarRefs(rhs)) == 0
	if static {
		staticVal, staticKnown = evalScalar(rhs, nil)
	}
	id, line := a.ID, a.Line
	return cnode{id: id, line: line, fn: func(st *evalState, mult float64) (Metrics, error) {
		if lhs != "" && !st.pinned[lhs] {
			if static {
				if staticKnown {
					st.env[lhs] = staticVal
				} else {
					delete(st.env, lhs)
				}
			} else if v, ok := evalScalar(rhs, st.env); ok {
				st.env[lhs] = v
			} else {
				delete(st.env, lhs)
			}
		}
		return st.add(id, line, mult, base), nil
	}}
}

func (c *Compiled) compileWhile(a *AAU) cnode {
	w := a.Stmt.(*hir.While)
	condParts := c.costs[a.Stmt]
	children := c.compileAAUs(a.Children)
	kills := killSet(w.Body)
	id, line := a.ID, a.Line
	return cnode{id: id, line: line, fn: func(st *evalState, mult float64) (Metrics, error) {
		trips, ok := st.trips[line]
		if !ok {
			if wt := st.trace.Whiles[w]; wt != nil && wt.CondResolved && !wt.CondValue {
				trips = 0
			} else {
				return Metrics{}, fmt.Errorf("core: line %d: DO WHILE trip count is a critical value; supply Options.TripCounts[%d]", line, line)
			}
		}
		m := Metrics{CompUS: condParts.compUS * float64(trips+1), OvhdUS: condParts.ovhdUS * float64(trips+1), Execs: 1}
		self := st.add(id, line, mult, m)
		body, err := st.run(children, mult*float64(trips))
		if err != nil {
			return Metrics{}, err
		}
		st.kill(kills)
		self.Accumulate(body)
		return self, nil
	}}
}

func (c *Compiled) compileLoop(a *AAU) cnode {
	x := a.Stmt.(*hir.Loop)
	bound := c.costs[a.Stmt]
	children := c.compileAAUs(a.Children)
	kills := killSet(x.Body)
	P := c.mach.Node.P
	loopOvhdUS := P.CyclesToUS(P.LoopOverheadCycles)
	load := c.opts.LoadModel
	var parMap *dist.ArrayMap
	if x.Par != nil {
		parMap = c.prog.Info.ArrayMap(x.Par.Array)
	}
	// Triplets without scalar references resolve identically in every
	// environment; bind them at compile time.
	static := len(hir.ScalarRefs(x.Lo))+len(hir.ScalarRefs(x.Hi))+len(hir.ScalarRefs(x.Step)) == 0
	var sLo, sHi, sStep int
	var sResolved bool
	if static {
		sLo, sHi, sStep, sResolved = resolveTriplet(x, nil)
	}
	id, line := a.ID, a.Line
	return cnode{id: id, line: line, fn: func(st *evalState, mult float64) (Metrics, error) {
		var lo, hi, step int
		var resolved bool
		if static {
			lo, hi, step, resolved = sLo, sHi, sStep, sResolved
		} else {
			lo, hi, step, resolved = resolveTriplet(x, st.env)
		}
		if !resolved {
			if lt := st.trace.Loops[x]; lt != nil && lt.Resolved {
				lo, hi, step, resolved = lt.Lo, lt.Hi, lt.Step, true
			}
		}
		var localTrips float64
		if !resolved {
			if t, ok := st.trips[line]; ok {
				localTrips = float64(t)
				if x.Par != nil {
					localTrips = partitionTrips(parMap, x.Par, load, 1, t, 1)
				}
			} else {
				return Metrics{}, loopBoundsErr(st.trace, line, x, st.env)
			}
		} else {
			localTrips = float64(countTrips(lo, hi, step))
			if x.Par != nil {
				localTrips = partitionTrips(parMap, x.Par, load, lo, hi, step)
			}
		}
		m := Metrics{CompUS: bound.compUS, OvhdUS: bound.ovhdUS + localTrips*loopOvhdUS, Execs: 1}
		self := st.add(id, line, mult, m)
		if resolved {
			st.env[x.Var] = sem.IntVal(int64((lo + hi) / 2))
		} else {
			delete(st.env, x.Var)
		}
		body, err := st.run(children, mult*localTrips)
		if err != nil {
			return Metrics{}, err
		}
		st.kill(kills)
		delete(st.env, x.Var)
		self.Accumulate(body)
		return self, nil
	}}
}

func (c *Compiled) compileCondt(a *AAU) cnode {
	x := a.Stmt.(*hir.If)
	parts := c.costs[a.Stmt]
	P := c.mach.Node.P
	base := Metrics{CompUS: parts.compUS, OvhdUS: parts.ovhdUS + P.CyclesToUS(P.BranchCycles), Execs: 1}
	then := c.compileAAUs(a.Children[:a.ElseStart])
	els := c.compileAAUs(a.Children[a.ElseStart:])
	killsThen := killSet(x.Then)
	killsElse := killSet(x.Else)
	isD := a.Kind == CondtD
	d := c.opts.MaskDensity
	bp := c.opts.BranchProb
	cond := x.Cond
	static := len(hir.ScalarRefs(cond)) == 0
	var sVal sem.Value
	sKnown := false
	if static {
		sVal, sKnown = evalScalar(cond, nil)
	}
	warn := fmt.Sprintf("line %d: IF condition depends on run-time data; weighting branches %.2f/%.2f", a.Line, bp, 1-bp)
	id, line := a.ID, a.Line
	return cnode{id: id, line: line, fn: func(st *evalState, mult float64) (Metrics, error) {
		self := st.add(id, line, mult, base)
		if isD {
			tm, err := st.run(then, mult*d)
			if err != nil {
				return Metrics{}, err
			}
			em, err := st.run(els, mult*(1-d))
			if err != nil {
				return Metrics{}, err
			}
			st.kill(killsThen)
			st.kill(killsElse)
			self.Accumulate(tm)
			self.Accumulate(em)
			return self, nil
		}
		v, ok := sVal, sKnown
		if !static {
			v, ok = evalScalar(cond, st.env)
		}
		if ok {
			branch := then
			if !v.B {
				branch = els
			}
			bm, err := st.run(branch, mult)
			if err != nil {
				return Metrics{}, err
			}
			self.Accumulate(bm)
			return self, nil
		}
		st.warnf(warn)
		tm, err := st.run(then, mult*bp)
		if err != nil {
			return Metrics{}, err
		}
		em, err := st.run(els, mult*(1-bp))
		if err != nil {
			return Metrics{}, err
		}
		st.kill(killsThen)
		st.kill(killsElse)
		self.Accumulate(tm)
		self.Accumulate(em)
		return self, nil
	}}
}

func (c *Compiled) compileComm(a *AAU) cnode {
	recIdx := a.CommRec.ID - 1
	simple := c.opts.SimpleCommModel
	id, line := a.ID, a.Line
	switch x := a.Stmt.(type) {
	case *hir.Shift:
		// Fully static: the offset is part of the HIR node.
		var commUS, bytes float64
		var warn string
		sym := c.prog.Info.Sym(x.Array)
		switch {
		case sym == nil:
			warn = fmt.Sprintf("line %d: shift of unknown array %s ignored", line, x.Array)
		case sym.Map != nil && (x.Dim < 0 || x.Dim >= len(sym.Map.Dims)):
			warn = fmt.Sprintf("line %d: shift of %s along invalid dimension %d ignored", line, x.Array, x.Dim)
		case sym.Map != nil && !sym.Map.Replicated && sym.Map.Dims[x.Dim].NProc > 1:
			vol := stripBytesMax(sym.Map, sym.Type.Bytes(), x.Dim, x.Offset)
			bytes = float64(vol)
			commUS = evalPW(simple, c.lib.Shift, vol)
		}
		return cnode{id: id, line: line, fn: func(st *evalState, mult float64) (Metrics, error) {
			if warn != "" {
				st.warnf(warn)
			}
			st.comm(recIdx, bytes, commUS, mult)
			return st.add(id, line, mult, Metrics{CommUS: commUS, Execs: 1}), nil
		}}
	case *hir.CShift, *hir.EOShift:
		var src string
		var dim int
		var shiftE hir.Expr
		if cs, ok := x.(*hir.CShift); ok {
			src, dim, shiftE = cs.Src, cs.Dim, cs.Shift
		} else {
			eo := x.(*hir.EOShift)
			src, dim, shiftE = eo.Src, eo.Dim, eo.Shift
		}
		sym := c.prog.Info.Sym(src)
		if sym == nil {
			warn := fmt.Sprintf("line %d: shift of unknown array %s ignored", line, src)
			return cnode{id: id, line: line, fn: func(st *evalState, mult float64) (Metrics, error) {
				st.warnf(warn)
				st.comm(recIdx, 0, 0, mult)
				return st.add(id, line, mult, Metrics{Execs: 1}), nil
			}}
		}
		// Local data movement of the shifted copy is shift-independent.
		M := c.mach.Node.M
		local := sym.Elems()
		if sym.Map != nil && !sym.Map.Replicated {
			local = sym.Map.MaxLocalCount()
		}
		compUS := c.mach.Node.P.CyclesToUS(float64(local) * (M.LoadCycles + M.StoreCycles + 2))
		distributed := sym.Map != nil && !sym.Map.Replicated && dim < len(sym.Map.Dims) && sym.Map.Dims[dim].NProc > 1
		elemBytes := sym.Type.Bytes()
		symMap := sym.Map
		lib := c.lib
		unresolvedWarn := fmt.Sprintf("line %d: shift amount unresolved; assuming 1", line)
		volFor := func(shift int) (bytes, commUS float64) {
			if !distributed {
				return 0, 0
			}
			vol := stripBytesMax(symMap, elemBytes, dim, shift)
			return float64(vol), evalPW(simple, lib.Shift, vol)
		}
		if len(hir.ScalarRefs(shiftE)) == 0 {
			// Shift amount is environment-independent: bind it now.
			shift := 1
			known := true
			if v, ok := evalScalar(shiftE, nil); ok {
				shift = int(v.AsInt())
			} else {
				known = false
			}
			bytes, commUS := volFor(shift)
			return cnode{id: id, line: line, fn: func(st *evalState, mult float64) (Metrics, error) {
				if !known {
					st.warnf(unresolvedWarn)
				}
				st.comm(recIdx, bytes, commUS, mult)
				return st.add(id, line, mult, Metrics{CompUS: compUS, CommUS: commUS, Execs: 1}), nil
			}}
		}
		return cnode{id: id, line: line, fn: func(st *evalState, mult float64) (Metrics, error) {
			shift := 1
			if v, ok := evalScalar(shiftE, st.env); ok {
				shift = int(v.AsInt())
			} else {
				st.warnf(unresolvedWarn)
			}
			bytes, commUS := volFor(shift)
			st.comm(recIdx, bytes, commUS, mult)
			return st.add(id, line, mult, Metrics{CompUS: compUS, CommUS: commUS, Execs: 1}), nil
		}}
	case *hir.Reduce:
		b := 8
		if x.LocSrc != "" {
			b = 16
		}
		bytes := float64(b)
		commUS := c.lib.Reduce.Eval(b)
		return cnode{id: id, line: line, fn: func(st *evalState, mult float64) (Metrics, error) {
			st.comm(recIdx, bytes, commUS, mult)
			return st.add(id, line, mult, Metrics{CommUS: commUS, Execs: 1}), nil
		}}
	case *hir.AllGather:
		sym := c.prog.Info.Sym(x.Array)
		total := sym.Elems() * sym.Type.Bytes()
		bytes := float64(total)
		commUS := evalPW(simple, c.lib.Gather, total)
		return cnode{id: id, line: line, fn: func(st *evalState, mult float64) (Metrics, error) {
			st.comm(recIdx, bytes, commUS, mult)
			return st.add(id, line, mult, Metrics{CommUS: commUS, Execs: 1}), nil
		}}
	case *hir.FetchElem:
		bytes := float64(x.Typ.Bytes())
		commUS := evalPW(simple, c.lib.Bcast, x.Typ.Bytes())
		compUS := c.costs[a.Stmt].compUS
		return cnode{id: id, line: line, fn: func(st *evalState, mult float64) (Metrics, error) {
			st.comm(recIdx, bytes, commUS, mult)
			return st.add(id, line, mult, Metrics{CompUS: compUS, CommUS: commUS, Execs: 1}), nil
		}}
	}
	err := fmt.Errorf("core: cannot interpret Comm AAU for %T", a.Stmt)
	return cnode{id: id, line: line, fn: func(*evalState, float64) (Metrics, error) {
		return Metrics{}, err
	}}
}

func (c *Compiled) compileIO(a *AAU) cnode {
	x := a.Stmt.(*hir.Print)
	io := c.mach.Node.IO
	parts := c.costs[a.Stmt]
	commUS := io.HostStartupUS + float64(16*len(x.Args))*io.HostPerByteUS
	bytes := float64(16 * len(x.Args))
	recIdx := a.CommRec.ID - 1
	id, line := a.ID, a.Line
	return cnode{id: id, line: line, fn: func(st *evalState, mult float64) (Metrics, error) {
		st.comm(recIdx, bytes, commUS, mult)
		return st.add(id, line, mult, Metrics{CompUS: parts.compUS, CommUS: commUS, Execs: 1}), nil
	}}
}

// ---------------------------------------------------------------------------
// Evaluation

func (c *Compiled) evaluate(ctx context.Context, values map[string]sem.Value, trips map[int]int) (*Report, error) {
	// Chaos hook at entry, matching the tree walker.
	if err := faults.Fire(faults.SiteInterp); err != nil {
		return nil, err
	}
	trace := c.Trace(values)
	g, byID, recs := c.instantiate()
	st := &evalState{
		ctx:    ctx,
		span:   obs.SpanFromContext(ctx),
		env:    make(absEnv, len(values)),
		pinned: make(map[string]bool, len(values)),
		trips:  trips,
		trace:  trace,
		byID:   byID,
		recs:   recs,
		byLine: make(map[int]*Metrics),
	}
	for k, v := range values {
		st.env[k] = v
		st.pinned[k] = true
	}
	total, err := st.run(c.tops, 1)
	if err != nil {
		return nil, err
	}
	g.Root.ClockUS = st.clock
	return &Report{
		Program:  c.prog.Name,
		Procs:    c.prog.Info.Grid.Size(),
		SAAG:     g,
		Total:    total,
		ByLine:   st.byLine,
		Warnings: st.warnings,
	}, nil
}

// instantiate clones the SAAG template into a fresh metric-free graph
// with its own communication table.
func (c *Compiled) instantiate() (*SAAG, []*AAU, []*CommRec) {
	byID := make([]*AAU, c.maxID+1)
	recs := make([]*CommRec, len(c.tmpl.Table))
	var clone func(a *AAU) *AAU
	clone = func(a *AAU) *AAU {
		n := &AAU{ID: a.ID, Kind: a.Kind, Label: a.Label, Line: a.Line, Stmt: a.Stmt, ElseStart: a.ElseStart}
		if a.CommRec != nil {
			r := *a.CommRec
			r.AAU = n
			n.CommRec = &r
			recs[r.ID-1] = &r
		}
		if len(a.Children) > 0 {
			n.Children = make([]*AAU, len(a.Children))
			for i, ch := range a.Children {
				n.Children[i] = clone(ch)
			}
		}
		byID[a.ID] = n
		return n
	}
	root := clone(c.tmpl.Root)
	g := &SAAG{Program: c.tmpl.Program, Root: root, Table: recs, nextID: c.tmpl.nextID}
	return g, byID, recs
}

// Trace returns the definition trace an evaluation under the pinned
// values uses: the unit's trace when there are none, otherwise a traced
// result memoized per value set.
func (c *Compiled) Trace(values map[string]sem.Value) *analysis.Trace {
	if len(values) == 0 && c.unit != nil {
		return c.unit.Trace
	}
	key := valuesFP(values)
	c.mu.Lock()
	if t, ok := c.traces[key]; ok {
		c.mu.Unlock()
		return t
	}
	c.mu.Unlock()
	t := analysis.TraceProgram(c.prog, values)
	c.mu.Lock()
	if len(c.traces) >= traceCap {
		c.traces = make(map[string]*analysis.Trace)
	}
	c.traces[key] = t
	c.mu.Unlock()
	return t
}

// run evaluates sibling AAUs, mirroring interpAAUs: per-AAU stride
// checks, per-child clock stamps, metric accumulation.
func (st *evalState) run(ns []cnode, mult float64) (Metrics, error) {
	var total Metrics
	for i := range ns {
		n := &ns[i]
		if st.stride++; st.stride >= ctxCheckStride {
			st.stride = 0
			if err := st.ctx.Err(); err != nil {
				return total, err
			}
			if err := faults.Fire(faults.SiteInterp); err != nil {
				return total, err
			}
		}
		var m Metrics
		var err error
		if st.span != nil {
			m, err = st.runTraced(n, mult)
		} else {
			m, err = n.fn(st, mult)
		}
		if err != nil {
			return total, err
		}
		st.byID[n.id].ClockUS = st.clock
		total.Accumulate(m)
	}
	return total, nil
}

// runTraced evaluates one AAU inside an interp.<kind> span. The current
// span is swapped so nested AAUs parent correctly, then restored: an
// evaluation runs on one goroutine, so a plain field works.
func (st *evalState) runTraced(n *cnode, mult float64) (Metrics, error) {
	parent := st.span
	s := parent.StartChild(n.span)
	if n.line > 0 {
		s.SetAttrInt("line", n.line)
	}
	st.span = s
	m, err := n.fn(st, mult)
	s.End()
	st.span = parent
	return m, err
}

// add mirrors Interpreter.add: scale by multiplicity, accumulate into
// the AAU, the clock and the line index.
func (st *evalState) add(id, line int, mult float64, m Metrics) Metrics {
	m.CompUS *= mult
	m.CommUS *= mult
	m.OvhdUS *= mult
	m.Execs *= mult
	st.byID[id].Metrics.Accumulate(m)
	st.clock += m.TotalUS()
	if line > 0 {
		lm, ok := st.byLine[line]
		if !ok {
			lm = &Metrics{}
			st.byLine[line] = lm
		}
		lm.Accumulate(m)
	}
	return m
}

func (st *evalState) comm(recIdx int, bytes, costUS, mult float64) {
	r := st.recs[recIdx]
	r.Bytes = bytes
	r.CostUS = costUS
	r.Count += mult
}

func (st *evalState) warnf(text string) {
	st.warnings = append(st.warnings, text)
}

// kill is the compiled counterpart of Interpreter.killAssigned: remove
// every non-pinned name of a precomputed kill set.
func (st *evalState) kill(names []string) {
	for _, n := range names {
		if !st.pinned[n] {
			delete(st.env, n)
		}
	}
}

// valKey canonicalizes a sem.Value for fingerprinting (bit-exact on
// reals).
func valKey(v sem.Value) string {
	return fmt.Sprintf("%d:%d:%x:%t", v.Type, v.I, math.Float64bits(v.R), v.B)
}

// valuesFP fingerprints a whole pinned-value set (the tracing memo key).
func valuesFP(values map[string]sem.Value) string {
	if len(values) == 0 {
		return ""
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(valKey(values[n]))
		b.WriteByte(';')
	}
	return b.String()
}

// killSet lists, in deterministic order, every scalar name the
// tree-walker's killAssigned would delete for this subtree.
func killSet(ss []hir.Stmt) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(n string) {
		if n != "" && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	var scan func(ss []hir.Stmt)
	scan = func(ss []hir.Stmt) {
		for _, s := range ss {
			switch x := s.(type) {
			case *hir.Assign:
				if lv, ok := x.Lhs.(*hir.ScalarLV); ok {
					add(lv.Name)
				}
			case *hir.Loop:
				add(x.Var)
				scan(x.Body)
			case *hir.While:
				scan(x.Body)
			case *hir.If:
				scan(x.Then)
				scan(x.Else)
			case *hir.Reduce:
				add(x.Dst)
				add(x.LocDst)
			case *hir.FetchElem:
				add(x.Dst)
			}
		}
	}
	scan(ss)
	return out
}
