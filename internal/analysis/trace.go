package analysis

import (
	"fmt"
	"strings"

	"hpfperf/internal/hir"
	"hpfperf/internal/sem"
)

// This file implements critical-variable definition tracing (§4.2) as a
// forward dataflow analysis over the node program on the standard
// constants lattice (unknown-yet / known value / not-a-constant). Unlike
// the interpretation engine's inline first-iteration propagation — which
// deletes every loop-body-assigned scalar after one body walk — the
// tracer runs loop bodies to a fixpoint, so loop-invariant redefinitions
// (NITER = 25 inside a setup loop) survive and statically determinable
// bounds no longer require Options.Values. When a value cannot be traced
// the analysis records *why* and *where*, so the interpreter's fallback
// error can name the blocking definitions.

// Blocker explains why one scalar has no statically traceable value.
type Blocker struct {
	Name   string `json:"name"`
	Line   int    `json:"line,omitempty"` // 0 when no single definition site applies
	Reason string `json:"reason"`
}

func (b Blocker) String() string {
	if b.Line > 0 {
		return fmt.Sprintf("%s (%s at line %d)", b.Name, b.Reason, b.Line)
	}
	return fmt.Sprintf("%s (%s)", b.Name, b.Reason)
}

// LoopTrace is the traced resolution of one counted loop's bound triplet.
type LoopTrace struct {
	Line     int
	Var      string
	Resolved bool
	Lo, Hi   int
	Step     int
	Trips    int
	// Dynamic reports that at least one bound referenced a scalar (the
	// resolution required tracing rather than literal constants).
	Dynamic bool
	// Blockers lists, for unresolved loops, the definitions that blocked
	// tracing.
	Blockers []Blocker
}

// WhileTrace is the traced entry condition of a DO WHILE loop.
type WhileTrace struct {
	Line         int
	CondResolved bool
	CondValue    bool // meaningful when CondResolved
	Blockers     []Blocker
}

// CondTrace is the traced value of a scalar (non-elemental) IF condition.
type CondTrace struct {
	Line     int
	Resolved bool
	Value    bool // meaningful when Resolved
	HasElse  bool
	HasThen  bool
	// Pinned reports that the resolution rests (transitively) on a
	// user-pinned value. Pinned values are hypotheses supplied via
	// Options.Values, not program facts, so degenerate-control-flow
	// lints must not treat such a resolution as a proof.
	Pinned bool
}

// Trace is the result of definition tracing: per-construct resolutions
// keyed by HIR node identity (several constructs can share a source line,
// e.g. the loops of a multi-index FORALL). The *Order slices preserve
// program order for deterministic diagnostics.
type Trace struct {
	Loops  map[*hir.Loop]*LoopTrace
	Whiles map[*hir.While]*WhileTrace
	Conds  map[*hir.If]*CondTrace

	LoopOrder  []*hir.Loop
	WhileOrder []*hir.While
	CondOrder  []*hir.If
}

// LoopBlockers returns the blocking definitions recorded for a loop, or
// nil when it was resolved (or never reached by the tracer).
func (t *Trace) LoopBlockers(x *hir.Loop) []Blocker {
	if lt := t.Loops[x]; lt != nil {
		return lt.Blockers
	}
	return nil
}

// cell is one abstract scalar: a known constant or an explained unknown.
// An unknown cell's Blocker is implied: its name is the slot's and its
// line is the cell's, so only the reason is stored.
type cell struct {
	set    bool // assigned on this path
	known  bool
	pinned bool // value derives (transitively) from a pinned hypothesis
	val    sem.Value
	line   int    // defining source line (0 for initial/pinned values)
	reason string // why the value is unknown (meaningful when !known)
}

// state holds one cell per scalar slot (see tracer.slot). An unset cell
// means the scalar was never assigned on this path.
type state []cell

func valueEq(a, b sem.Value) bool {
	return a.Type == b.Type && a.I == b.I && a.R == b.R && a.B == b.B
}

// statesEqual compares the lattice content of two states (blocker
// explanations are ignored: they do not affect convergence).
func statesEqual(a, b state) bool {
	for i := range a {
		ca, cb := &a[i], &b[i]
		if ca.set != cb.set || ca.known != cb.known {
			return false
		}
		if ca.known && !valueEq(ca.val, cb.val) {
			return false
		}
	}
	return true
}

// maxFixpointIters bounds the rounds of one loop-body fixpoint. The
// constants lattice has height 2 per variable, so real programs converge
// in a handful of rounds; the cap (with traceBudget) keeps hostile
// nesting bounded.
const maxFixpointIters = 8

// traceBudget bounds total abstract statement visits per TraceProgram
// call; once exhausted, in-flight fixpoints stop refining and degrade to
// the sound "kill everything assigned in the body" answer.
const traceBudget = 1 << 18

// tracer numbers every scalar the program can assign, plus the pinned
// names, into dense slots once per TraceProgram call, so a state is a
// flat slice: cloning is a copy and meets and convergence checks are
// one linear pass. A name outside the slots is never assigned.
//
// Every state of one call has the same length, so the tracer recycles
// them: clone and meet take their slices from the free list, and each
// transfer function releases to it every state it consumed and does not
// return. States never leave the tracer (the Trace holds only the
// per-construct records), so a recycled state cannot reach a caller.
type tracer struct {
	tr     *Trace
	slot   map[string]int
	pinned []bool // by slot
	budget int
	free   []state // released states, ready for reuse
}

// alloc returns a state of the program's length with stale contents;
// the caller overwrites every cell.
func (t *tracer) alloc() state {
	if n := len(t.free); n > 0 {
		s := t.free[n-1]
		t.free = t.free[:n-1]
		return s
	}
	return make(state, len(t.slot))
}

// release hands a state nothing reads any more back for reuse.
func (t *tracer) release(s state) { t.free = append(t.free, s) }

func (t *tracer) clone(s state) state {
	c := t.alloc()
	copy(c, s)
	return c
}

// TraceProgram runs definition tracing over a compiled program. pinned
// supplies user-specified critical values (Options.Values); they seed the
// initial state and are never invalidated, matching the interpretation
// engine's pinning semantics.
func TraceProgram(p *hir.Program, pinned map[string]sem.Value) *Trace {
	t := &tracer{
		tr: &Trace{
			Loops:  make(map[*hir.Loop]*LoopTrace),
			Whiles: make(map[*hir.While]*WhileTrace),
			Conds:  make(map[*hir.If]*CondTrace),
		},
		slot:   make(map[string]int),
		budget: traceBudget,
	}
	for _, n := range hir.AssignedScalars(p.Body) {
		t.slot[n] = len(t.slot)
	}
	for k := range pinned {
		if _, ok := t.slot[k]; !ok {
			t.slot[k] = len(t.slot)
		}
	}
	t.pinned = make([]bool, len(t.slot))
	s := make(state, len(t.slot))
	for k, v := range pinned {
		i := t.slot[k]
		t.pinned[i] = true
		s[i] = cell{set: true, known: true, val: v, pinned: true}
	}
	t.stmts(p.Body, s)
	return t.tr
}

// cell returns the scalar's cell in s, or nil when it is unassigned.
func (t *tracer) cell(s state, name string) *cell {
	if i, ok := t.slot[name]; ok && s[i].set {
		return &s[i]
	}
	return nil
}

func (t *tracer) eval(e hir.Expr, s state) (sem.Value, bool) {
	return hir.EvalConst(e, func(name string) (sem.Value, bool) {
		c := t.cell(s, name)
		if c == nil || !c.known {
			return sem.Value{}, false
		}
		return c.val, true
	})
}

// unknown is the cell of a scalar untraceable for the reason.
func unknown(line int, reason string) cell {
	return cell{set: true, line: line, reason: reason}
}

// kill marks a scalar untraceable with an explanation.
func (t *tracer) kill(name string, line int, reason string, s state) {
	if i := t.slot[name]; !t.pinned[i] {
		s[i] = unknown(line, reason)
	}
}

// meet joins two control-flow branches into a new state: values known
// and equal on both sides survive; everything else becomes an explained
// unknown. Pinned names always keep their pinned value. a and b are left
// to the caller.
func (t *tracer) meet(a, b state) state {
	out := t.alloc()
	for i := range a {
		ca, cb := a[i], b[i]
		switch {
		case t.pinned[i] || !cb.set && !ca.known:
			out[i] = ca
		case !ca.set && !cb.known:
			out[i] = cb
		case !cb.set:
			out[i] = unknown(ca.line, "assigned on only one control path")
		case !ca.set:
			out[i] = unknown(cb.line, "assigned on only one control path")
		case ca.known && cb.known && valueEq(ca.val, cb.val):
			ca.pinned = ca.pinned || cb.pinned
			out[i] = ca
		case !ca.known:
			out[i] = ca
		case !cb.known:
			out[i] = cb
		default:
			line := cb.line
			if line == 0 {
				line = ca.line
			}
			out[i] = unknown(line, "assigned a varying value")
		}
	}
	return out
}

// blockers collects one explained Blocker per untraced scalar referenced
// by the expressions.
func (t *tracer) blockers(es []hir.Expr, s state) []Blocker {
	seen := make(map[string]bool)
	var out []Blocker
	for _, e := range es {
		if e == nil {
			continue
		}
		for _, name := range hir.ScalarRefs(e) {
			if seen[name] {
				continue
			}
			seen[name] = true
			c := t.cell(s, name)
			switch {
			case c == nil:
				out = append(out, Blocker{Name: name, Reason: "never assigned a traceable value"})
			case !c.known:
				out = append(out, Blocker{Name: name, Line: c.line, Reason: c.reason})
			}
		}
	}
	return out
}

// assignReason explains why one scalar assignment is untraceable,
// propagating the root cause through compiler temporaries.
func (t *tracer) assignReason(name string, x *hir.Assign, s state) string {
	for _, r := range hir.ScalarRefs(x.Rhs) {
		c := t.cell(s, r)
		if c != nil && c.known {
			continue
		}
		if c == nil || c.reason == "" {
			return fmt.Sprintf("assigned from undefined %s", r)
		}
		if r == name || strings.HasPrefix(r, "$") {
			// Self-reference or compiler temporary: surface the root
			// cause directly instead of a vacuous indirection.
			return c.reason
		}
		return fmt.Sprintf("assigned from untraced %s", r)
	}
	if exprReadsElem(x.Rhs) {
		return "assigned from array element data"
	}
	return "assigned from run-time data"
}

func exprReadsElem(e hir.Expr) bool {
	switch x := e.(type) {
	case *hir.Elem:
		return true
	case *hir.Bin:
		return exprReadsElem(x.X) || exprReadsElem(x.Y)
	case *hir.Un:
		return exprReadsElem(x.X)
	case *hir.Intr:
		for _, a := range x.Args {
			if exprReadsElem(a) {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Transfer functions

// stmts applies the transfer function of each statement in order. The
// input state is consumed and the out state returned. Every transfer
// function follows the same rule: it may update its input in place or
// return another state, and it releases each state it consumed and does
// not return.
func (t *tracer) stmts(ss []hir.Stmt, s state) state {
	for _, st := range ss {
		s = t.stmt(st, s)
	}
	return s
}

func (t *tracer) stmt(st hir.Stmt, s state) state {
	t.budget--
	switch x := st.(type) {
	case *hir.Assign:
		lv, ok := x.Lhs.(*hir.ScalarLV)
		if !ok {
			return s
		}
		i := t.slot[lv.Name]
		if t.pinned[i] {
			return s
		}
		if v, ok := t.eval(x.Rhs, s); ok {
			s[i] = cell{set: true, known: true, val: v, pinned: t.pinnedDerived(x.Rhs, s), line: x.SrcLine}
		} else {
			s[i] = unknown(x.SrcLine, t.assignReason(lv.Name, x, s))
		}
		return s
	case *hir.Loop:
		return t.loop(x, s)
	case *hir.While:
		return t.while(x, s)
	case *hir.If:
		return t.cond(x, s)
	case *hir.Reduce:
		t.kill(x.Dst, x.SrcLine, "global "+x.Op.String()+" reduction result", s)
		if x.LocDst != "" {
			t.kill(x.LocDst, x.SrcLine, "global "+x.Op.String()+" reduction result", s)
		}
		return s
	case *hir.FetchElem:
		t.kill(x.Dst, x.SrcLine, "fetched from distributed array "+x.Array, s)
		return s
	}
	return s
}

// fixpointBody iterates a loop body to a fixpoint starting from entry
// (with the loop index already invalidated), which it consumes. It
// returns the out state of one body application from the stabilized
// head — i.e. the state after a final iteration. On non-convergence
// (budget or round cap) it degrades soundly by killing everything the
// body assigns.
func (t *tracer) fixpointBody(body []hir.Stmt, entry state) state {
	head := entry
	out := t.stmts(body, t.clone(head))
	for i := 0; ; i++ {
		merged := t.meet(head, out)
		converged := statesEqual(merged, head)
		t.release(head)
		head = merged
		if converged {
			t.release(head)
			return out
		}
		if i >= maxFixpointIters || t.budget <= 0 {
			t.release(head)
			for _, n := range hir.AssignedScalars(body) {
				t.kill(n, 0, "assigned in a loop whose analysis did not converge", out)
			}
			return out
		}
		t.release(out)
		out = t.stmts(body, t.clone(head))
	}
}

func (t *tracer) recordLoop(x *hir.Loop, lt *LoopTrace) {
	if _, ok := t.tr.Loops[x]; !ok {
		t.tr.LoopOrder = append(t.tr.LoopOrder, x)
	}
	t.tr.Loops[x] = lt
}

func (t *tracer) loop(x *hir.Loop, s state) state {
	lt := &LoopTrace{Line: x.SrcLine, Var: x.Var}
	lt.Dynamic = len(hir.ScalarRefs(x.Lo))+len(hir.ScalarRefs(x.Hi))+len(hir.ScalarRefs(x.Step)) > 0
	lv, ok1 := t.eval(x.Lo, s)
	hv, ok2 := t.eval(x.Hi, s)
	sv, ok3 := t.eval(x.Step, s)
	switch {
	case ok1 && ok2 && ok3 && sv.AsInt() != 0:
		lt.Resolved = true
		lt.Lo, lt.Hi, lt.Step = int(lv.AsInt()), int(hv.AsInt()), int(sv.AsInt())
		lt.Trips = hir.TripCount(lt.Lo, lt.Hi, lt.Step)
	case ok1 && ok2 && ok3:
		lt.Blockers = []Blocker{{Name: x.Var, Line: x.SrcLine, Reason: "zero loop step"}}
	default:
		lt.Blockers = t.blockers([]hir.Expr{x.Lo, x.Hi, x.Step}, s)
		if len(lt.Blockers) == 0 {
			lt.Blockers = []Blocker{{Name: x.Var, Line: x.SrcLine, Reason: "bounds depend on array element data"}}
		}
	}
	t.recordLoop(x, lt)

	if lt.Resolved && lt.Trips == 0 {
		// The body never executes: walk it once for recording only
		// (nested constructs still get traces) and discard its effects.
		dead := t.clone(s)
		t.kill(x.Var, x.SrcLine, "index of a zero-trip loop", dead)
		t.release(t.stmts(x.Body, dead))
		return s
	}

	entry := t.clone(s)
	t.kill(x.Var, x.SrcLine, "loop index", entry)
	out := t.fixpointBody(x.Body, entry)
	if lt.Resolved {
		t.release(s)
		// The loop ran at least once: the post-loop state is the final
		// iteration's out state; the DO index lands one step past the
		// last executed value.
		if i := t.slot[x.Var]; !t.pinned[i] {
			last := lt.Lo + lt.Trips*lt.Step
			out[i] = cell{set: true, known: true, val: sem.IntVal(int64(last)), line: x.SrcLine}
		}
		return out
	}
	// Unknown trip count: the loop may have run zero times, so join the
	// entry state with the traced exit.
	exit := t.meet(s, out)
	t.release(s)
	t.release(out)
	t.kill(x.Var, x.SrcLine, "index of a loop with untraced bounds", exit)
	return exit
}

func (t *tracer) while(x *hir.While, s state) state {
	wt := &WhileTrace{Line: x.SrcLine}
	if v, ok := t.eval(x.Cond, s); ok {
		wt.CondResolved, wt.CondValue = true, v.B
	} else {
		wt.Blockers = t.blockers([]hir.Expr{x.Cond}, s)
	}
	if _, ok := t.tr.Whiles[x]; !ok {
		t.tr.WhileOrder = append(t.tr.WhileOrder, x)
	}
	t.tr.Whiles[x] = wt

	if wt.CondResolved && !wt.CondValue {
		// Never entered; walk for recording only.
		t.release(t.stmts(x.Body, t.clone(s)))
		return s
	}
	out := t.fixpointBody(x.Body, t.clone(s))
	exit := t.meet(s, out)
	t.release(s)
	t.release(out)
	return exit
}

func (t *tracer) cond(x *hir.If, s state) state {
	if !hir.Elemental(x.Cond) {
		ct := &CondTrace{Line: x.SrcLine, HasThen: len(x.Then) > 0, HasElse: len(x.Else) > 0}
		if v, ok := t.eval(x.Cond, s); ok {
			ct.Resolved, ct.Value = true, v.B
			ct.Pinned = t.pinnedDerived(x.Cond, s)
		}
		if _, ok := t.tr.Conds[x]; !ok {
			t.tr.CondOrder = append(t.tr.CondOrder, x)
		}
		t.tr.Conds[x] = ct
		if ct.Resolved {
			taken, dead := x.Then, x.Else
			if !ct.Value {
				taken, dead = x.Else, x.Then
			}
			t.release(t.stmts(dead, t.clone(s))) // recording only
			return t.stmts(taken, s)
		}
	}
	outThen := t.stmts(x.Then, t.clone(s))
	outElse := t.stmts(x.Else, s)
	exit := t.meet(outThen, outElse)
	t.release(outThen)
	t.release(outElse)
	return exit
}

// pinnedDerived reports whether any scalar the expression references
// carries a value derived (transitively) from a pinned hypothesis.
func (t *tracer) pinnedDerived(e hir.Expr, s state) bool {
	for _, name := range hir.ScalarRefs(e) {
		if c := t.cell(s, name); c != nil && c.known && c.pinned {
			return true
		}
	}
	return false
}
