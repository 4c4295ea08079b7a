package analysis

import (
	"strings"
	"testing"

	"hpfperf/internal/compiler"
	"hpfperf/internal/hir"
	"hpfperf/internal/sem"
)

func mustCompile(t *testing.T, src string) *hir.Program {
	t.Helper()
	p, err := compiler.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// loopByVar finds the traced loop for a source-level DO variable.
func loopByVar(t *testing.T, tr *Trace, name string) *LoopTrace {
	t.Helper()
	for _, l := range tr.LoopOrder {
		lt := tr.Loops[l]
		if lt.Var == name {
			return lt
		}
	}
	t.Fatalf("no traced loop with variable %s", name)
	return nil
}

const preamble = `PROGRAM T
PARAMETER (N = 64)
REAL A(N), B(N)
!HPF$ PROCESSORS P(4)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
!HPF$ DISTRIBUTE B(BLOCK) ONTO P
`

// TestTraceLoopInvariantRedefinition is the tentpole behavior: a bound
// assigned inside an earlier loop survives the fixpoint (the inline
// interpreter environment would have killed it).
func TestTraceLoopInvariantRedefinition(t *testing.T) {
	prog := mustCompile(t, preamble+`INTEGER M
M = 0
DO K = 1, 4
  M = 25
END DO
DO I = 1, M
  X = X + 1.0
END DO
END`)
	tr := TraceProgram(prog, nil)
	lt := loopByVar(t, tr, "I")
	if !lt.Resolved || lt.Lo != 1 || lt.Hi != 25 || lt.Step != 1 || lt.Trips != 25 {
		t.Fatalf("loop I = %+v, want resolved 1..25 step 1 (25 trips)", lt)
	}
	if !lt.Dynamic {
		t.Errorf("loop I should be marked Dynamic (bound references a scalar)")
	}
}

// TestTraceVaryingValue: accumulation in a loop has no single value; the
// blocker must say so.
func TestTraceVaryingValue(t *testing.T) {
	prog := mustCompile(t, preamble+`INTEGER M
M = 0
DO K = 1, 4
  M = M + 25
END DO
DO I = 1, M
  X = X + 1.0
END DO
END`)
	tr := TraceProgram(prog, nil)
	lt := loopByVar(t, tr, "I")
	if lt.Resolved {
		t.Fatalf("loop I resolved to %+v, want unresolved", lt)
	}
	if len(lt.Blockers) == 0 || lt.Blockers[0].Name != "M" {
		t.Fatalf("blockers = %v, want M first", lt.Blockers)
	}
	if !strings.Contains(lt.Blockers[0].Reason, "varying") {
		t.Errorf("blocker reason = %q, want a varying-value explanation", lt.Blockers[0].Reason)
	}
}

// TestTraceConditionalAssignment: a value set on only one branch of an
// unresolvable conditional is not traceable.
func TestTraceConditionalAssignment(t *testing.T) {
	prog := mustCompile(t, preamble+`INTEGER M
M = 10
S = A(1)
IF (S .GT. 0.0) THEN
  M = 20
END IF
DO I = 1, M
  X = X + 1.0
END DO
END`)
	tr := TraceProgram(prog, nil)
	lt := loopByVar(t, tr, "I")
	if lt.Resolved {
		t.Fatalf("loop I resolved to %+v, want unresolved (M is 10 or 20)", lt)
	}
	if len(lt.Blockers) == 0 || lt.Blockers[0].Name != "M" {
		t.Fatalf("blockers = %v, want M", lt.Blockers)
	}
}

// TestTraceFetchBlocker records the untraceable root cause with its
// definition line (the satellite bugfix: errors must say *where*).
func TestTraceFetchBlocker(t *testing.T) {
	prog := mustCompile(t, preamble+`INTEGER M
M = INT(A(1))
DO I = 1, M
  X = X + 1.0
END DO
END`)
	tr := TraceProgram(prog, nil)
	lt := loopByVar(t, tr, "I")
	if lt.Resolved {
		t.Fatalf("loop I resolved to %+v, want unresolved", lt)
	}
	b := lt.Blockers[0]
	if b.Name != "M" || b.Line != 8 || !strings.Contains(b.Reason, "distributed array A") {
		t.Fatalf("blocker = %+v, want M blocked by the line-8 fetch from A", b)
	}
}

// TestTraceLoopExitValue: Fortran DO semantics leave the index one step
// past the last trip, and later bounds may use it.
func TestTraceLoopExitValue(t *testing.T) {
	prog := mustCompile(t, preamble+`DO K = 1, 10
  X = X + 1.0
END DO
DO I = 1, K
  X = X + 1.0
END DO
END`)
	tr := TraceProgram(prog, nil)
	lt := loopByVar(t, tr, "I")
	if !lt.Resolved || lt.Hi != 11 {
		t.Fatalf("loop I = %+v, want hi = 11 (K's exit value)", lt)
	}
}

// TestTraceZeroTripPreservesState: a loop proven to run zero times must
// not invalidate values assigned in its (dead) body.
func TestTraceZeroTripPreservesState(t *testing.T) {
	prog := mustCompile(t, preamble+`INTEGER M
M = 7
DO K = 10, 1
  M = 99
END DO
DO I = 1, M
  X = X + 1.0
END DO
END`)
	tr := TraceProgram(prog, nil)
	if lt := loopByVar(t, tr, "K"); !lt.Resolved || lt.Trips != 0 {
		t.Fatalf("loop K = %+v, want zero trips", lt)
	}
	lt := loopByVar(t, tr, "I")
	if !lt.Resolved || lt.Hi != 7 {
		t.Fatalf("loop I = %+v, want hi = 7 (dead body must not kill M)", lt)
	}
}

// TestTracePinnedValues: user-supplied values seed the trace and survive
// any assignment, matching the interpreter's pinning semantics.
func TestTracePinnedValues(t *testing.T) {
	prog := mustCompile(t, preamble+`INTEGER M
M = INT(A(1))
DO I = 1, M
  X = X + 1.0
END DO
END`)
	tr := TraceProgram(prog, map[string]sem.Value{"M": sem.IntVal(6)})
	lt := loopByVar(t, tr, "I")
	if !lt.Resolved || lt.Hi != 6 {
		t.Fatalf("loop I = %+v, want hi = 6 from the pinned M", lt)
	}
}

// TestTraceWhile: entry-false conditions are proven; others record
// blockers when untraceable.
func TestTraceWhile(t *testing.T) {
	prog := mustCompile(t, preamble+`X = 0.0
DO WHILE (X .GT. 1.0)
  X = X + 1.0
END DO
S = A(1)
DO WHILE (S .GT. 0.0)
  S = S - 1.0
END DO
END`)
	tr := TraceProgram(prog, nil)
	if len(tr.WhileOrder) != 2 {
		t.Fatalf("traced %d whiles, want 2", len(tr.WhileOrder))
	}
	w0 := tr.Whiles[tr.WhileOrder[0]]
	if !w0.CondResolved || w0.CondValue {
		t.Fatalf("first while = %+v, want resolved false on entry", w0)
	}
	w1 := tr.Whiles[tr.WhileOrder[1]]
	if w1.CondResolved || len(w1.Blockers) == 0 {
		t.Fatalf("second while = %+v, want unresolved with blockers", w1)
	}
}

// TestTraceBudgetDegradesSoundly: hostile nesting exhausts the budget
// without hanging, and exhaustion must not fabricate resolutions.
func TestTraceBudgetDegradesSoundly(t *testing.T) {
	var b strings.Builder
	b.WriteString(preamble)
	b.WriteString("INTEGER M\nM = 3\n")
	const depth = 12
	for i := 0; i < depth; i++ {
		b.WriteString("DO K")
		b.WriteByte(byte('0' + i%10))
		if i >= 10 {
			b.WriteByte('A')
		}
		b.WriteString(" = 1, 2\n")
		b.WriteString("M = M + 1\n")
	}
	for i := 0; i < depth; i++ {
		b.WriteString("END DO\n")
	}
	b.WriteString("DO I = 1, M\n  X = X + 1.0\nEND DO\nEND")
	prog := mustCompile(t, b.String())
	tr := TraceProgram(prog, nil)
	lt := loopByVar(t, tr, "I")
	if lt.Resolved {
		t.Fatalf("loop I = %+v, want unresolved (M varies)", lt)
	}
}

// TestTraceAllocsPerLoop holds the tracer to a constant number of
// allocations per traced loop: the fixpoint's states come from the
// per-call free list, so only the loop's own record is new. Going from
// 4 to 32 sequential loops may cost at most 3 objects per added loop.
func TestTraceAllocsPerLoop(t *testing.T) {
	allocs := func(loops int) float64 {
		src := preamble + "INTEGER J, K\n" +
			strings.Repeat("DO I = 1, N\n  J = K\n  K = 5\nEND DO\n", loops) + "END"
		prog := mustCompile(t, src)
		return testing.AllocsPerRun(20, func() { TraceProgram(prog, nil) })
	}
	few, many := allocs(4), allocs(32)
	if perLoop := (many - few) / 28; perLoop > 3 {
		t.Errorf("TraceProgram allocates %.0f objects over 4 loops and %.0f over 32: %.2f per added loop, want at most 3",
			few, many, perLoop)
	}
}
