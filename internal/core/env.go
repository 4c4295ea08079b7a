package core

import (
	"hpfperf/internal/hir"
	"hpfperf/internal/sem"
)

// absEnv is the abstract scalar store used to resolve critical variables
// (§4.2: "a critical variable being defined as a variable whose value
// effects the flow of execution, e.g. a loop limit"). Only variables with
// statically traceable values are present.
type absEnv map[string]sem.Value

// evalScalar abstractly evaluates an expression; ok is false when the
// value depends on run-time data (array elements, reduction results, ...).
// The evaluation rules live in hir.EvalConst, shared with the static
// analysis tracer so both layers agree on what is statically determinable.
func evalScalar(e hir.Expr, env absEnv) (sem.Value, bool) {
	return hir.EvalConst(e, func(name string) (sem.Value, bool) {
		v, ok := env[name]
		return v, ok
	})
}

// kill removes from env every name of a kill set (the
// hir.AssignedScalars of a loop body or branch) that is not pinned:
// traced values written there are iteration- or path-dependent, while
// user-specified critical values are never invalidated.
func (env absEnv) kill(names []string, pinned map[string]bool) {
	for _, n := range names {
		if !pinned[n] {
			delete(env, n)
		}
	}
}
