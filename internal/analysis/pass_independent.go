package analysis

import (
	"fmt"

	"hpfperf/internal/analysis/dep"
)

// independentPass reports the compiler's decision on every INDEPENDENT
// directive. The directive is a *claim* that a loop's iterations are
// order-free, and the paper's premise — answering performance questions
// statically — extends naturally to proving or refuting such claims
// rather than trusting them. The compiler verifies each annotated loop
// once with the dependence engine and records the verdict on the
// program (hir.Program.Independent); this pass renders that record. A
// proven annotation on a DO is honored when the DO becomes a partitioned
// FORALL nest (the serialization penalty disappears from predictions),
// on a FORALL when an assignment skips an evaluate-then-assign copy its
// reads would otherwise force; a refuted one is a correctness error.
//
// Codes: HPF0501 annotation refuted (error), HPF0502 annotation
// unprovable and therefore not honored (warning), HPF0503 annotation
// proven and honored (info), HPF0504 annotation proven but not honored
// (warning): on a DO because the lowering cannot convert the loop, on a
// FORALL because no assignment needed the copy, so the directive has no
// effect.
type independentPass struct{}

func (independentPass) Name() string { return "independent" }

func (independentPass) Run(u *Unit) []Diagnostic {
	var out []Diagnostic
	for _, rec := range u.Prog.Independent {
		label := "DO loop"
		if rec.Forall {
			label = "FORALL"
		}
		d := Diagnostic{Line: rec.Line}
		switch {
		case rec.Verdict == dep.Refuted:
			d.Code, d.Severity = "HPF0501", SevError
			d.Message = fmt.Sprintf("INDEPENDENT annotation on this %s is refuted: %s", label, evidenceString(rec.Evidence))
			d.Hint = "remove the directive (the loop carries a real dependence) or restructure the loop so iterations are disjoint"
		case rec.Verdict == dep.Unproven:
			d.Code, d.Severity = "HPF0502", SevWarning
			d.Message = fmt.Sprintf("INDEPENDENT annotation on this %s cannot be proven and is not honored: %s", label, evidenceString(rec.Evidence))
			d.Hint = "keep subscripts affine in the loop indices with constant bounds so the dependence tests apply"
		case !rec.Honored && rec.Forall:
			d.Code, d.Severity = "HPF0504", SevWarning
			d.Message = "INDEPENDENT annotation on this FORALL is proven but has no effect: no assignment needs the evaluate-then-assign copy"
			d.Hint = "the directive changes a FORALL only when an assignment reads elements of its target that other iterations write"
		case !rec.Honored:
			d.Code, d.Severity = "HPF0504", SevWarning
			d.Message = "INDEPENDENT annotation on this DO loop is proven but not honored: the loop stays sequential"
			d.Hint = "a proven DO is partitioned only when its body is array-element assignments the FORALL lowering accepts"
		case rec.Forall:
			d.Code, d.Severity = "HPF0503", SevInfo
			d.Message = "INDEPENDENT annotation on this FORALL is proven: its assignments skip the evaluate-then-assign copy"
		default:
			d.Code, d.Severity = "HPF0503", SevInfo
			d.Message = "INDEPENDENT annotation on this DO loop is proven: the loop is partitioned without the serialization penalty"
		}
		out = append(out, d)
	}
	return out
}

// evidenceString renders the first (strongest) evidence item, noting how
// many more there are.
func evidenceString(evidence []dep.Evidence) string {
	if len(evidence) == 0 {
		return "no analyzable references"
	}
	s := evidence[0].String()
	if len(evidence) > 1 {
		s += fmt.Sprintf(" (+%d more)", len(evidence)-1)
	}
	return s
}
