// Package autotune implements the paper's proposed extension (§5.2.1,
// §7): "an intelligent compiler capable of selecting appropriate
// directives and data decompositions" driven by the source-based
// interpretation model. Given a program, it enumerates distribution
// directives (processor arrangements × per-dimension BLOCK / CYCLIC / *
// formats), interprets each variant, and ranks them by predicted
// execution time — without ever executing the program.
package autotune

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"

	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/parser"
	"hpfperf/internal/sweep"
)

// Candidate is one directive assignment with its prediction.
type Candidate struct {
	// GridSpec is the PROCESSORS shape, e.g. "(2,4)".
	GridSpec string
	// Formats maps each DISTRIBUTE target to its format spec, e.g.
	// "(BLOCK,*)".
	Formats map[string]string
	// Source is the rewritten program.
	Source string
	// EstUS is the predicted execution time (microseconds); +Inf when the
	// variant failed to compile or interpret.
	EstUS float64
	// Err records why an invalid variant was rejected.
	Err error
}

// Desc renders a short human-readable description.
func (c Candidate) Desc() string {
	var parts []string
	targets := make([]string, 0, len(c.Formats))
	for t := range c.Formats {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	for _, t := range targets {
		parts = append(parts, t+c.Formats[t])
	}
	return fmt.Sprintf("%s onto P%s", strings.Join(parts, ", "), c.GridSpec)
}

// Options configure the search.
type Options struct {
	// Procs is the total processor count to distribute onto (required).
	Procs int
	// NoCyclic restricts the search to BLOCK/* formats.
	NoCyclic bool
	// Interp configures the interpretation engine.
	Interp core.Options
	// Engine evaluates candidates (worker pool + compile/prediction
	// cache); nil uses the process-wide shared engine.
	Engine *sweep.Engine
	// Checkpoint, when non-empty, is a file recording each evaluated
	// candidate so a killed search resumes from the completed ones. The
	// file is keyed by the source and search parameters (a mismatched
	// file restarts the search) and removed on success.
	Checkpoint string
	// CheckpointFlushEvery bounds completed candidates between durable
	// checkpoint writes (<= 0 = every candidate). Only meaningful with
	// Checkpoint.
	CheckpointFlushEvery int
	// CheckpointOnFlush, when set with Checkpoint, observes every
	// durable checkpoint write with the number of completed candidates
	// on file (the async jobs subsystem journals these as
	// checkpointed(n) transitions).
	CheckpointOnFlush func(done int)
}

// Search enumerates directive variants of src, interprets each on the
// sweep worker pool (cached compiles, deterministic candidate order),
// and returns them ranked by predicted time (invalid variants last).
func Search(src string, opts Options) ([]Candidate, error) {
	return SearchContext(context.Background(), src, opts)
}

// SearchContext is Search with cooperative cancellation: once ctx ends
// no further candidates are dispatched and the ctx error is returned.
func SearchContext(ctx context.Context, src string, opts Options) ([]Candidate, error) {
	if opts.Procs <= 0 {
		return nil, fmt.Errorf("autotune: Procs must be positive")
	}
	shape, err := analyzeShape(src)
	if err != nil {
		return nil, err
	}
	if len(shape.targets) == 0 {
		return nil, fmt.Errorf("autotune: program has no DISTRIBUTE directives to tune")
	}

	var out []Candidate
	for _, grid := range gridShapes(opts.Procs, 2) {
		for _, formats := range formatCombos(shape.maxTargetRank(), len(grid), opts.NoCyclic) {
			cand, skip := buildCandidate(src, shape, grid, formats)
			if skip {
				continue
			}
			out = append(out, cand)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("autotune: no applicable directive variants")
	}

	eng := opts.Engine
	if eng == nil {
		eng = sweep.Default()
	}
	var ck *sweep.Checkpoint
	if opts.Checkpoint != "" {
		h := fnv.New64a()
		io.WriteString(h, src)
		ck = &sweep.Checkpoint{
			Path: opts.Checkpoint,
			// The key keeps rank=2, the only arrangement rank searched,
			// so existing checkpoints still resume.
			Key: fmt.Sprintf("autotune|procs=%d|nocyclic=%t|rank=2|src=%x",
				opts.Procs, opts.NoCyclic, h.Sum64()),
			FlushEvery: opts.CheckpointFlushEvery,
			OnFlush:    opts.CheckpointOnFlush,
		}
	}
	// Candidate evaluations are independent; Map preserves index order,
	// so the stable rank below stays byte-identical to a serial loop.
	evals, err := sweep.MapCheckpointCtx(ctx, eng, len(out), ck, func(i int) (candEval, error) {
		return evalCandidate(ctx, out[i].Source, eng, opts.Interp), ctx.Err()
	})
	if err != nil {
		return nil, err
	}
	for i, ev := range evals {
		out[i].EstUS = ev.EstUS
		if ev.Err != "" {
			out[i].Err = errors.New(ev.Err)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].EstUS < out[j].EstUS })
	return out, nil
}

// programShape captures the tunable directive structure of a program.
type programShape struct {
	gridName string
	gridLine int // 1-based source line of the PROCESSORS directive
	targets  map[string]targetInfo
}

type targetInfo struct {
	rank int
	line int
}

func (s *programShape) maxTargetRank() int {
	r := 0
	for _, t := range s.targets {
		if t.rank > r {
			r = t.rank
		}
	}
	return r
}

// analyzeShape locates the program's tunable directives. The analysis is
// lexical (directives are single logical lines) so that a seed program
// whose existing directives are inconsistent — e.g. a grid rank that does
// not match its DISTRIBUTE formats — can still be tuned: every variant is
// fully recompiled and invalid ones are rejected individually.
func analyzeShape(src string) (*programShape, error) {
	if _, err := parser.Parse(src); err != nil {
		return nil, err
	}
	shape := &programShape{targets: make(map[string]targetInfo)}
	for i, line := range strings.Split(src, "\n") {
		u := strings.ToUpper(strings.TrimSpace(line))
		if !strings.HasPrefix(u, "!HPF$") {
			continue
		}
		rest := strings.TrimSpace(u[len("!HPF$"):])
		switch {
		case strings.HasPrefix(rest, "PROCESSORS"):
			shape.gridLine = i + 1
			shape.gridName = directiveTarget(rest[len("PROCESSORS"):])
		case strings.HasPrefix(rest, "DISTRIBUTE"):
			name := directiveTarget(rest[len("DISTRIBUTE"):])
			if name == "" {
				return nil, fmt.Errorf("autotune: cannot parse DISTRIBUTE on line %d", i+1)
			}
			rank := 1 + strings.Count(between(rest, "(", ")"), ",")
			shape.targets[name] = targetInfo{rank: rank, line: i + 1}
		}
	}
	if shape.gridLine == 0 {
		return nil, fmt.Errorf("autotune: program has no PROCESSORS directive")
	}
	return shape, nil
}

func directiveTarget(s string) string {
	s = strings.TrimSpace(s)
	end := strings.IndexAny(s, "( ")
	if end < 0 {
		return strings.TrimSpace(s)
	}
	return strings.TrimSpace(s[:end])
}

func between(s, open, close string) string {
	i := strings.Index(s, open)
	j := strings.Index(s, close)
	if i < 0 || j < i {
		return ""
	}
	return s[i+1 : j]
}

// gridShapes enumerates processor arrangements for n processors up to
// maxRank dimensions (each factorization once, e.g. 8 → (8), (2,4), (4,2)).
func gridShapes(n, maxRank int) [][]int {
	shapes := [][]int{{n}}
	if maxRank >= 2 {
		for a := 2; a <= n/2; a++ {
			if n%a == 0 {
				shapes = append(shapes, []int{a, n / a})
			}
		}
	}
	if n == 1 && maxRank >= 2 {
		shapes = append(shapes, []int{1, 1})
	}
	return shapes
}

// formatCombos enumerates per-dimension format assignments for a
// rank-`rank` target with exactly `nDist` distributed dimensions.
func formatCombos(rank, nDist int, noCyclic bool) [][]string {
	if nDist > rank {
		return nil
	}
	kinds := []string{"BLOCK"}
	if !noCyclic {
		kinds = append(kinds, "CYCLIC")
	}
	var out [][]string
	// Choose which dimensions are distributed (combination mask), then the
	// kind of each distributed dimension.
	var rec func(dim, used int, cur []string)
	rec = func(dim, used int, cur []string) {
		if dim == rank {
			if used == nDist {
				out = append(out, append([]string(nil), cur...))
			}
			return
		}
		rec(dim+1, used, append(cur, "*"))
		if used < nDist {
			for _, k := range kinds {
				rec(dim+1, used+1, append(cur, k))
			}
		}
	}
	rec(0, 0, nil)
	return out
}

// buildCandidate rewrites the directive lines of src for one variant.
func buildCandidate(src string, shape *programShape, grid []int, formats []string) (Candidate, bool) {
	lines := strings.Split(src, "\n")
	gs := make([]string, len(grid))
	for i, g := range grid {
		gs[i] = fmt.Sprint(g)
	}
	gridSpec := "(" + strings.Join(gs, ",") + ")"
	gridName := shape.gridName
	if gridName == "" {
		gridName = "P"
	}
	lines[shape.gridLine-1] = fmt.Sprintf("!HPF$ PROCESSORS %s%s", gridName, gridSpec)

	cand := Candidate{GridSpec: gridSpec, Formats: make(map[string]string)}
	for target, ti := range shape.targets {
		if ti.rank < len(formats) {
			return cand, true // this format vector does not fit the target
		}
		fs := formats
		if ti.rank > len(formats) {
			// Pad trailing dimensions as collapsed.
			fs = append(append([]string(nil), formats...), make([]string, ti.rank-len(formats))...)
			for i := len(formats); i < ti.rank; i++ {
				fs[i] = "*"
			}
		}
		spec := "(" + strings.Join(fs, ",") + ")"
		cand.Formats[target] = spec
		lines[ti.line-1] = fmt.Sprintf("!HPF$ DISTRIBUTE %s%s ONTO %s", target, spec, gridName)
	}
	cand.Source = strings.Join(lines, "\n")
	return cand, false
}

// candEval is the checkpointable outcome of one candidate evaluation.
// Errors travel as strings so the value round-trips through JSON; a
// resumed search reconstructs Candidate.Err from the recorded text.
type candEval struct {
	EstUS float64 `json:"est_us"`
	Err   string  `json:"err,omitempty"`
}

// evalCandidate compiles (cached) and interprets one variant.
func evalCandidate(ctx context.Context, src string, eng *sweep.Engine, interp core.Options) candEval {
	const invalid = 1e308
	rep, err := eng.InterpretContext(ctx, src, compiler.Options{}, interp)
	if err != nil {
		return candEval{EstUS: invalid, Err: err.Error()}
	}
	return candEval{EstUS: rep.TotalUS()}
}
