package sweep

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpfperf/internal/analysis"
	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/exec"
	"hpfperf/internal/faults"
	"hpfperf/internal/hir"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/obs"
	"hpfperf/internal/sysmodel"
)

// DefaultCacheEntries bounds the cache's compile entries when no
// explicit capacity is given. Everything derived from a program lives
// under its entry, so the bound caps the whole cache: it keeps a
// long-running process (hpfserve) from growing without limit while
// still holding every artifact of a full experiment reproduction.
const DefaultCacheEntries = 4096

// entryArtifacts bounds each derived kind (prediction forms, reports,
// measurements) within one entry. Past it, the entry drops its own
// least recently used artifact of that kind, so one program queried
// with many option variants never pushes other programs out. A cache of
// n entries holds at most n × (1 + 3·entryArtifacts) artifacts.
const entryArtifacts = 16

// Cache memoizes the compilation pipeline and everything derived from
// its output across sweep points. It is one bounded LRU of compile
// entries (*Program), keyed by source hash and compile options. Each
// entry owns every artifact derived from its program: the unpinned
// analysis (definition trace and static price), the closure-compiled
// prediction forms (*core.Compiled, keyed by machine and the static
// interpretation options only, so one form serves every
// Values/TripCounts combination through its EvaluateWith path), whole
// interpretation reports (*core.Report), and simulated-execution
// results (*exec.Result — the simulator is deterministic for a fixed
// MeasureSpec, which is what makes measurement memoizable at all).
//
// Every artifact is a single-flight cell: a key being built by one
// worker blocks other workers asking for the same key, so each distinct
// (source, options) pair is built exactly once no matter how many
// workers race for it. Waiters park on the builder's completion channel
// and honor their own context, so a cancelled request stops waiting
// without disturbing the build. The cache is safe for concurrent use.
//
// The cache holds at most cap entries and evicts the least recently
// used entry beyond that, together with everything derived from it;
// touching any artifact touches its entry. Evictions are counted per
// kind. Evicted entries and artifacts remain valid for goroutines
// already holding them; only the memoization is lost.
//
// Cached values are shared between callers: all kinds are treated as
// immutable after construction everywhere in this module (the
// simulator, the evaluators and the report renderers only read them),
// which is what makes the memoization sound.
type Cache struct {
	mu       sync.Mutex
	cap      int
	programs table[*Program]
	// live counts the artifacts of each kind held by live entries;
	// evictions counts the ones evicted.
	live      [numKinds]int
	evictions [numKinds]int64
}

// NewCache returns an empty cache bounded at DefaultCacheEntries
// entries.
func NewCache() *Cache { return NewCacheSize(DefaultCacheEntries) }

// NewCacheSize returns an empty cache holding at most n compile entries
// (n <= 0 selects the default), each with at most 16 artifacts of every
// derived kind.
func NewCacheSize(n int) *Cache {
	if n <= 0 {
		n = DefaultCacheEntries
	}
	return &Cache{cap: n}
}

// kind is one memoized artifact kind. The four kinds share one lookup
// path and differ in their lookup counters, their cache.lookup span
// kind and the stage a recovered panic names.
type kind int

const (
	kindCompile kind = iota
	kindForm
	kindReport
	kindMeasure
	numKinds
)

var (
	kindSpan  = [numKinds]string{"compile", "predict", "report", "exec"}
	kindStage = [numKinds]string{"compile", "predict", "interpret", "execute"}
)

// lookups returns the hit and miss counters of kind k.
func (s *Stats) lookups(k kind) (hit, miss *atomic.Int64) {
	switch k {
	case kindCompile:
		return &s.CompileHits, &s.CompileMisses
	case kindForm:
		return &s.PredictHits, &s.PredictMisses
	case kindReport:
		return &s.ReportHits, &s.ReportMisses
	}
	return &s.ExecHits, &s.ExecMisses
}

// cell is the cache's one single-flight slot. The caller that creates
// it builds the value (fill); every other caller waits for it (wait).
// val and err are written once, under Cache.mu, before done closes.
type cell[T any] struct {
	key  string
	done chan struct{}
	val  T
	err  error
	elem *list.Element // position in its table's LRU; nil once evicted or dropped
}

// wait returns the cell's outcome once it is final, or ctx's error if
// ctx ends first.
func (cl *cell[T]) wait(ctx context.Context) (T, error) {
	select {
	case <-cl.done:
		return cl.val, cl.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// fill runs build for a cell its caller created and publishes the
// outcome. A panic becomes a *PanicError naming stage (recoverToErr).
// A poisoned outcome is handed to unlink (called under c.mu) so that
// the next caller rebuilds.
func (cl *cell[T]) fill(c *Cache, stage string, build func() (T, error), unlink func()) (T, error) {
	var v T
	var err error
	func() {
		defer recoverToErr(stage, &err)
		v, err = build()
	}()
	c.mu.Lock()
	cl.val, cl.err = v, err
	if poisoned(err) {
		unlink()
	}
	c.mu.Unlock()
	close(cl.done)
	return v, err
}

// table is a bounded LRU of cells by key: the cache's compile entries,
// and each entry's artifacts of one derived kind. The caller holds
// Cache.mu.
type table[T any] struct {
	cells map[string]*cell[T]
	lru   list.List // of *cell[T]; front = most recent
}

// add inserts a new, unbuilt cell for key as the most recent.
func (t *table[T]) add(key string) *cell[T] {
	if t.cells == nil {
		t.cells = make(map[string]*cell[T])
	}
	cl := &cell[T]{key: key, done: make(chan struct{})}
	t.cells[key] = cl
	cl.elem = t.lru.PushFront(cl)
	return cl
}

// remove unlinks a cell that is still in the table.
func (t *table[T]) remove(cl *cell[T]) {
	delete(t.cells, cl.key)
	t.lru.Remove(cl.elem)
	cl.elem = nil
}

// lookup is the cache's one lookup path. It returns key's value in t,
// the table of kind k in entry owner (nil when t is the cache's own
// table of entries), and on a miss builds it with build, at most once
// per live key. A lookup touches the entry it lands in, and a new cell
// pushes its table's least recently used one out past the table's
// bound; an evicted entry takes its artifacts along. Cancelled,
// deadline, transient and panicked builds are not kept. Cells added to
// or dropped from an entry that was evicted meanwhile leave the live
// counts alone.
func lookup[T any](ctx context.Context, c *Cache, owner *Program, t *table[T], k kind, key string, stats *Stats, build func(*cell[T]) (T, error)) (T, error) {
	live := func() bool { return owner == nil || owner.entry.elem != nil }
	c.mu.Lock()
	if owner != nil && live() {
		c.programs.lru.MoveToFront(owner.entry.elem)
	}
	cl, hit := t.cells[key]
	if hit {
		t.lru.MoveToFront(cl.elem)
	} else {
		cl = t.add(key)
		limit := entryArtifacts
		if owner == nil {
			limit = c.cap
		}
		if live() {
			c.live[k]++
		}
		for len(t.cells) > limit {
			old := t.lru.Back().Value.(*cell[T])
			t.remove(old)
			if live() {
				c.live[k]--
				c.evictions[k]++
			}
			if p, ok := any(old.val).(*Program); ok && p != nil {
				c.evictDerived(p)
			}
		}
	}
	c.mu.Unlock()

	outcome, spanKey := "miss", key
	if hit {
		outcome = "hit"
	}
	if stats != nil {
		hits, misses := stats.lookups(k)
		if hit {
			hits.Add(1)
		} else {
			misses.Add(1)
		}
	}
	if owner != nil {
		spanKey = owner.entry.key
	}
	cacheSpan(ctx, kindSpan[k], spanKey, outcome)
	if hit {
		return cl.wait(ctx)
	}
	return cl.fill(c, kindStage[k], func() (T, error) { return build(cl) }, func() {
		if cl.elem != nil {
			t.remove(cl)
			if live() {
				c.live[k]--
			}
		}
	})
}

// evictDerived accounts for the artifacts of evicted entry p, which
// leave the cache with it (caller holds c.mu).
func (c *Cache) evictDerived(p *Program) {
	held := [numKinds]int{kindForm: len(p.forms.cells), kindReport: len(p.reports.cells), kindMeasure: len(p.measures.cells)}
	for k, n := range held {
		c.live[k] -= n
		c.evictions[k] += int64(n)
	}
}

// Program is one compile entry: the compiled program and everything
// derived from it. Its unpinned analysis — the definition trace run with
// no pinned values (analysis.NewUnit) and the static price of that trace
// (analysis.Price) — is built on first use, at most once per entry, and
// shared by every consumer: the cost-admission gate, the prediction
// forms (whose evaluations without pinned values read the unit's trace)
// and /v1/analyze, so a cold program is traced once. Form, Interpret and
// Measure build and memoize the entry's other artifacts without hashing
// the source again. All of it is evicted together with the entry.
type Program struct {
	// Prog is the compiled program (immutable, shared).
	Prog *hir.Program

	c        *Cache
	entry    *cell[*Program]  // this entry's cell in c.programs
	stats    *Stats           // counts analysis builds; may be nil
	analysis *cell[*analyzed] // nil until a build starts or after one panicked (guarded by c.mu)
	forms    table[*core.Compiled]
	reports  table[*core.Report]
	measures table[*exec.Result]
}

type analyzed struct {
	unit  *analysis.Unit
	price *analysis.PriceReport
}

// analyze returns the program's analysis, building it on first use. A
// build that panics returns a *PanicError and keeps nothing, so the next
// caller rebuilds.
func (p *Program) analyze() (*analyzed, error) {
	p.c.mu.Lock()
	if cl := p.analysis; cl != nil {
		p.c.mu.Unlock()
		return cl.wait(context.Background())
	}
	cl := &cell[*analyzed]{done: make(chan struct{})}
	p.analysis = cl
	p.c.mu.Unlock()
	a, err := cl.fill(p.c, "analyze", func() (*analyzed, error) {
		u := analysis.NewUnit(p.Prog)
		return &analyzed{unit: u, price: analysis.Price(u)}, nil
	}, func() { p.analysis = nil })
	if err == nil && p.stats != nil {
		p.stats.Analyses.Add(1)
	}
	return a, err
}

// Unit returns the program's unpinned analysis unit, tracing the
// program on first use. The unit is shared: treat it as read-only.
func (p *Program) Unit() (*analysis.Unit, error) {
	a, err := p.analyze()
	if err != nil {
		return nil, err
	}
	return a.unit, nil
}

// Price returns the static cost estimate of the program's unpinned
// analysis, building the analysis on first use.
func (p *Program) Price() (*analysis.PriceReport, error) {
	a, err := p.analyze()
	if err != nil {
		return nil, err
	}
	return a.price, nil
}

// CacheStats is a point-in-time view of the cache occupancy and its
// eviction counters (served by hpfserve's /metrics). CompileEntries
// counts entries; the other Entries fields count the artifacts of that
// kind held by them. An artifact evicted with its entry counts as an
// eviction of its own kind.
type CacheStats struct {
	Cap              int
	CompileEntries   int
	PredictEntries   int
	ReportEntries    int
	MeasureEntries   int
	CompileEvictions int64
	PredictEvictions int64
	ReportEvictions  int64
	MeasureEvictions int64
}

// CacheStats returns the cache occupancy and eviction counters.
func (c *Cache) CacheStats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Cap:              c.cap,
		CompileEntries:   c.live[kindCompile],
		PredictEntries:   c.live[kindForm],
		ReportEntries:    c.live[kindReport],
		MeasureEntries:   c.live[kindMeasure],
		CompileEvictions: c.evictions[kindCompile],
		PredictEvictions: c.evictions[kindForm],
		ReportEvictions:  c.evictions[kindReport],
		MeasureEvictions: c.evictions[kindMeasure],
	}
}

// srcHash fingerprints source text. Sources are generated per (size,
// procs) point and can be tens of kilobytes; hashing keeps the key map
// small and comparison O(1).
func srcHash(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:16])
}

// compileKey is srcHash + the compile options that affect the produced
// program.
func compileKey(src string, opts compiler.Options) string {
	return fmt.Sprintf("%s|commopt=%t|reorder=%t", srcHash(src), !opts.NoCommOpt, !opts.NoLoopReorder)
}

// predictFingerprint renders the *static* interpretation options — the
// ones core.CompilePrediction binds into the compiled form. Values and
// TripCounts are deliberately excluded: they are per-evaluation inputs
// of Compiled.EvaluateWith, so one cached form serves every combination
// of them.
func predictFingerprint(opts core.Options) string {
	return fmt.Sprintf("mem=%t|load=%d|mask=%g|branch=%g|simple=%t",
		opts.MemoryModel, opts.LoadModel, opts.MaskDensity, opts.BranchProb, opts.SimpleCommModel)
}

// interpFingerprint renders core.Options deterministically. It extends
// the static predict fingerprint with the dynamic inputs (trip counts,
// pinned values), since a whole report is specific to both.
func interpFingerprint(opts core.Options) string {
	var b strings.Builder
	b.WriteString(predictFingerprint(opts))
	if len(opts.TripCounts) > 0 {
		lines := make([]int, 0, len(opts.TripCounts))
		for l := range opts.TripCounts {
			lines = append(lines, l)
		}
		sort.Ints(lines)
		for _, l := range lines {
			fmt.Fprintf(&b, "|trip%d=%d", l, opts.TripCounts[l])
		}
	}
	if len(opts.Values) > 0 {
		names := make([]string, 0, len(opts.Values))
		for n := range opts.Values {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := opts.Values[n]
			fmt.Fprintf(&b, "|val%s=%d:%d:%g:%t", n, v.Type, v.I, v.R, v.B)
		}
	}
	return b.String()
}

// poisoned reports whether a build error must not be memoized:
// cancellations are the requester's failure, and transient failures
// (recovered panics, injected faults) may succeed on rebuild. Only
// deterministic pipeline errors stay cached.
func poisoned(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || IsTransient(err)
}

// recoverToErr converts a panic in the front end or the interpretation
// engine into a typed *PanicError, so one malformed request cannot take
// down a long-running process sharing this cache (hpfserve classifies
// it with errors.As and maps it to HTTP 500). The single-flight
// completion channel must be closed even when the builder panics, or
// waiters would park forever.
func recoverToErr(stage string, err *error) {
	if r := recover(); r != nil {
		*err = &PanicError{Stage: stage, Value: r}
	}
}

// Compile returns the compiled program for (src, opts), running the
// scanner→parser→sem→compiler pipeline at most once per live key.
// Counter updates go to stats (may be nil). A waiter whose ctx ends
// before the build completes returns the ctx error; the build itself
// always runs to completion and stays cached.
func (c *Cache) Compile(ctx context.Context, src string, opts compiler.Options, stats *Stats) (*hir.Program, error) {
	p, err := c.Program(ctx, src, opts, stats)
	if err != nil {
		return nil, err
	}
	return p.Prog, nil
}

// Program is Compile returning the whole compile entry: the program
// and, built on first use, its unpinned analysis and derived artifacts.
// Deterministic compile errors stay cached (they fail identically every
// time); panicked, fault-injected and cancelled builds do not.
func (c *Cache) Program(ctx context.Context, src string, opts compiler.Options, stats *Stats) (*Program, error) {
	return lookup(ctx, c, nil, &c.programs, kindCompile, compileKey(src, opts), stats, func(cl *cell[*Program]) (*Program, error) {
		start := time.Now()
		defer func() {
			if stats != nil {
				stats.Compiles.Add(1)
				stats.CompileNS.Add(int64(time.Since(start)))
			}
		}()
		if err := faults.Fire(faults.SiteCompile); err != nil {
			return nil, err
		}
		prog, err := compiler.CompileWithContext(ctx, src, opts)
		if err != nil {
			return nil, err
		}
		return &Program{Prog: prog, c: c, entry: cl, stats: stats}, nil
	})
}

// CompiledPrediction returns the closure-compiled prediction form for
// (src, copts, static iopts) on the named machine abstraction: the
// compile entry's Form.
func (c *Cache) CompiledPrediction(ctx context.Context, src string, copts compiler.Options, iopts core.Options, machine string, stats *Stats) (*core.Compiled, error) {
	p, err := c.Program(ctx, src, copts, stats)
	if err != nil {
		return nil, err
	}
	return p.Form(ctx, iopts, machine, stats)
}

// Interpret returns the interpretation report for (src, copts, iopts)
// on the named machine abstraction: the compile entry's Interpret.
func (c *Cache) Interpret(ctx context.Context, src string, copts compiler.Options, iopts core.Options, machine string, stats *Stats) (*core.Report, error) {
	p, err := c.Program(ctx, src, copts, stats)
	if err != nil {
		return nil, err
	}
	return p.Interpret(ctx, iopts, machine, stats)
}

// Measure returns the simulated-execution result for (src, copts,
// spec): the compile entry's Measure.
func (c *Cache) Measure(ctx context.Context, src string, copts compiler.Options, spec MeasureSpec, stats *Stats) (*exec.Result, error) {
	p, err := c.Program(ctx, src, copts, stats)
	if err != nil {
		return nil, err
	}
	return p.Measure(ctx, spec, stats)
}

// Form returns the entry's closure-compiled prediction form for the
// static options of iopts on the named machine abstraction ("" =
// iPSC/860 default), built at most once per live key. The form is
// shared and concurrency-safe, so sweeps that vary only
// Values/TripCounts evaluate one form with EvaluateWith.
func (p *Program) Form(ctx context.Context, iopts core.Options, machine string, stats *Stats) (*core.Compiled, error) {
	return lookup(ctx, p.c, p, &p.forms, kindForm, "mach="+machine+"|"+predictFingerprint(iopts), stats, func(*cell[*core.Compiled]) (*core.Compiled, error) {
		return p.buildForm(ctx, iopts, machine)
	})
}

// buildForm resolves the machine abstraction and compiles the
// prediction form over the entry's unpinned analysis unit (one
// calibration + SAAG build + closure compilation; the unit is traced
// here only if nothing, such as admission, has needed it yet).
func (p *Program) buildForm(ctx context.Context, iopts core.Options, machine string) (*core.Compiled, error) {
	u, err := p.Unit()
	if err != nil {
		return nil, err
	}
	var mach *sysmodel.Machine
	if machine != "" {
		mach, err = sysmodel.MachineByName(machine)
		if err != nil {
			return nil, err
		}
	}
	return core.CompilePrediction(ctx, u, mach, iopts)
}

// Interpret returns the entry's interpretation report for iopts on the
// named machine abstraction ("" = iPSC/860 default), memoizing whole
// reports. Every report miss, traced or not, evaluates the entry's
// prediction form. The builder honors ctx: a report whose construction
// was cancelled is dropped so a later request rebuilds it.
func (p *Program) Interpret(ctx context.Context, iopts core.Options, machine string, stats *Stats) (*core.Report, error) {
	return lookup(ctx, p.c, p, &p.reports, kindReport, "mach="+machine+"|"+interpFingerprint(iopts), stats, func(*cell[*core.Report]) (*core.Report, error) {
		if err := faults.Fire(faults.SiteCache); err != nil {
			return nil, err
		}
		return p.interpret(ctx, iopts, machine, stats)
	})
}

// interpret evaluates the prediction form under iopts'
// Values/TripCounts. Its interp span covers the form lookup or build and
// the evaluation; the interpret stage time counts the evaluation only.
func (p *Program) interpret(ctx context.Context, iopts core.Options, machine string, stats *Stats) (*core.Report, error) {
	ictx, span := obs.Start(ctx, "interp")
	defer span.End()
	cp, err := p.Form(ictx, iopts, machine, stats)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rep, err := cp.EvaluateWith(ictx, iopts.Values, iopts.TripCounts)
	if stats != nil {
		stats.Interps.Add(1)
		stats.InterpNS.Add(int64(time.Since(start)))
	}
	if rep != nil {
		span.SetAttrInt("procs", rep.Procs)
	}
	return rep, err
}

// MeasureSpec pins every input of a simulated-execution run. The
// simulator is deterministic for a fixed spec (the noise generator is
// seeded), so (program, spec) fully determines the *exec.Result and
// measurement becomes memoizable — the paper's experimentation loop
// spends almost all of its time here, which is what makes this cache
// the dominant sweep speedup.
type MeasureSpec struct {
	// Machine names the simulated system abstraction ("" = iPSC/860).
	Machine string
	// Runs is the number of perturbed timed runs to average (<= 0 = 1).
	Runs int
	// PerturbAmp is the per-run load-fluctuation amplitude.
	PerturbAmp float64
	// TimerResUS is the timing-routine resolution.
	TimerResUS float64
	// Seed drives the deterministic noise generator.
	Seed int64
	// CacheModel enables the simulator's data-cache miss model.
	CacheModel bool
}

// DefaultMeasureSpec mirrors ipsc.DefaultConfig with the sweep loop's
// two variable knobs: the run count and the perturbation amplitude.
func DefaultMeasureSpec(runs int, perturb float64) MeasureSpec {
	d := ipsc.DefaultConfig(1)
	if runs <= 0 {
		runs = 1
	}
	return MeasureSpec{
		Runs:       runs,
		PerturbAmp: perturb,
		TimerResUS: d.TimerResUS,
		Seed:       d.Seed,
		CacheModel: d.CacheModel,
	}
}

// fingerprint renders the spec deterministically for the cache key.
func (sp MeasureSpec) fingerprint() string {
	return fmt.Sprintf("mach=%s|runs=%d|amp=%g|timer=%g|seed=%d|cache=%t",
		sp.Machine, sp.Runs, sp.PerturbAmp, sp.TimerResUS, sp.Seed, sp.CacheModel)
}

// Measure returns the entry's simulated-execution result for spec,
// running the simulator at most once per live key. Results are shared
// and must be treated as immutable by callers. A cancelled, panicked or
// fault-injected run is dropped so a later request re-executes it.
func (p *Program) Measure(ctx context.Context, spec MeasureSpec, stats *Stats) (*exec.Result, error) {
	if spec.Runs <= 0 {
		spec.Runs = 1 // normalize before keying so runs=0 and runs=1 share
	}
	return lookup(ctx, p.c, p, &p.measures, kindMeasure, spec.fingerprint(), stats, func(*cell[*exec.Result]) (*exec.Result, error) {
		return runExec(ctx, p.Prog, spec, stats)
	})
}

// runExec builds the simulated machine for spec and executes prog on it.
func runExec(ctx context.Context, prog *hir.Program, spec MeasureSpec, stats *Stats) (*exec.Result, error) {
	// The VM only polls ctx every few thousand statements; a small
	// program can finish before the first poll. Check upfront so an
	// already-dead request never executes (and never caches).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := ipsc.DefaultConfig(prog.Info.Grid.Size())
	if spec.Machine != "" {
		base, err := sysmodel.MachineByName(spec.Machine)
		if err != nil {
			return nil, err
		}
		cfg.Base = base
	}
	cfg.PerturbAmp = spec.PerturbAmp
	cfg.TimerResUS = spec.TimerResUS
	cfg.Seed = spec.Seed
	cfg.CacheModel = spec.CacheModel
	m, err := ipsc.New(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := exec.RunContext(ctx, prog, m, exec.Options{Runs: spec.Runs})
	if stats != nil {
		stats.Execs.Add(1)
		stats.ExecNS.Add(int64(time.Since(start)))
	}
	return res, err
}

// cacheSpan records one cache probe as an instant cache.lookup span.
// No-op (one nil check inside Start) when the context is untraced.
func cacheSpan(ctx context.Context, kindName, key, outcome string) {
	_, s := obs.Start(ctx, "cache.lookup")
	if s == nil {
		return
	}
	s.SetAttr("kind", kindName)
	s.SetAttr("outcome", outcome)
	if len(key) > 32 {
		key = key[:32]
	}
	s.SetAttr("key", key)
	s.End()
}

// Len reports how many compile entries the cache holds (for tests and
// diagnostics).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.programs.cells)
}
