package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"hpfperf/internal/dist"
	"hpfperf/internal/faults"
	"hpfperf/internal/hir"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/obs"
	"hpfperf/internal/sem"
)

// Options controls program execution.
type Options struct {
	// Runs is the number of independently perturbed timed runs to average
	// (the paper averaged 1000 measured runs; a handful reproduces the
	// same statistics on the deterministic simulator). Default 1.
	Runs int
	// MaxSteps bounds statement executions as a runaway guard.
	MaxSteps int64
	// Sequential forces the timed runs to execute one after another on a
	// single goroutine (they run concurrently by default when Runs > 1;
	// results are identical either way — each run gets its own
	// deterministically seeded machine clone).
	Sequential bool
}

// Result of executing a program on the simulated machine.
type Result struct {
	// MeasuredUS is the mean measured completion time in microseconds.
	MeasuredUS float64
	// RunsUS holds the per-run measured times.
	RunsUS []float64
	// PerNodeUS holds the final clock of every node (last run).
	PerNodeUS []float64
	// Printed collects list-directed output lines.
	Printed []string
	// Stats holds simulator counters from the last run.
	Stats ipsc.Stats
	// Steps is the number of executed statements (last run).
	Steps int64
}

// VM is the state of one timed run: the machine clone, the program's
// storage and the run's counters. Every mutable thing a lowered closure
// touches belongs to exactly one VM, so concurrent runs share nothing
// but the read-only program.
type VM struct {
	prog    *hir.Program
	mach    *ipsc.Machine
	ctx     context.Context
	parts   *partitions
	arrays  map[string]*array
	slots   map[string]*slot
	costs   map[hir.Stmt]*stCost
	printed []string
	steps   int64
	maxStep int64
	line    int // source line of the statement executing now
}

// Run compiles-in and executes the program, averaging opts.Runs timed runs.
func Run(prog *hir.Program, mach *ipsc.Machine, opts Options) (*Result, error) {
	return RunContext(context.Background(), prog, mach, opts)
}

// RunContext is Run with cooperative cancellation: the statement loop
// checks ctx every ctxCheckSteps executed statements, so a cancelled or
// timed-out request escapes a long simulation mid-sweep instead of
// running it to completion.
func RunContext(ctx context.Context, prog *hir.Program, mach *ipsc.Machine, opts Options) (*Result, error) {
	if opts.Runs <= 0 {
		opts.Runs = 1
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 2_000_000_000
	}
	_, span := obs.Start(ctx, "exec.vm")
	defer span.End()
	span.SetAttrInt("runs", opts.Runs)
	grid := prog.Info.Grid
	span.SetAttrInt("procs", grid.Size())
	if grid.Size() != mach.Nodes() {
		return nil, fmt.Errorf("exec: program grid %s has %d processors but machine has %d nodes",
			grid, grid.Size(), mach.Nodes())
	}
	res := &Result{}
	res.RunsUS = make([]float64, opts.Runs)

	type runOut struct {
		vm  *VM
		err error
	}
	outs := make([]runOut, opts.Runs)
	oneRun := func(run int) {
		m := mach.CloneForRun(run)
		vm := newVM(ctx, prog, m, opts.MaxSteps)
		if err := vm.run(); err != nil {
			outs[run] = runOut{err: err}
			return
		}
		res.RunsUS[run] = m.MeasuredTimeUS()
		outs[run] = runOut{vm: vm}
	}
	if opts.Sequential || opts.Runs == 1 {
		for run := 0; run < opts.Runs; run++ {
			oneRun(run)
		}
	} else {
		// Timed runs are independent: fan them out, bounded by the CPU
		// count (share memory by communicating completion, not state).
		sem := make(chan struct{}, maxParallel())
		var wg sync.WaitGroup
		for run := 0; run < opts.Runs; run++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(run int) {
				defer wg.Done()
				defer func() { <-sem }()
				oneRun(run)
			}(run)
		}
		wg.Wait()
	}
	var vm *VM
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		vm = o.vm
	}
	for _, t := range res.RunsUS {
		res.MeasuredUS += t / float64(opts.Runs)
	}
	res.PerNodeUS = make([]float64, mach.Nodes())
	for r := 0; r < mach.Nodes(); r++ {
		res.PerNodeUS[r] = vm.mach.Time(r)
	}
	res.Printed = vm.printed
	res.Stats = vm.mach.Stats
	res.Steps = vm.steps
	return res, nil
}

func maxParallel() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// newVM allocates the storage of one timed run on machine m.
func newVM(ctx context.Context, prog *hir.Program, m *ipsc.Machine, maxSteps int64) *VM {
	vm := &VM{
		prog:    prog,
		mach:    m,
		ctx:     ctx,
		parts:   newPartitions(prog.Info.Grid),
		arrays:  make(map[string]*array),
		slots:   make(map[string]*slot),
		maxStep: maxSteps,
	}
	for name, sym := range prog.Info.Symbols {
		if sym.Kind == sem.SymArray {
			vm.arrays[name] = newArray(name, sym.Type, sym.Bounds)
		}
	}
	return vm
}

// run lowers the program and executes it once. Runtime errors unwind the
// lowered closures as an abort panic and come back here as the error;
// any other panic passes through unchanged.
func (vm *VM) run() (err error) {
	vm.analyzeCosts()
	body := vm.lowerBlock(vm.prog.Body)
	defer func() {
		if p := recover(); p != nil {
			a, ok := p.(abort)
			if !ok {
				panic(p)
			}
			err = a.err
		}
	}()
	body(freePC)
	return nil
}

// abort carries the error that ends a run out of the lowered closures.
type abort struct{ err error }

// runtimeError is an execution error with source line context.
type runtimeError struct {
	line int
	msg  string
}

func (e *runtimeError) Error() string {
	if e.line > 0 {
		return fmt.Sprintf("runtime error at line %d: %s", e.line, e.msg)
	}
	return "runtime error: " + e.msg
}

// fail aborts the run with a runtime error at the current line.
func (vm *VM) fail(format string, args ...any) {
	panic(abort{&runtimeError{line: vm.line, msg: fmt.Sprintf(format, args...)}})
}

// ctxCheckSteps is how many executed statements may pass between
// cooperative cancellation checks; at simulator speeds this bounds
// cancellation latency well below a millisecond.
const ctxCheckSteps = 1024

// enter starts the execution of the statement at line: it becomes the
// line runtime errors name, and it counts as one step.
func (vm *VM) enter(line int) {
	vm.line = line
	vm.tick()
}

// tick counts one executed step (a statement or a loop iteration).
func (vm *VM) tick() {
	vm.steps++
	if vm.steps > vm.maxStep || vm.steps%ctxCheckSteps == 0 {
		vm.poll()
	}
}

// poll enforces the step budget and, every ctxCheckSteps steps, checks
// for cancellation.
func (vm *VM) poll() {
	if vm.steps > vm.maxStep {
		vm.fail("execution exceeded %d statements (runaway loop?)", vm.maxStep)
	}
	if err := vm.ctx.Err(); err != nil {
		panic(abort{err})
	}
	// Chaos hook: shares the stride so the statement loop stays at one
	// modulo per statement when chaos is off.
	if err := faults.Fire(faults.SiteExec); err != nil {
		panic(abort{err})
	}
}

// charge adds cycles to every rank selected by partition context pc, in
// ascending rank order.
func (vm *VM) charge(pc int, cycles float64) {
	if cycles == 0 {
		return
	}
	for _, r := range vm.parts.ranksOf(pc) {
		vm.mach.Compute(r, cycles)
	}
}

// freePC is the unconstrained partition context: every rank executes.
const freePC = 0

// partitions numbers the partition contexts of a processor grid. A
// context constrains each grid dimension to one coordinate or leaves it
// free. It is encoded in mixed radix with one digit per grid dimension,
// coordinate+1 or 0 for free, so context 0 (freePC) selects every rank
// and a partitioned loop rewrites one digit per iteration. The ranks a
// context selects are listed, ascending, on first use.
type partitions struct {
	shape  []int
	radix  []int
	coords [][]int // grid coordinates of every rank
	ranks  [][]int // selected ranks per context; nil until first use
}

func newPartitions(g *dist.Grid) *partitions {
	p := &partitions{shape: g.Shape, radix: make([]int, len(g.Shape)), coords: make([][]int, g.Size())}
	n := 1
	for d, e := range g.Shape {
		p.radix[d] = n
		n *= e + 1
	}
	p.ranks = make([][]int, n)
	for r := range p.coords {
		p.coords[r] = g.Coords(r)
	}
	return p
}

// with returns context pc with grid dimension d constrained to
// coordinate c.
func (p *partitions) with(pc, d, c int) int {
	rad := p.radix[d]
	return pc + (c+1-pc/rad%(p.shape[d]+1))*rad
}

// ranksOf lists the ranks context pc selects, in ascending order.
func (p *partitions) ranksOf(pc int) []int {
	if rs := p.ranks[pc]; rs != nil {
		return rs
	}
	rs := []int{}
ranks:
	for r, c := range p.coords {
		for d, rad := range p.radix {
			if want := pc/rad%(p.shape[d]+1) - 1; want >= 0 && c[d] != want {
				continue ranks
			}
		}
		rs = append(rs, r)
	}
	p.ranks[pc] = rs
	return rs
}
