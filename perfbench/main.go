// Command perfbench is the repository benchmark. It drives hpfserve's
// HTTP handler in-process with httptest request/recorder pairs — the
// full mux → api() → decode → admission → sweep engine → encode path,
// without a TCP stack — from one closed-loop caller, on one of three
// workloads whose inputs it generates from --seed. It checks the
// responses, prints every metric by name with its unit and sample count,
// and ends its standard output with one JSON line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"<name>":{"value":v,"unit":"u"}}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the per-layer
// run, which replays every op's stages through each layer's public entry
// point and reports self time, calls and allocations per layer. See
// README.md. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload predict-cold --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	// warmUp is how long the workload runs untimed before the timed
	// phase, so the heap, the collector's pacing and the CPU settle.
	warmUp time.Duration
	trace  bool
	// spansOut is where a traced run writes its spans as JSON lines.
	spansOut string
	// setups is how many times the run sets up; setup_s is their median.
	setups int
	// size scales the inputs down for the smoke test: programs per
	// fresh server on predict-cold, suite programs in the grid on
	// predict-hot and table2-batch. 0 selects the full workload.
	size int
	// corruptRef perturbs the reference values the correctness checks
	// compare against, so a test can prove the checks fail.
	corruptRef bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line that ends a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{setups: 21, warmUp: 2 * time.Second}
	fs.StringVar(&cfg.workload, "workload", "", "predict-cold, predict-hot or table2-batch")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 runs the per-layer traced run instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *traced == 1
	cfg.spansOut = filepath.Join(".bench_build", "spans", cfg.workload+".jsonl")
	res, err := runBench(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness check failed")
		return 1
	}
	return 0
}

// runBench sets the workload up cfg.setups times, runs the timed phase
// (untraced, or half untraced and half traced), checks the outputs and
// returns the result; the human-readable report goes to out.
func runBench(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	setups := make([]float64, 0, cfg.setups)
	setupCPU := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		start, cpu := time.Now(), cpuTime()
		if err := w.setup(ctx, tr); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		setupCPU = append(setupCPU, (cpuTime() - cpu).Seconds())
	}

	res := &result{Metrics: make(map[string]metric)}
	fmt.Fprintf(out, "perfbench %s seed=%d trace=%t: %s\n", cfg.workload, cfg.seed, cfg.trace, w.describe())
	warm := measure(ctx, w, cfg.warmUp, 0, nil)
	phases := []*phase{warm}
	if !cfg.trace {
		p := measure(ctx, w, cfg.seconds, warm.calls, nil)
		phases = append(phases, p)
		endToEnd(res, p, setups, setupCPU, out)
	} else {
		w.base().beginPhase()
		a := measure(ctx, w, cfg.seconds/2, warm.calls, nil)
		counts := w.base().endPhase()
		b := measure(ctx, w, cfg.seconds/2, warm.calls+a.calls, tr)
		phases = append(phases, a, b)
		perLayer(res, w, tr, a, b, counts, len(setups), out)
		if err := tr.write(cfg.spansOut); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "  spans: %d written to %s\n", len(tr.spans), cfg.spansOut)
	}

	for _, p := range phases {
		res.Attempted += p.points
		res.Failed += p.failed
	}
	failed, problems := w.check(ctx)
	res.Failed += failed
	for _, p := range problems {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", p)
	}
	res.Correct = res.Failed == 0 && len(problems) == 0
	fmt.Fprintf(out, "  attempted=%d failed=%d correct=%t\n", res.Attempted, res.Failed, res.Correct)
	return res, nil
}

// endToEnd fills the end-to-end metrics of an untraced run.
func endToEnd(res *result, p *phase, setups, setupCPU []float64, out io.Writer) {
	n := float64(p.points)
	add := func(name, unit string, v float64, samples string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Fprintf(out, "  %-16s %14.6g %-6s %s\n", name, v, unit, samples)
	}
	ops := fmt.Sprintf("n=%d ops in %d calls, %.2f s; %d inputs, median of %d call cycles each (ops/wall time: %.6g)",
		p.points, p.calls, p.wall.Seconds(), len(p.cycles), p.cyclesPerInput(), n/p.wall.Seconds())
	lat := fmt.Sprintf("n=%d samples", p.lat.n)
	if p.lat.n > int64(len(p.lat.xs)) {
		lat += fmt.Sprintf(" (quantile of a uniform sample of %d)", len(p.lat.xs))
	}
	add("ops_per_s", "ops/s", p.rate(), ops)
	add("latency_p50_ms", "ms", ms(quantile(p.lat.xs, 0.50)), lat)
	add("latency_p90_ms", "ms", ms(quantile(p.lat.xs, 0.90)), lat)
	add("cpu_ms_per_op", "ms", ms(p.cpuPerOp()), fmt.Sprintf("n=%d ops; median of %d slices (mean %.6g)", p.points, len(p.slices), ms(p.cpu)/n))
	add("peak_rss_mb", "MB", p.peakRSS(), fmt.Sprintf("n=%d slices; p90 of each slice's VmHWM", len(p.slices)))
	add("setup_s", "s", median(setups), fmt.Sprintf("n=%d set-ups (median; process CPU %.6g s)", len(setups), median(setupCPU)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (xs is sorted in place).
func quantile[T ~int64 | ~float64](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + T((pos-float64(lo))*float64(xs[lo+1]-xs[lo]))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
