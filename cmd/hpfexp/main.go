// Command hpfexp regenerates the paper's evaluation artifacts: Table 2
// and Figures 3, 4, 5, 7 and 8 (§5). With -all it reproduces everything;
// individual flags select single artifacts. -quick runs reduced sweeps.
// With -server and -submit the selected artifact runs as a durable
// async job on an hpfserve instance instead of in-process; -job ID
// re-attaches to a submitted job, surviving client and server restarts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hpfperf/internal/experiments"
	"hpfperf/internal/faults"
	"hpfperf/internal/obs"
	"hpfperf/internal/sweep"
)

func main() {
	var (
		all     = flag.Bool("all", false, "regenerate every table and figure")
		table2  = flag.Bool("table2", false, "Table 2: prediction accuracy")
		fig3    = flag.Bool("fig3", false, "Figure 3: Laplace data distributions")
		fig4    = flag.Bool("fig4", false, "Figure 4: Laplace est/meas times, 4 procs")
		fig5    = flag.Bool("fig5", false, "Figure 5: Laplace est/meas times, 8 procs")
		fig7    = flag.Bool("fig7", false, "Figure 7: financial model phase profile")
		fig8    = flag.Bool("fig8", false, "Figure 8: experimentation time")
		abl     = flag.Bool("ablations", false, "model design-choice ablation table")
		quick   = flag.Bool("quick", false, "reduced sweeps (smoke run)")
		runs    = flag.Int("runs", 3, "measured runs to average")
		quiet   = flag.Bool("quiet", false, "suppress progress logging")
		workers = flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
		stats   = flag.Bool("stats", false, "print sweep engine statistics (compile/interpret/execute counters, cache hits/misses, points/sec) to stderr")
		ckpt    = flag.String("checkpoint", "", "directory for sweep checkpoints; a killed run resumes from completed points")
		spanOut = flag.String("trace-out", "", "write the run's observability span tree as JSON to this file (render with hpftrace -spans)")

		serverURL = flag.String("server", "", "hpfserve base URL (e.g. http://localhost:8080); -submit and -job run against it instead of in-process")
		submit    = flag.Bool("submit", false, "submit the selected artifact (one of -table2/-fig4/-fig5/-fig7/-fig8) as a durable async job on -server")
		jobID     = flag.String("job", "", "re-attach to an existing job on -server by ID")
		wait      = flag.Bool("wait", true, "with -submit/-job: block until the job is terminal and print its output (-wait=false prints the job ID or a status snapshot)")
	)
	flag.Parse()

	if *submit || *jobID != "" {
		if *serverURL == "" {
			fmt.Fprintln(os.Stderr, "hpfexp: -submit/-job require -server")
			os.Exit(2)
		}
		artifact := ""
		if *jobID == "" {
			var err error
			artifact, err = selectArtifact(map[string]bool{
				"table2": *table2, "fig4": *fig4, "fig5": *fig5, "fig7": *fig7, "fig8": *fig8,
			})
			check(err)
		}
		check(runRemote(*serverURL, artifact, *quick, *runs, *jobID, *wait))
		return
	}

	if !(*all || *table2 || *fig3 || *fig4 || *fig5 || *fig7 || *fig8 || *abl) {
		flag.Usage()
		os.Exit(2)
	}

	// HPFPERF_FAULTS activates deterministic fault injection (chaos
	// testing of sweeps, retries and checkpoint/resume).
	if spec := os.Getenv("HPFPERF_FAULTS"); spec != "" {
		inj, err := faults.Parse(spec, 1)
		check(err)
		faults.Activate(inj)
		fmt.Fprintf(os.Stderr, "hpfexp: CHAOS MODE: injecting faults (%s)\n", spec)
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Runs = *runs
	cfg.CheckpointDir = *ckpt
	if !*quiet {
		cfg.Log = os.Stderr
	}
	eng := sweep.New(sweep.Options{Workers: *workers})
	cfg.Engine = eng
	if *spanOut != "" {
		tracer := obs.NewTracer(obs.NewTraceID())
		root := tracer.Root("hpfexp")
		cfg.Ctx = obs.ContextWithSpan(context.Background(), root)
		// Registered, not deferred: check() exits via os.Exit, which
		// skips defers, and a failing experiment is exactly when the
		// partial span tree matters. check runs the cleanups itself.
		atExit(func() { writeSpanTree(*spanOut, tracer, root) })
		defer runAtExit()
	}

	if *all || *fig3 {
		out, err := experiments.Figure3(cfg)
		check(err)
		fmt.Println(out)
	}
	if *all || *table2 {
		rows, err := experiments.Table2(cfg)
		check(err)
		fmt.Println(experiments.RenderTable2(rows))
		fmt.Println()
	}
	if *all || *fig4 {
		series, err := experiments.Figure45(4, cfg)
		check(err)
		fmt.Println(experiments.RenderFigure45(4, 4, series))
		fmt.Println()
	}
	if *all || *fig5 {
		series, err := experiments.Figure45(8, cfg)
		check(err)
		fmt.Println(experiments.RenderFigure45(5, 8, series))
		fmt.Println()
	}
	if *all || *fig7 {
		phases, err := experiments.Figure7(cfg)
		check(err)
		fmt.Println(experiments.RenderFigure7(phases))
		fmt.Println()
	}
	if *all || *fig8 {
		times, err := experiments.Figure8(cfg)
		check(err)
		fmt.Println(experiments.RenderFigure8(times))
		fmt.Println()
	}
	if *all || *abl {
		rows, err := experiments.Ablations(cfg)
		check(err)
		fmt.Println(experiments.RenderAblations(rows))
	}
	if *stats {
		fmt.Fprintln(os.Stderr, eng.Snapshot())
	}
}

// writeSpanTree closes the root span and dumps the tracer's tree as
// JSON — the format hpftrace -spans reads back.
func writeSpanTree(path string, tracer *obs.Tracer, root *obs.Span) {
	root.End()
	f, err := os.Create(path)
	check(err)
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	check(enc.Encode(tracer.Tree()))
	fmt.Fprintf(os.Stderr, "span tree written to %s\n", path)
}

// exitFns are cleanups that must run on both the normal return path
// (via the deferred runAtExit) and the check() failure path (os.Exit
// skips defers, so check invokes runAtExit itself).
var exitFns []func()

func atExit(f func()) { exitFns = append(exitFns, f) }

// runAtExit runs and clears the registered cleanups; clearing first
// makes it idempotent and breaks recursion when a cleanup itself
// fails its check.
func runAtExit() {
	fns := exitFns
	exitFns = nil
	for _, f := range fns {
		f()
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpfexp:", err)
		runAtExit()
		os.Exit(1)
	}
}
