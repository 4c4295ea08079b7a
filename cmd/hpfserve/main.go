// Command hpfserve runs the HPF/Fortran 90D performance-interpretation
// framework as a long-running HTTP/JSON service: POST /v1/predict
// interprets a program, /v1/measure executes it on the simulated
// iPSC/860, /v1/autotune searches directive variants; GET /healthz and
// /metrics expose liveness and counters. Recent request traces are
// served at GET /v1/traces on the isolated -debug-addr listener, next
// to pprof. POST /v1/batch evaluates many predict/measure points in one
// request — points sharing a source share one compile, failures are
// isolated per point, and the whole batch is cost-priced once through
// the admission gate. With -jobs-dir, POST /v1/jobs accepts durable async jobs
// recorded in a crash-safe write-ahead journal: a killed server resumes
// unfinished jobs from their last checkpoint on restart, and a graceful
// SIGTERM hands running jobs back to the queue for the next generation.
// GET /v1/jobs/{id}/events streams each job's state transitions and
// checkpoint progress as server-sent events, with Last-Event-ID resume.
// Requests share one bounded worker pool and one bounded LRU cache of
// compiled programs, each holding the artifacts derived from it; they
// honor per-request deadlines and drain gracefully on SIGINT/SIGTERM.
//
// Usage:
//
//	hpfserve -addr :8080
//	curl -s localhost:8080/v1/predict -d '{"source":"..."}'
//	curl -s localhost:8080/v1/predict -H 'X-HPF-Trace: 1' -d '{"source":"..."}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hpfperf/internal/faults"
	"hpfperf/internal/jobs"
	"hpfperf/internal/obs"
	"hpfperf/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
		cacheSize  = flag.Int("cache", 0, "LRU cache capacity in compiled programs, each holding its derived artifacts (0 = default)")
		maxBody    = flag.Int64("max-body", 1<<20, "request body size cap in bytes")
		maxConc    = flag.Int("max-concurrent", 0, "simultaneous request cap (0 = 4x workers)")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-request timeout")
		maxTimeout = flag.Duration("max-timeout", 5*time.Minute, "upper bound on client-requested timeouts")
		drain      = flag.Duration("drain", 30*time.Second, "shutdown drain budget for in-flight requests")
		quiet      = flag.Bool("quiet", false, "suppress request logging")
		logLevel   = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		queueWait  = flag.Duration("queue-wait", 0, "how long a request may wait for a worker slot before being shed (0 = 10s)")
		queueDepth = flag.Int("queue-depth", 0, "waiting requests admitted before immediate shedding (0 = 4x max-concurrent)")
		maxCost    = flag.Float64("max-cost-units", 0, "per-request static cost ceiling; over-budget predict/measure requests get 429 with the estimate (0 = unlimited)")
		maxInCost  = flag.Float64("max-inflight-cost-units", 0, "aggregate static cost budget for admitted in-flight requests (0 = unlimited)")
		traceAll   = flag.Bool("trace-all", false, "trace every request into the /v1/traces ring (clients still opt into inline trees with X-HPF-Trace: 1)")
		traceRing  = flag.Int("trace-ring", 0, "traces retained for GET /v1/traces on the debug listener (0 = 64)")
		debugAddr  = flag.String("debug-addr", "", "optional second listen address serving net/http/pprof and GET /v1/traces (e.g. localhost:6060); never expose publicly")
		chaos      = flag.String("chaos", "", "fault-injection spec site:rate[:kind[:delay]],... (default from HPFPERF_FAULTS; kinds: error, panic, delay)")
		chaosSeed  = flag.Int64("chaos-seed", 1, "deterministic seed for fault injection decisions")
		maxBatch   = flag.Int("max-batch-points", 0, "points accepted in one POST /v1/batch request (0 = 1024)")
		sseHB      = flag.Duration("sse-heartbeat", 0, "idle heartbeat interval of GET /v1/jobs/{id}/events streams (0 = 15s)")

		jobsDir        = flag.String("jobs-dir", "", "enable durable async jobs (POST /v1/jobs): WAL journal and sweep checkpoints live here; a restarted server resumes unfinished jobs from this directory")
		jobsWorkers    = flag.Int("jobs-workers", 0, "job executor pool size (0 = 2)")
		jobsRetain     = flag.Int("jobs-retain", 0, "finished jobs kept for GET /v1/jobs before retention drops the oldest (0 = 256)")
		jobsRetainAge  = flag.Duration("jobs-retain-age", 0, "finished jobs older than this are dropped at compaction (0 = 24h)")
		jobsMaxJournal = flag.Int64("jobs-max-journal", 0, "journal segment bytes that trigger compaction (0 = 4MiB)")
		jobsMaxSubs    = flag.Int("jobs-max-streams", 0, "live job event streams admitted across all jobs; further GET /v1/jobs/{id}/events requests get 429 and clients fall back to polling (0 = 128)")
		jobsMaxEvents  = flag.Int("jobs-max-events", 0, "state-transition events retained per job for Last-Event-ID replay (0 = 1024)")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpfserve:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)
	var reqLog *slog.Logger
	if !*quiet {
		reqLog = logger
	}

	spec := *chaos
	if spec == "" {
		spec = os.Getenv("HPFPERF_FAULTS")
	}
	if spec != "" {
		inj, err := faults.Parse(spec, *chaosSeed)
		if err != nil {
			logger.Error("chaos spec invalid", "err", err.Error())
			os.Exit(1)
		}
		faults.Activate(inj)
		logger.Warn("CHAOS MODE: injecting faults — not for production use", "spec", spec, "seed", *chaosSeed)
	}

	srv := server.New(server.Config{
		Workers:              *workers,
		CacheEntries:         *cacheSize,
		MaxBodyBytes:         *maxBody,
		MaxConcurrent:        *maxConc,
		DefaultTimeout:       *timeout,
		MaxTimeout:           *maxTimeout,
		QueueWait:            *queueWait,
		MaxQueueDepth:        *queueDepth,
		MaxCostUnits:         *maxCost,
		MaxInflightCostUnits: *maxInCost,
		MaxBatchPoints:       *maxBatch,
		SSEHeartbeat:         *sseHB,
		Log:                  reqLog,
		TraceAll:             *traceAll,
		TraceRing:            *traceRing,
	})

	if *jobsDir != "" {
		if err := srv.OpenJobs(jobs.Config{
			Dir:             *jobsDir,
			Workers:         *jobsWorkers,
			RetainTerminal:  *jobsRetain,
			RetainAge:       *jobsRetainAge,
			MaxJournalBytes: *jobsMaxJournal,
			MaxSubscribers:  *jobsMaxSubs,
			MaxEventsPerJob: *jobsMaxEvents,
			Log:             logger,
		}); err != nil {
			logger.Error("jobs journal open failed", "dir", *jobsDir, "err", err.Error())
			os.Exit(1)
		}
		jm := srv.Jobs().Metrics()
		logger.Info("durable jobs enabled",
			"dir", *jobsDir,
			"replayed", jm.ReplayRecords,
			"truncated", jm.ReplayTruncations,
			"resumed", jm.ResumedTotal,
			"recovery_seconds", fmt.Sprintf("%.3f", jm.RecoverySeconds))
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *debugAddr != "" {
		// pprof and the trace ring ride a dedicated mux on a dedicated
		// listener: both expose internals (profiles; every request's
		// route, timing and span attributes), so neither ever shares an
		// address with the public API.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg.Handle("/v1/traces", srv.TracesHandler())
		dbgSrv := &http.Server{Addr: *debugAddr, Handler: dbg, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err.Error())
			}
		}()
		logger.Info("debug listener up (pprof, /v1/traces)", "addr", *debugAddr)
	} else if *traceAll {
		logger.Warn("-trace-all set without -debug-addr: traces fill the ring but GET /v1/traces is unreachable")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "workers", srv.Engine().Workers(), "trace_all", *traceAll)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "err", err.Error())
			os.Exit(1)
		}
	case <-ctx.Done():
	}

	logger.Info("shutting down; draining in-flight requests", "budget", drain.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Warn("drain incomplete", "err", err.Error())
	}
	if *jobsDir != "" {
		jm := srv.Jobs().Metrics()
		logger.Info("jobs drained", "handed_off", jm.HandoffTotal, "done", jm.DoneTotal)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Warn("http shutdown", "err", err.Error())
	}
	snap := srv.Engine().Snapshot()
	fmt.Fprintf(os.Stderr, "%s\n", snap)
	logger.Info("bye")
}
