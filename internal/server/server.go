package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"hpfperf/internal/analysis"
	"hpfperf/internal/autotune"
	"hpfperf/internal/compiler"
	"hpfperf/internal/faults"
	"hpfperf/internal/hir"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/jobs"
	"hpfperf/internal/obs"
	"hpfperf/internal/report"
	"hpfperf/internal/sweep"
	"hpfperf/internal/sysmodel"
)

// Config configures a Server.
type Config struct {
	// Engine evaluates requests (worker pool + bounded cache); nil
	// creates a private engine with CacheEntries capacity.
	Engine *sweep.Engine
	// CacheEntries bounds the compile entries of the private engine's
	// LRU cache (<= 0 uses sweep.DefaultCacheEntries); each entry holds
	// the forms, reports and measurements derived from its program.
	// Ignored when Engine is set.
	CacheEntries int
	// Workers bounds the private engine's pool (<= 0 = GOMAXPROCS).
	// Ignored when Engine is set.
	Workers int
	// MaxBodyBytes caps request body size (<= 0 = 1 MiB).
	MaxBodyBytes int64
	// MaxConcurrent bounds requests evaluated simultaneously; further
	// requests join a bounded wait queue (<= 0 = 4×workers).
	MaxConcurrent int
	// QueueWait bounds how long a request may wait for a worker slot
	// before being shed with 429 + Retry-After (<= 0 = 10s).
	QueueWait time.Duration
	// MaxQueueDepth bounds how many requests may wait for a slot at
	// once; beyond it requests are shed immediately with 429
	// (<= 0 = 4×MaxConcurrent).
	MaxQueueDepth int
	// MaxCostUnits caps the static cost pre-estimate (analysis.Price) of
	// a single predict/measure request; over-budget programs are rejected
	// with 429 carrying the estimate before any interpretation sweep runs
	// (0 = no per-request cost limit).
	MaxCostUnits float64
	// MaxInflightCostUnits bounds the summed static cost of admitted
	// in-flight predict/measure requests — the priced variant of the
	// bounded queue: cheap requests keep flowing while one expensive
	// request is in flight, and expensive ones queue on cost rather than
	// raw concurrency (0 = no aggregate cost budget). A request is always
	// admitted when no priced work is in flight, so a single request
	// larger than the budget cannot starve.
	MaxInflightCostUnits float64
	// MaxBatchPoints caps how many points one POST /v1/batch request may
	// carry (<= 0 = 1024). Larger tables should split; each sub-batch
	// still shares compiles through the engine cache.
	MaxBatchPoints int
	// SSEHeartbeat is the idle-comment interval of the
	// GET /v1/jobs/{id}/events stream, keeping proxies from timing the
	// connection out between state transitions (<= 0 = 15s).
	SSEHeartbeat time.Duration
	// DefaultTimeout applies when a request carries no timeout_ms
	// (<= 0 = 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (<= 0 = 5m).
	MaxTimeout time.Duration
	// Log receives structured request logs (nil = silent). Request logs
	// carry request_id and trace_id attributes for correlation with
	// traced responses and /v1/traces.
	Log *slog.Logger
	// TraceAll forces tracing of every request, as if each carried
	// X-HPF-Trace: 1 (the span tree is still only inlined in responses
	// to requests that asked for it; forced traces land in the ring).
	TraceAll bool
	// TraceRing bounds the /v1/traces ring buffer (<= 0 = 64).
	TraceRing int
	// ExposeTraces also serves GET /v1/traces on the public API mux.
	// Off by default: traces expose every request's route, timing and
	// span attributes, so like pprof they belong on the isolated debug
	// listener (TracesHandler / hpfserve -debug-addr).
	ExposeTraces bool
}

// Server is the hpfserve HTTP API. Create with New, expose with
// Handler, and drain with Shutdown before process exit.
type Server struct {
	cfg  Config
	eng  *sweep.Engine
	mux  *http.ServeMux
	sem  chan struct{}
	met  *metrics
	ring *obs.Ring     // last N request traces (GET /v1/traces)
	jobs *jobs.Manager // durable async jobs; nil until OpenJobs

	inflight sync.WaitGroup
	drainMu  sync.RWMutex // orders the drain check and inflight.Add before Shutdown's Wait
	draining bool         // guarded by drainMu
}

const (
	routePredict  = "predict"
	routeMeasure  = "measure"
	routeAutotune = "autotune"
	routeAnalyze  = "analyze"
	routeBatch    = "batch"
	routeJobs     = "jobs"
	routeEvents   = "jobs_events"
)

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	eng := cfg.Engine
	if eng == nil {
		eng = sweep.New(sweep.Options{
			Workers: cfg.Workers,
			Cache:   sweep.NewCacheSize(cfg.CacheEntries),
		})
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4 * eng.Workers()
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = 10 * time.Second
	}
	if cfg.MaxQueueDepth <= 0 {
		cfg.MaxQueueDepth = 4 * cfg.MaxConcurrent
	}
	if cfg.TraceRing <= 0 {
		cfg.TraceRing = 64
	}
	if cfg.MaxBatchPoints <= 0 {
		cfg.MaxBatchPoints = 1024
	}
	if cfg.SSEHeartbeat <= 0 {
		cfg.SSEHeartbeat = 15 * time.Second
	}
	routes := []string{routePredict, routeMeasure, routeAutotune, routeAnalyze, routeBatch, routeJobs, routeEvents}
	s := &Server{
		cfg:  cfg,
		eng:  eng,
		mux:  http.NewServeMux(),
		sem:  make(chan struct{}, cfg.MaxConcurrent),
		met:  newMetrics(routes),
		ring: obs.NewRing(cfg.TraceRing),
	}
	s.mux.HandleFunc("/v1/predict", s.api(routePredict, s.handlePredict))
	s.mux.HandleFunc("/v1/measure", s.api(routeMeasure, s.handleMeasure))
	s.mux.HandleFunc("/v1/autotune", s.api(routeAutotune, s.handleAutotune))
	s.mux.HandleFunc("/v1/analyze", s.api(routeAnalyze, s.handleAnalyze))
	s.mux.HandleFunc("/v1/batch", s.api(routeBatch, s.handleBatch))
	// Async job surfaces (jobs.go, events.go). Registered
	// unconditionally so the routes answer with a typed error when
	// OpenJobs was not called. Polls and streams are not worth spanning
	// and take no worker slot, so they are served without api's gate.
	s.mux.HandleFunc("POST /v1/jobs", s.api(routeJobs, s.handleJobSubmit))
	s.mux.HandleFunc("GET /v1/jobs", s.serve(routeJobs, false, s.handleJobList))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.serve(routeJobs, false, s.handleJobGet))
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.serve(routeEvents, false, s.handleJobEvents))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.serve(routeJobs, false, s.handleJobCancel))
	if cfg.ExposeTraces {
		s.mux.HandleFunc("/v1/traces", s.handleTraces)
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Engine returns the sweep engine serving this server's requests.
func (s *Server) Engine() *sweep.Engine { return s.eng }

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops admitting API requests, drains the job subsystem (a
// graceful handoff: running jobs flush their final sweep checkpoint and
// are re-marked submitted in the journal, so the next process resumes
// them), and waits for in-flight requests (or for ctx to end, returning
// its error). A request that races Shutdown either registered before
// the drain flag was set, and is waited for, or is refused. Pair it
// with http.Server.Shutdown for connection-level draining.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	if s.jobs != nil {
		if err := s.jobs.Drain(ctx); err != nil {
			return err
		}
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// reqMeta is the per-request correlation state: the request ID (always
// minted), the trace ID (from a client traceparent header or minted),
// the tracer and its root span when this request records spans, and
// the time the request arrived.
type reqMeta struct {
	reqID   string
	traceID string
	tracer  *obs.Tracer // nil when the request is untraced
	root    *obs.Span   // the tracer's root span; nil when untraced
	inline  bool        // client asked for the tree in the response
	start   time.Time
}

// newMeta mints the request's correlation IDs, honoring a well-formed
// client traceparent, and echoes them as response headers, so no
// response is anonymous. On a traced route it decides whether to
// trace: the client opts in with X-HPF-Trace: 1, or Config.TraceAll
// forces it.
func (s *Server) newMeta(w http.ResponseWriter, r *http.Request, traced bool) reqMeta {
	m := reqMeta{reqID: obs.NewSpanID(), start: time.Now()}
	if tp := r.Header.Get("traceparent"); tp != "" {
		if id, err := obs.ParseTraceparent(tp); err == nil {
			m.traceID = id
		}
	}
	if m.traceID == "" {
		m.traceID = obs.NewTraceID()
	}
	w.Header().Set("X-HPF-Request-Id", m.reqID)
	w.Header().Set("traceparent", obs.FormatTraceparent(m.traceID))
	m.inline = r.Header.Get("X-HPF-Trace") == "1"
	if traced && (m.inline || s.cfg.TraceAll) {
		m.tracer = obs.NewTracer(m.traceID)
	}
	return m
}

func (s *Server) log(level slog.Level, msg string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Log(context.Background(), level, msg, args...)
	}
}

// timeout resolves a request's timeout_ms against the server limits.
func (s *Server) timeout(ms int64) time.Duration {
	if ms <= 0 {
		return s.cfg.DefaultTimeout
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		return s.cfg.MaxTimeout
	}
	return d
}

// retryAfterHeader advertises when a refused client should come back;
// whole seconds, never below 1 (the header's granularity).
func retryAfterHeader(w http.ResponseWriter, d time.Duration) {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprint(secs))
}

// fail writes one non-2xx API response: the refusal's Retry-After on a
// 429 or 503, the correlation IDs, the cost estimate and limit of a
// cost refusal, and one "request failed" log line naming the stage.
// It returns the status for the caller's accounting.
func (s *Server) fail(w http.ResponseWriter, route string, meta reqMeta, aerr *apiError) int {
	if aerr.status == http.StatusServiceUnavailable || aerr.status == http.StatusTooManyRequests {
		retryAfterHeader(w, aerr.retryAfter)
	}
	s.log(slog.LevelWarn, "request failed",
		"route", route, "code", aerr.status, "stage", aerr.stage, "err", aerr.err.Error(),
		"request_id", meta.reqID, "trace_id", meta.traceID)
	return writeJSON(w, aerr.status, ErrorResponse{
		Error: aerr.err.Error(), Stage: aerr.stage,
		RequestID: meta.reqID, TraceID: meta.traceID,
		EstimatedCostUnits: aerr.estCost, CostLimitUnits: aerr.costLimit,
	})
}

// serve wraps the handler of one /v1 route with what every route
// shares. It mints the correlation IDs and echoes them, opens the root
// span when the route is traced and the request asks for it, and turns
// a panic in h into the 500 that fail writes. Then, in one deferred
// step, it records the trace, observes the latency and counts the
// request under route with the status h returned, so a stream is
// counted when it ends.
func (s *Server) serve(route string, traced bool, h func(w http.ResponseWriter, r *http.Request, meta reqMeta) int) http.HandlerFunc {
	latency, span := s.met.latency[route], "server."+route
	return func(w http.ResponseWriter, r *http.Request) {
		meta := s.newMeta(w, r, traced)
		if meta.tracer != nil {
			meta.root = meta.tracer.Root(span)
		}
		var code int
		defer func() {
			if rec := recover(); rec != nil {
				s.met.panics.Add(1)
				code = s.fail(w, route, meta, errf(http.StatusInternalServerError, "internal", "panic: %v", rec))
			}
			elapsed := time.Since(meta.start)
			var exemplarID string
			if meta.tracer != nil {
				meta.root.End()
				exemplarID = meta.traceID
				s.ring.Add(obs.TraceRecord{
					TraceID: meta.traceID,
					Route:   route,
					Status:  code,
					DurUS:   float64(elapsed) / float64(time.Microsecond),
					Start:   meta.start,
					Tree:    meta.tracer.Tree(),
				})
			}
			latency.observe(elapsed.Seconds(), exemplarID)
			s.met.recordRequest(route, code)
		}()
		code = h(w, r, meta)
	}
}

// api serves one POST route through serve, behind the gate the POST
// routes own: the method check, the admission gate's drain and
// worker-slot checks (admission.go), the body-size cap, fault
// injection and JSON rendering. Every non-2xx response is written by
// fail.
func (s *Server) api(route string, h func(ctx context.Context, body []byte) (any, *apiError)) http.HandlerFunc {
	return s.serve(route, true, func(w http.ResponseWriter, r *http.Request, meta reqMeta) int {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			return s.fail(w, route, meta, errf(http.StatusMethodNotAllowed, "decode", "use POST"))
		}
		if aerr := s.enter(); aerr != nil {
			return s.fail(w, route, meta, aerr)
		}
		defer s.inflight.Done()
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)

		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				return s.fail(w, route, meta, errf(http.StatusRequestEntityTooLarge, "decode", "request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			}
			return s.fail(w, route, meta, &apiError{status: http.StatusBadRequest, stage: "decode", err: err})
		}

		if aerr := s.acquireSlot(r); aerr != nil {
			return s.fail(w, route, meta, aerr)
		}
		defer func() { <-s.sem }()

		// Chaos hook: -chaos / HPFPERF_FAULTS can error, panic or delay
		// any route here; the panic kind exercises serve's recover.
		if ferr := faults.Fire(faults.ServerSite(route)); ferr != nil {
			return s.fail(w, route, meta, &apiError{status: http.StatusInternalServerError, stage: "internal", err: ferr})
		}
		ctx := r.Context()
		if meta.root != nil {
			ctx = obs.ContextWithSpan(ctx, meta.root)
		}
		resp, aerr := h(ctx, body)
		if aerr != nil {
			return s.fail(w, route, meta, aerr)
		}
		if m, isMeta := resp.(metaSetter); isMeta {
			var tree *obs.Tree
			if meta.tracer != nil && meta.inline {
				// Close the root now so the inlined tree carries the final
				// request duration (serve's deferred End keeps this first end).
				meta.root.End()
				tree = meta.tracer.Tree()
			}
			m.setMeta(meta.reqID, meta.traceID, tree)
		}
		s.log(slog.LevelInfo, "request served",
			"route", route, "code", http.StatusOK, "elapsed", time.Since(meta.start).Round(time.Microsecond).String(),
			"request_id", meta.reqID, "trace_id", meta.traceID)
		return writeJSON(w, http.StatusOK, resp)
	})
}

// TracesHandler returns the GET /v1/traces handler for mounting on a
// separate trusted listener (hpfserve serves it on -debug-addr next to
// pprof). Config.ExposeTraces instead mounts it on the public mux.
func (s *Server) TracesHandler() http.Handler { return http.HandlerFunc(s.handleTraces) }

// handleTraces serves the retained recent request traces, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	// Mint correlation IDs so even this endpoint's refusals are
	// correlatable; listing traces is not work worth spanning (and must
	// not feed the ring it serves).
	meta := s.newMeta(w, r, false)
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.fail(w, "traces", meta, errf(http.StatusMethodNotAllowed, "decode", "use GET"))
		return
	}
	writeJSON(w, http.StatusOK, TracesResponse{Traces: s.ring.Snapshot()})
}

// ctxErr classifies a pipeline error: deadline and cancellation get
// timeout statuses, recovered panics are typed (*sweep.PanicError →
// 500), other transient failures advertise 503 so well-behaved clients
// retry, and everything else falls through to fallback.
func ctxErr(err error, fallbackStatus int, stage string) *apiError {
	var pe *sweep.PanicError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{status: http.StatusGatewayTimeout, stage: "deadline", err: err}
	case errors.Is(err, context.Canceled):
		return &apiError{status: http.StatusServiceUnavailable, stage: "deadline", err: err}
	case errors.As(err, &pe):
		return &apiError{status: http.StatusInternalServerError, stage: "internal", err: err}
	case sweep.IsTransient(err):
		return &apiError{status: http.StatusServiceUnavailable, stage: "transient", err: err}
	}
	return &apiError{status: fallbackStatus, stage: stage, err: err}
}

func decode[T any](body []byte, req *T) *apiError {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return errf(http.StatusBadRequest, "decode", "invalid request: %v", err)
	}
	return nil
}

// validatePredict applies the pre-compile request checks of
// /v1/predict; /v1/batch applies the same checks per point so a point's
// error is byte-identical to the sequential call's.
func validatePredict(req *PredictRequest) *apiError {
	if strings.TrimSpace(req.Source) == "" {
		return errf(http.StatusBadRequest, "decode", "source is required")
	}
	if req.Machine != "" {
		if _, err := sysmodel.MachineByName(req.Machine); err != nil {
			return errf(http.StatusBadRequest, "decode", "%v", err)
		}
	}
	return nil
}

// evalPredict runs the interpretation pipeline for one validated,
// compiled and cost-admitted predict request on its compile entry.
// ElapsedUS is left zero: the synchronous handler stamps wall time
// afterwards, while batch points and async jobs keep the deterministic
// form.
func (s *Server) evalPredict(ctx context.Context, prog *sweep.Program, req *PredictRequest) (*PredictResponse, *apiError) {
	rep, err := prog.Interpret(ctx, req.Options.coreOptions(), req.Machine, s.eng.Stats())
	if err != nil {
		return nil, ctxErr(err, http.StatusUnprocessableEntity, "interpret")
	}
	resp := &PredictResponse{
		Program:  rep.Program,
		Procs:    rep.Procs,
		EstUS:    rep.TotalUS(),
		Seconds:  rep.EstimatedSeconds(),
		CompUS:   rep.Total.CompUS,
		CommUS:   rep.Total.CommUS,
		OvhdUS:   rep.Total.OvhdUS,
		Warnings: rep.Warnings,
	}
	if req.Profile {
		resp.Profile = report.Profile(rep)
	}
	if req.HotLines > 0 {
		resp.HotLines = report.HotLines(rep, req.HotLines)
	}
	return resp, nil
}

func (s *Server) handlePredict(ctx context.Context, body []byte) (any, *apiError) {
	var req PredictRequest
	if aerr := decode(body, &req); aerr != nil {
		return nil, aerr
	}
	if aerr := validatePredict(&req); aerr != nil {
		return nil, aerr
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, s.timeout(req.TimeoutMS))
	defer cancel()

	prog, err := s.eng.Program(ctx, req.Source, req.Options.compilerOptions())
	if err != nil {
		return nil, ctxErr(err, http.StatusBadRequest, "compile")
	}
	// Cost-admission gate: price the compiled program statically and
	// check it against the per-request and in-flight budgets before the
	// interpretation sweep runs.
	releaseCost, aerr := s.admitCost("program", nil, prog)
	if aerr != nil {
		return nil, aerr
	}
	defer releaseCost()
	resp, aerr := s.evalPredict(ctx, prog, &req)
	if aerr != nil {
		return nil, aerr
	}
	resp.ElapsedUS = float64(time.Since(start)) / float64(time.Microsecond)
	return resp, nil
}

// validateMeasure applies the pre-compile request checks of
// /v1/measure. Machine validation deliberately stays in evalMeasure:
// the sequential handler checks it only after a successful compile, and
// batch points must fail in the same order.
func validateMeasure(req *MeasureRequest) *apiError {
	if strings.TrimSpace(req.Source) == "" {
		return errf(http.StatusBadRequest, "decode", "source is required")
	}
	return nil
}

// measureSpec resolves a measure request against its compiled program:
// machine selection, perturbation/seed/cache-model knobs, and an eager
// machine construction so misconfiguration stays a 400 before the
// cached execution path runs.
func measureSpec(req *MeasureRequest, prog *hir.Program) (sweep.MeasureSpec, *apiError) {
	cfg := ipsc.DefaultConfig(prog.Info.Grid.Size())
	if req.Machine != "" {
		base, err := sysmodel.MachineByName(req.Machine)
		if err != nil {
			return sweep.MeasureSpec{}, errf(http.StatusBadRequest, "decode", "%v", err)
		}
		cfg.Base = base
	}
	if req.Perturb > 0 {
		cfg.PerturbAmp = req.Perturb
	}
	if req.NoPerturb {
		cfg.PerturbAmp = 0
		cfg.TimerResUS = 0
	}
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	if req.NoCacheModel {
		cfg.CacheModel = false
	}
	runs := req.Runs
	if runs <= 0 {
		runs = 1
	}
	if _, err := ipsc.New(cfg); err != nil {
		return sweep.MeasureSpec{}, errf(http.StatusBadRequest, "decode", "%v", err)
	}
	return sweep.MeasureSpec{
		Machine:    req.Machine,
		Runs:       runs,
		PerturbAmp: cfg.PerturbAmp,
		TimerResUS: cfg.TimerResUS,
		Seed:       cfg.Seed,
		CacheModel: cfg.CacheModel,
	}, nil
}

// evalMeasure runs the simulated-execution pipeline for one validated,
// compiled and cost-admitted measure request on its compile entry.
// ElapsedUS is left zero (see evalPredict).
func (s *Server) evalMeasure(ctx context.Context, req *MeasureRequest, prog *sweep.Program) (*MeasureResponse, *apiError) {
	spec, aerr := measureSpec(req, prog.Prog)
	if aerr != nil {
		return nil, aerr
	}
	res, err := prog.Measure(ctx, spec, s.eng.Stats())
	if err != nil {
		return nil, ctxErr(err, http.StatusUnprocessableEntity, "execute")
	}
	return &MeasureResponse{
		Program:    prog.Prog.Name,
		Procs:      prog.Prog.Info.Grid.Size(),
		MeasuredUS: res.MeasuredUS,
		Seconds:    res.MeasuredUS / 1e6,
		RunsUS:     res.RunsUS,
		PerNodeUS:  res.PerNodeUS,
		Printed:    res.Printed,
	}, nil
}

func (s *Server) handleMeasure(ctx context.Context, body []byte) (any, *apiError) {
	var req MeasureRequest
	if aerr := decode(body, &req); aerr != nil {
		return nil, aerr
	}
	if aerr := validateMeasure(&req); aerr != nil {
		return nil, aerr
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, s.timeout(req.TimeoutMS))
	defer cancel()

	prog, err := s.eng.Program(ctx, req.Source, compiler.Options{})
	if err != nil {
		return nil, ctxErr(err, http.StatusBadRequest, "compile")
	}
	releaseCost, aerr := s.admitCost("program", nil, prog)
	if aerr != nil {
		return nil, aerr
	}
	defer releaseCost()
	resp, aerr := s.evalMeasure(ctx, &req, prog)
	if aerr != nil {
		return nil, aerr
	}
	resp.ElapsedUS = float64(time.Since(start)) / float64(time.Microsecond)
	return resp, nil
}

func (s *Server) handleAutotune(ctx context.Context, body []byte) (any, *apiError) {
	var req AutotuneRequest
	if aerr := decode(body, &req); aerr != nil {
		return nil, aerr
	}
	if strings.TrimSpace(req.Source) == "" {
		return nil, errf(http.StatusBadRequest, "decode", "source is required")
	}
	if req.Procs <= 0 {
		return nil, errf(http.StatusBadRequest, "decode", "procs must be positive")
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, s.timeout(req.TimeoutMS))
	defer cancel()

	cands, err := autotune.SearchContext(ctx, req.Source, autotune.Options{
		Procs:    req.Procs,
		NoCyclic: req.NoCyclic,
		Interp:   req.Options.coreOptions(),
		Engine:   s.eng,
	})
	if err != nil {
		return nil, ctxErr(err, http.StatusBadRequest, "search")
	}
	resp := autotuneResponse(&req, cands)
	resp.ElapsedUS = float64(time.Since(start)) / float64(time.Microsecond)
	return resp, nil
}

// autotuneResponse renders ranked candidates as the response body: the
// list truncated to req.Limit, and the best variant's rewritten program
// when requested. ElapsedUS is left zero (see evalPredict).
func autotuneResponse(req *AutotuneRequest, cands []autotune.Candidate) *AutotuneResponse {
	resp := &AutotuneResponse{}
	for i, c := range cands {
		if req.Limit > 0 && i >= req.Limit {
			break
		}
		ac := AutotuneCandidate{Desc: c.Desc()}
		if c.Err != nil {
			ac.Error = c.Err.Error()
		} else {
			ac.EstUS = c.EstUS
		}
		resp.Candidates = append(resp.Candidates, ac)
	}
	if req.IncludeSource && len(cands) > 0 && cands[0].Err == nil {
		resp.BestSource = cands[0].Source
	}
	return resp
}

func (s *Server) handleAnalyze(ctx context.Context, body []byte) (any, *apiError) {
	var req AnalyzeRequest
	if aerr := decode(body, &req); aerr != nil {
		return nil, aerr
	}
	if strings.TrimSpace(req.Source) == "" {
		return nil, errf(http.StatusBadRequest, "decode", "source is required")
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, s.timeout(req.TimeoutMS))
	defer cancel()

	prog, err := s.eng.Program(ctx, req.Source, compiler.Options{})
	if err != nil {
		return nil, ctxErr(err, http.StatusBadRequest, "compile")
	}
	// The passes themselves are not context-aware (they are bounded by
	// the tracer's statement budget); honor an already-expired deadline
	// before starting them.
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err, http.StatusGatewayTimeout, "analyze")
	}
	// The passes and the pricer share the compile entry's unit, so a
	// program already traced for admission or prediction is not traced
	// again.
	unit, err := prog.Unit()
	if err != nil {
		return nil, ctxErr(err, http.StatusInternalServerError, "analyze")
	}
	rep := analysis.NewReport("", unit)
	e, w, i := rep.Counts()
	return &AnalyzeResponse{
		Program:     rep.Program,
		Procs:       rep.Procs,
		Diagnostics: rep.Diagnostics,
		Errors:      e,
		Warnings:    w,
		Infos:       i,
		Price:       rep.Price,
		ElapsedUS:   float64(time.Since(start)) / float64(time.Microsecond),
	}, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()
	if draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, HealthResponse{Status: status, Inflight: s.met.inflight.Load()})
}

// acceptsOpenMetrics reports whether the scrape client negotiated the
// OpenMetrics exposition format via its Accept header. Only that
// format may carry exemplars; the classic text parser fails the whole
// scrape on the exemplar's `#`.
func acceptsOpenMetrics(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	om := acceptsOpenMetrics(r)
	var b strings.Builder
	s.met.render(&b, s.eng.Snapshot(), s.eng.Cache().CacheStats(), om)
	if s.jobs != nil {
		renderJobsMetrics(&b, s.jobs.Metrics())
	}
	if om {
		b.WriteString("# EOF\n")
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	}
	_, _ = io.WriteString(w, b.String())
}
