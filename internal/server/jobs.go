// Async job surfaces: POST /v1/jobs submits a long-running request
// (predict, autotune, corpus validation or a paper experiment) into the
// durable jobs subsystem (package jobs); GET /v1/jobs/{id} polls it,
// DELETE /v1/jobs/{id} cancels it. Jobs survive SIGKILL: a restarted
// server replays the journal and resumes each in-flight job from its
// last sweep checkpoint, producing byte-identical final output. The
// submit goes through api(); the list, the polls and the cancel are
// untraced serve handlers, counted and timed like every other route
// but holding no worker slot.

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hpfperf/internal/autotune"
	"hpfperf/internal/corpus"
	"hpfperf/internal/experiments"
	"hpfperf/internal/jobs"
	"hpfperf/internal/obs"
	"hpfperf/internal/sweep"
	"hpfperf/internal/sysmodel"
)

// Job kinds accepted by POST /v1/jobs.
const (
	JobKindPredict    = "predict"
	JobKindAutotune   = "autotune"
	JobKindValidate   = "validate"
	JobKindExperiment = "experiment"
)

// JobSubmitRequest is the body of POST /v1/jobs: a kind selector, the
// matching sub-request, and job options. The whole body is journaled as
// the job's payload, so it must stay self-describing.
type JobSubmitRequest struct {
	// Kind selects the work: "predict", "autotune", "validate"
	// (generated-corpus differential validation) or "experiment" (a
	// paper artifact sweep).
	Kind string `json:"kind"`
	// Options tune the job's durability behavior.
	Options *JobOptions `json:"options,omitempty"`

	Predict    *PredictRequest       `json:"predict,omitempty"`
	Autotune   *AutotuneRequest      `json:"autotune,omitempty"`
	Validate   *ValidateJobRequest   `json:"validate,omitempty"`
	Experiment *ExperimentJobRequest `json:"experiment,omitempty"`
}

// JobOptions are the submitter-visible jobs.Options.
type JobOptions struct {
	// FlushEvery bounds completed sweep points between durable
	// checkpoint writes (0 = every point).
	FlushEvery int `json:"flush_every,omitempty"`
}

// ValidateJobRequest runs the corpus differential-validation harness
// over Count generated programs.
type ValidateJobRequest struct {
	// Seed selects the deterministic corpus (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// Count is the number of programs to generate and validate
	// (required, capped at 500).
	Count int `json:"count"`
	// Family restricts generation to one kernel family ("" = all).
	Family string `json:"family,omitempty"`
}

// ExperimentJobRequest regenerates one paper artifact.
type ExperimentJobRequest struct {
	// Artifact names the figure or table: "table2", "fig4", "fig5",
	// "fig7" or "fig8".
	Artifact string `json:"artifact"`
	// Quick restricts the sweep to the smoke-test subset.
	Quick bool `json:"quick,omitempty"`
	// Runs overrides the measured-run average count (0 = config default).
	Runs int `json:"runs,omitempty"`
}

// JobSubmitResponse is the body of a successful job submission.
type JobSubmitResponse struct {
	ResponseMeta
	Job jobs.JobView `json:"job"`
}

// JobListResponse is the body of GET /v1/jobs.
type JobListResponse struct {
	Jobs []jobs.JobView `json:"jobs"`
}

// ValidateJobResult is the terminal result of a "validate" job.
type ValidateJobResult struct {
	Report *corpus.Report `json:"report"`
}

// ExperimentJobResult is the terminal result of an "experiment" job.
type ExperimentJobResult struct {
	Artifact string `json:"artifact"`
	Output   string `json:"output"`
}

// OpenJobs attaches the durable async job subsystem: the journal in
// cfg.Dir is replayed (resuming any job a previous process left
// running), and the /v1/jobs surfaces registered by New start serving.
// Unless overridden, cfg.Exec is the server's own executor and cfg.Log
// the server's logger; traced job runs land in the /v1/traces ring.
// Call before serving traffic.
func (s *Server) OpenJobs(cfg jobs.Config) error {
	if cfg.Exec == nil {
		cfg.Exec = s.executeJob
	}
	if cfg.Log == nil && s.cfg.Log != nil {
		cfg.Log = s.cfg.Log
	}
	if cfg.OnTrace == nil {
		cfg.OnTrace = s.recordJobTrace
	}
	m, err := jobs.Open(cfg)
	if err != nil {
		return err
	}
	s.jobs = m
	return nil
}

// Jobs returns the attached job manager (nil when OpenJobs was not
// called).
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// recordJobTrace feeds a finished job's span tree into the trace ring,
// so GET /v1/traces (or the debug listener) shows job executions next
// to synchronous requests.
func (s *Server) recordJobTrace(v jobs.JobView, tree *obs.Tree) {
	status := http.StatusOK
	if v.State == jobs.StateFailed {
		status = http.StatusInternalServerError
	}
	start := time.Now()
	if v.StartedAt != nil {
		start = *v.StartedAt
	}
	s.ring.Add(obs.TraceRecord{
		TraceID: tree.TraceID,
		Route:   "jobs:" + v.Kind,
		Status:  status,
		DurUS:   tree.DurUS,
		Start:   start,
		Tree:    tree,
	})
}

// jobsOff is the 501 every jobs route answers until OpenJobs is
// called, and nil once it has been.
func (s *Server) jobsOff() *apiError {
	if s.jobs != nil {
		return nil
	}
	return errf(http.StatusNotImplemented, "jobs", "async jobs are disabled (start hpfserve with -jobs-dir)")
}

// handleJobSubmit is the POST /v1/jobs handler body (wrapped by api()).
func (s *Server) handleJobSubmit(_ context.Context, body []byte) (any, *apiError) {
	if aerr := s.jobsOff(); aerr != nil {
		return nil, aerr
	}
	var req JobSubmitRequest
	if aerr := decode(body, &req); aerr != nil {
		return nil, aerr
	}
	if aerr := validateJobRequest(&req); aerr != nil {
		return nil, aerr
	}
	var opts jobs.Options
	if req.Options != nil {
		opts.FlushEvery = req.Options.FlushEvery
	}
	view, err := s.jobs.Submit(req.Kind, json.RawMessage(body), opts)
	if err != nil {
		if err == jobs.ErrDraining {
			return nil, errf(http.StatusServiceUnavailable, "overload", "server is draining")
		}
		return nil, errf(http.StatusInternalServerError, "jobs", "submitting job: %v", err)
	}
	return &JobSubmitResponse{Job: view}, nil
}

// validateJobRequest rejects malformed submissions before anything is
// journaled, so every journaled payload re-decodes at execution time.
func validateJobRequest(req *JobSubmitRequest) *apiError {
	bad := func(format string, args ...any) *apiError {
		return errf(http.StatusBadRequest, "decode", format, args...)
	}
	subs := 0
	for _, set := range []bool{req.Predict != nil, req.Autotune != nil, req.Validate != nil, req.Experiment != nil} {
		if set {
			subs++
		}
	}
	if subs > 1 {
		return bad("exactly one of predict/autotune/validate/experiment must be set")
	}
	switch req.Kind {
	case JobKindPredict:
		if req.Predict == nil {
			return bad(`kind "predict" requires the predict sub-request`)
		}
		if strings.TrimSpace(req.Predict.Source) == "" {
			return bad("predict.source is required")
		}
		if req.Predict.Machine != "" {
			if _, err := sysmodel.MachineByName(req.Predict.Machine); err != nil {
				return bad("%v", err)
			}
		}
	case JobKindAutotune:
		if req.Autotune == nil {
			return bad(`kind "autotune" requires the autotune sub-request`)
		}
		if strings.TrimSpace(req.Autotune.Source) == "" {
			return bad("autotune.source is required")
		}
		if req.Autotune.Procs <= 0 {
			return bad("autotune.procs must be positive")
		}
	case JobKindValidate:
		if req.Validate == nil {
			return bad(`kind "validate" requires the validate sub-request`)
		}
		if req.Validate.Count <= 0 || req.Validate.Count > 500 {
			return bad("validate.count must be in 1..500")
		}
		if req.Validate.Family != "" {
			if _, err := corpus.FamilyByName(req.Validate.Family); err != nil {
				return bad("%v", err)
			}
		}
	case JobKindExperiment:
		if req.Experiment == nil {
			return bad(`kind "experiment" requires the experiment sub-request`)
		}
		switch req.Experiment.Artifact {
		case "table2", "fig4", "fig5", "fig7", "fig8":
		default:
			return bad("experiment.artifact must be one of table2, fig4, fig5, fig7, fig8")
		}
	case "":
		return bad("kind is required")
	default:
		return bad("unknown job kind %q", req.Kind)
	}
	return nil
}

// handleJobList serves GET /v1/jobs: every retained job, newest first.
func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request, meta reqMeta) int {
	if aerr := s.jobsOff(); aerr != nil {
		return s.fail(w, routeJobs, meta, aerr)
	}
	return writeJSON(w, http.StatusOK, JobListResponse{Jobs: s.jobs.List()})
}

// handleJobGet serves GET /v1/jobs/{id}: one job's status snapshot.
// Non-terminal states advertise a poll interval via Retry-After.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request, meta reqMeta) int {
	if aerr := s.jobsOff(); aerr != nil {
		return s.fail(w, routeJobs, meta, aerr)
	}
	view, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		return s.fail(w, routeJobs, meta, &apiError{status: http.StatusNotFound, stage: "jobs", err: err})
	}
	if !view.State.Terminal() {
		retryAfterHeader(w, time.Second)
	}
	return writeJSON(w, http.StatusOK, view)
}

// handleJobCancel serves DELETE /v1/jobs/{id}.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request, meta reqMeta) int {
	if aerr := s.jobsOff(); aerr != nil {
		return s.fail(w, routeJobs, meta, aerr)
	}
	view, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		return s.fail(w, routeJobs, meta, &apiError{status: http.StatusNotFound, stage: "jobs", err: err})
	}
	return writeJSON(w, http.StatusOK, view)
}

// executeJob is the server's jobs.Executor: it re-decodes the journaled
// submission and runs the matching pipeline on the shared sweep engine,
// threading the job's private checkpoint directory and the Progress
// journal hook through the sweep checkpoint machinery. Results exclude
// wall-clock fields (ElapsedUS stays zero), which is what keeps a
// crash-recovered job byte-identical to an uninterrupted one.
func (s *Server) executeJob(ctx context.Context, job jobs.JobView, env jobs.ExecEnv) (json.RawMessage, error) {
	var req JobSubmitRequest
	if err := json.Unmarshal(job.Payload, &req); err != nil {
		return nil, fmt.Errorf("decoding journaled payload: %w", err)
	}
	if err := os.MkdirAll(env.CheckpointDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating checkpoint dir: %w", err)
	}
	flushEvery := job.Options.FlushEvery
	var resp any
	switch job.Kind {
	case JobKindPredict:
		r, err := s.runJobPredict(ctx, req.Predict)
		if err != nil {
			return nil, err
		}
		resp = r
	case JobKindAutotune:
		r, err := s.runJobAutotune(ctx, req.Autotune, env, flushEvery)
		if err != nil {
			return nil, err
		}
		resp = r
	case JobKindValidate:
		r, err := s.runJobValidate(ctx, req.Validate, env, flushEvery)
		if err != nil {
			return nil, err
		}
		resp = r
	case JobKindExperiment:
		r, err := s.runJobExperiment(ctx, req.Experiment, env, flushEvery)
		if err != nil {
			return nil, err
		}
		resp = r
	default:
		return nil, fmt.Errorf("unknown job kind %q", job.Kind)
	}
	return json.Marshal(resp)
}

// runJobPredict is evalPredict without cost admission. It returns the
// pipeline's own error, so the journaled failure text and its errors.Is
// classification are those of the failing stage.
func (s *Server) runJobPredict(ctx context.Context, req *PredictRequest) (*PredictResponse, error) {
	prog, err := s.eng.Program(ctx, req.Source, req.Options.compilerOptions())
	if err != nil {
		return nil, err
	}
	resp, aerr := s.evalPredict(ctx, prog, req)
	if aerr != nil {
		return nil, aerr.err
	}
	return resp, nil
}

func (s *Server) runJobAutotune(ctx context.Context, req *AutotuneRequest, env jobs.ExecEnv, flushEvery int) (*AutotuneResponse, error) {
	cands, err := autotune.SearchContext(ctx, req.Source, autotune.Options{
		Procs:                req.Procs,
		NoCyclic:             req.NoCyclic,
		Interp:               req.Options.coreOptions(),
		Engine:               s.eng,
		Checkpoint:           filepath.Join(env.CheckpointDir, "autotune.ckpt"),
		CheckpointFlushEvery: flushEvery,
		CheckpointOnFlush:    env.Progress,
	})
	if err != nil {
		return nil, err
	}
	return autotuneResponse(req, cands), nil
}

func (s *Server) runJobValidate(ctx context.Context, req *ValidateJobRequest, env jobs.ExecEnv, flushEvery int) (*ValidateJobResult, error) {
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	var progs []corpus.Program
	if req.Family != "" {
		fam, err := corpus.FamilyByName(req.Family)
		if err != nil {
			return nil, err
		}
		progs = corpus.GenerateFamily(seed, fam, req.Count)
	} else {
		progs = corpus.Generate(seed, req.Count)
	}
	report, err := corpus.Validate(ctx, progs, corpus.Options{
		Engine: s.eng,
		Checkpoint: &sweep.Checkpoint{
			Path:       filepath.Join(env.CheckpointDir, "validate.ckpt"),
			Key:        fmt.Sprintf("validate|seed=%d|n=%d|family=%s", seed, req.Count, req.Family),
			FlushEvery: flushEvery,
			OnFlush:    env.Progress,
		},
	})
	if err != nil {
		return nil, err
	}
	return &ValidateJobResult{Report: report}, nil
}

func (s *Server) runJobExperiment(ctx context.Context, req *ExperimentJobRequest, env jobs.ExecEnv, flushEvery int) (*ExperimentJobResult, error) {
	cfg := experiments.DefaultConfig()
	if req.Quick {
		cfg = experiments.QuickConfig()
	}
	if req.Runs > 0 {
		cfg.Runs = req.Runs
	}
	cfg.Engine = s.eng
	cfg.Ctx = ctx
	cfg.CheckpointDir = env.CheckpointDir
	cfg.CheckpointFlushEvery = flushEvery
	cfg.CheckpointFlush = env.Progress

	var out string
	switch req.Artifact {
	case "table2":
		rows, err := experiments.Table2(cfg)
		if err != nil {
			return nil, err
		}
		out = experiments.RenderTable2(rows)
	case "fig4", "fig5":
		procs := 4
		if req.Artifact == "fig5" {
			procs = 8
		}
		series, err := experiments.Figure45(procs, cfg)
		if err != nil {
			return nil, err
		}
		fig := 4
		if procs == 8 {
			fig = 5
		}
		out = experiments.RenderFigure45(fig, procs, series)
	case "fig7":
		phases, err := experiments.Figure7(cfg)
		if err != nil {
			return nil, err
		}
		out = experiments.RenderFigure7(phases)
	case "fig8":
		times, err := experiments.Figure8(cfg)
		if err != nil {
			return nil, err
		}
		out = experiments.RenderFigure8(times)
	default:
		return nil, fmt.Errorf("unknown experiment artifact %q", req.Artifact)
	}
	return &ExperimentJobResult{Artifact: req.Artifact, Output: out}, nil
}

// renderJobsMetrics appends the job subsystem's /metrics series.
func renderJobsMetrics(b *strings.Builder, jm jobs.Metrics) {
	var byState []sample
	for _, st := range []jobs.State{jobs.StateSubmitted, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCancelled} {
		byState = append(byState, sample{series: fmt.Sprintf("{state=%q}", st), value: jm.ByState[st]})
	}
	family(b, "hpfjobs_jobs", "gauge", "Retained jobs by state.", byState...)
	family(b, "hpfjobs_submitted_total", "counter", "Jobs accepted (durably journaled).", sample{value: jm.SubmittedTotal})
	family(b, "hpfjobs_finished_total", "counter", "Jobs reaching a terminal state, by outcome.",
		sample{series: `{outcome="done"}`, value: jm.DoneTotal},
		sample{series: `{outcome="failed"}`, value: jm.FailedTotal},
		sample{series: `{outcome="cancelled"}`, value: jm.CancelledTotal})
	family(b, "hpfjobs_resumed_total", "counter", "Jobs resumed from the journal after a crash.", sample{value: jm.ResumedTotal})
	family(b, "hpfjobs_handoff_total", "counter", "Running jobs re-marked submitted by a graceful drain.", sample{value: jm.HandoffTotal})
	family(b, "hpfjobs_replay_records_total", "counter", "Journal records applied at startup.", sample{value: jm.ReplayRecords})
	family(b, "hpfjobs_replay_truncated_total", "counter", "Torn or corrupt journal records truncated during replay.", sample{value: jm.ReplayTruncations})
	family(b, "hpfjobs_compactions_total", "counter", "Journal segment compactions.", sample{value: jm.Compactions})
	family(b, "hpfjobs_retention_dropped_total", "counter", "Terminal jobs dropped by journal retention.", sample{value: jm.RetentionDropped})
	family(b, "hpfjobs_journal_bytes", "gauge", "Size of the active journal segment.", sample{value: jm.JournalBytes})
	family(b, "hpfjobs_recovery_seconds", "gauge", "Journal replay plus resume time at last startup.", sample{value: jm.RecoverySeconds})
	family(b, "hpfjobs_event_subscribers", "gauge", "Live event-feed subscriptions.", sample{value: jm.Subscribers})
	family(b, "hpfjobs_events_total", "counter", "Job state-transition events recorded.", sample{value: jm.EventsTotal})
	family(b, "hpfjobs_subscriber_drops_total", "counter", "Slow event consumers dropped from the fan-out.", sample{value: jm.SubscriberDrops})
}
