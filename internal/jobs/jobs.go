package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hpfperf/internal/obs"
)

// Options are the per-job knobs a submitter may set.
type Options struct {
	// FlushEvery bounds completed sweep points between durable
	// checkpoint writes (<= 0 = every point). Larger values trade
	// re-evaluated points after a crash for fewer fsyncs.
	FlushEvery int `json:"flush_every,omitempty"`
}

// ExecEnv is what the manager hands an executor: where to keep durable
// sweep checkpoints and how to report durable progress.
type ExecEnv struct {
	// CheckpointDir is a job-private directory for sweep checkpoint
	// files. It survives crashes and drain handoffs and is removed when
	// the job reaches a terminal state.
	CheckpointDir string
	// Progress journals a checkpointed(n) transition: n sweep points
	// are durably on file. Wire it into sweep.Checkpoint.OnFlush.
	Progress func(done int)
}

// Executor runs one job to completion. The result bytes are journaled
// verbatim as the job's final output, so they must be deterministic
// given the payload (no wall-clock fields): that is what makes a
// crash-recovered job byte-identical to an uninterrupted one. A
// cancelled ctx should be honored promptly; the sweep checkpoint
// machinery flushes on every exit path, so returning ctx.Err() after a
// drain cancellation leaves resume state behind for the handoff.
type Executor func(ctx context.Context, job JobView, env ExecEnv) (json.RawMessage, error)

// JobView is an immutable snapshot of one job, safe to hold after the
// manager's lock is released. It is also the JSON shape of the job
// status surfaces.
type JobView struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State State  `json:"state"`
	// Done is the number of sweep points durable on the last journaled
	// checkpoint; Checkpoints counts the checkpointed(n) transitions.
	Done            int             `json:"done,omitempty"`
	Checkpoints     int             `json:"checkpoints,omitempty"`
	Resumes         int             `json:"resumes,omitempty"`
	CancelRequested bool            `json:"cancel_requested,omitempty"`
	SubmittedAt     time.Time       `json:"submitted_at"`
	StartedAt       *time.Time      `json:"started_at,omitempty"`
	FinishedAt      *time.Time      `json:"finished_at,omitempty"`
	Result          json.RawMessage `json:"result,omitempty"`
	Error           string          `json:"error,omitempty"`

	// Payload is the submitted request body (executor input); not part
	// of the status JSON.
	Payload json.RawMessage `json:"-"`
	// Options are the submit-time job options; not part of the status JSON.
	Options Options `json:"-"`
}

// job is the manager-internal mutable state.
type job struct {
	id          string
	kind        string
	payload     json.RawMessage
	options     Options
	state       State
	done        int
	checkpoints int
	runs        int // running transitions (resumes = runs-1)
	cancelReq   bool
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	result      json.RawMessage
	errMsg      string
	cancel      context.CancelFunc // non-nil while running

	// Event history + live feeds (events.go). eventSeq numbers
	// transitions within this server generation; events retains the
	// newest MaxEventsPerJob of them for Last-Event-ID replay.
	events   []Event
	eventSeq int
	subs     []*subscriber
}

func (j *job) view() JobView {
	v := JobView{
		ID: j.id, Kind: j.kind, State: j.state,
		Done: j.done, Checkpoints: j.checkpoints,
		CancelRequested: j.cancelReq,
		SubmittedAt:     j.submittedAt,
		Result:          j.result, Error: j.errMsg,
		Payload: j.payload, Options: j.options,
	}
	if j.runs > 1 {
		v.Resumes = j.runs - 1
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		v.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		v.FinishedAt = &t
	}
	return v
}

// Config configures a Manager.
type Config struct {
	// Dir is the durable jobs directory: journal segments at the root,
	// per-job sweep checkpoints under ckpt/ (required).
	Dir string
	// Workers bounds concurrent job executions (<= 0 = 2). Each job
	// still fans its own sweep onto the engine's worker pool; this
	// bounds how many long requests run at once.
	Workers int
	// Exec runs one job (required).
	Exec Executor
	// Log receives journal diagnostics (nil = slog.Default).
	Log *slog.Logger
	// MaxJournalBytes triggers compaction when the active segment grows
	// past it (<= 0 = 4 MiB).
	MaxJournalBytes int64
	// RetainTerminal bounds how many terminal (done/failed/cancelled)
	// jobs are kept across compactions (<= 0 = 256; the newest are kept).
	RetainTerminal int
	// RetainAge drops terminal jobs older than this at compaction
	// (<= 0 = 24h, measured from finish time).
	RetainAge time.Duration
	// OnTrace, when set, turns on per-job observability: every
	// execution runs under a fresh span tree rooted at "jobs.run" (job
	// id, kind and run attrs; pipeline spans nest under it via the
	// context) and the finished tree is delivered here. The server
	// feeds these into its trace ring.
	OnTrace func(job JobView, tree *obs.Tree)
	// MaxSubscribers bounds live event feeds across all jobs (<= 0 =
	// 128); Subscribe returns ErrSubscriberLimit beyond it, and the
	// caller degrades to polling.
	MaxSubscribers int
	// MaxEventsPerJob bounds the retained event history per job
	// (<= 0 = 1024; the newest are kept). Checkpoint events carry
	// cumulative counts, so trimmed history loses no progress.
	MaxEventsPerJob int
}

// Metrics is a consistent snapshot of the manager's counters.
type Metrics struct {
	ByState           map[State]int // live jobs by effective state
	SubmittedTotal    int64         // accepted by this process's Submit; replay adds none
	DoneTotal         int64
	FailedTotal       int64
	CancelledTotal    int64
	ResumedTotal      int64 // crash-recovery re-enqueues of running jobs
	HandoffTotal      int64 // drain handoffs (running re-marked submitted)
	ReplayRecords     int64 // journal records applied at startup
	ReplayTruncations int64 // torn/corrupt records truncated (startup + lifetime)
	Compactions       int64
	RetentionDropped  int64 // terminal jobs dropped by retention
	JournalBytes      int64 // active segment size
	RecoverySeconds   float64
	Subscribers       int   // live event feeds (gauge)
	EventsTotal       int64 // state-transition events recorded
	SubscriberDrops   int64 // slow consumers dropped from the fan-out
}

// Manager owns the journal, the job table and the worker pool.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	jn       *journal
	jobs     map[string]*job
	queue    []string // FIFO of submitted job IDs
	cond     *sync.Cond
	draining bool
	closed   bool

	workers sync.WaitGroup

	// met holds the counters Metrics reports (under mu). Metrics fills
	// in ByState and the journal's figures when it copies it.
	met Metrics
}

// Open replays the journal in cfg.Dir, reconciles torn records,
// re-enqueues every non-terminal job (a job that was running when the
// previous process died resumes from its last checkpoint), compacts
// when the replay left more than one segment or anything to prune, and
// starts the worker pool. Open never refuses to boot on journal damage;
// it truncates, counts and continues.
func Open(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("jobs: Config.Dir is required")
	}
	if cfg.Exec == nil {
		return nil, fmt.Errorf("jobs: Config.Exec is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxJournalBytes <= 0 {
		cfg.MaxJournalBytes = 4 << 20
	}
	if cfg.RetainTerminal <= 0 {
		cfg.RetainTerminal = 256
	}
	if cfg.RetainAge <= 0 {
		cfg.RetainAge = 24 * time.Hour
	}
	if cfg.MaxSubscribers <= 0 {
		cfg.MaxSubscribers = 128
	}
	if cfg.MaxEventsPerJob <= 0 {
		cfg.MaxEventsPerJob = 1024
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	start := time.Now()
	jn, recs, err := openJournal(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "ckpt"), 0o755); err != nil {
		jn.close()
		return nil, err
	}
	m := &Manager{cfg: cfg, jn: jn, jobs: make(map[string]*job)}
	m.cond = sync.NewCond(&m.mu)
	m.met.ReplayRecords = int64(len(recs))
	for _, rec := range recs {
		m.apply(rec)
	}
	if jn.ntrunc > 0 {
		cfg.Log.Warn("jobs: journal replay truncated torn records",
			"dir", cfg.Dir, "truncations", jn.ntrunc)
	}
	// Resume: anything non-terminal goes back on the queue. A job that
	// was running re-enters as submitted; its sweep checkpoint files
	// under ckpt/<id> carry the completed points.
	var resumed int
	for _, j := range m.jobs {
		if j.state == StateRunning {
			j.state = StateSubmitted
			j.cancel = nil
			resumed++
		}
		if j.state == StateSubmitted {
			m.queue = append(m.queue, j.id)
		}
	}
	m.met.ResumedTotal = int64(resumed)
	// Deterministic pickup order after replay: oldest submission first.
	sort.Slice(m.queue, func(a, b int) bool {
		ja, jb := m.jobs[m.queue[a]], m.jobs[m.queue[b]]
		if !ja.submittedAt.Equal(jb.submittedAt) {
			return ja.submittedAt.Before(jb.submittedAt)
		}
		return ja.id < jb.id
	})
	if jn.seq > 1 || jn.ntrunc > 0 || jn.bytes > cfg.MaxJournalBytes {
		if err := m.compactLocked(); err != nil {
			cfg.Log.Warn("jobs: startup compaction failed", "err", err.Error())
		}
	}
	recovery := time.Since(start)
	m.met.RecoverySeconds = recovery.Seconds()
	if resumed > 0 {
		cfg.Log.Info("jobs: recovered in-flight jobs from journal",
			"dir", cfg.Dir, "resumed", resumed, "recovery", recovery.String())
	}
	for w := 0; w < cfg.Workers; w++ {
		m.workers.Add(1)
		go m.worker()
	}
	return m, nil
}

// apply folds one replayed record into the job table. Each record also
// re-appends its event, so the rebuilt event history mirrors the
// journal's state sequence exactly (a compaction snapshot collapses a
// job to one record, and its history to one event likewise).
func (m *Manager) apply(rec record) {
	j := m.jobs[rec.Job]
	if j == nil {
		j = &job{id: rec.Job}
		m.jobs[rec.Job] = j
	}
	m.appendEventLocked(j, rec.State, rec.Done, rec.Error, rec.Time)
	switch rec.State {
	case StateSubmitted:
		j.state = StateSubmitted
		if rec.Kind != "" {
			j.kind = rec.Kind
		}
		if rec.Payload != nil {
			j.payload = rec.Payload
		}
		if rec.Options != nil {
			j.options = *rec.Options
		}
		if rec.Runs > 0 {
			j.runs = rec.Runs
		}
		j.submittedAt = rec.Time
	case StateRunning:
		j.state = StateRunning
		j.runs = rec.Runs
		j.startedAt = rec.Time
	case StateCheckpointed:
		// Progress while running; the effective state is unchanged.
		j.done = rec.Done
		j.checkpoints++
		if rec.Ckpts > 0 {
			j.checkpoints = rec.Ckpts
		}
	case StateDone, StateFailed, StateCancelled:
		j.state = rec.State
		j.result = rec.Result
		j.errMsg = rec.Error
		j.finishedAt = rec.Time
		if rec.Done > 0 {
			j.done = rec.Done
		}
	}
	// Snapshot records carry the full surviving state. Submitted must be
	// restored for every state, not just submitted: a snapshot of a done
	// job is a single done-state record, and losing its submit time would
	// reorder the listing after a restart.
	if !rec.Submitted.IsZero() {
		j.submittedAt = rec.Submitted
	}
	if !rec.Started.IsZero() {
		j.startedAt = rec.Started
	}
	if !rec.Finished.IsZero() {
		j.finishedAt = rec.Finished
	}
	if rec.Kind != "" {
		j.kind = rec.Kind
	}
	if j.payload == nil && rec.Payload != nil {
		j.payload = rec.Payload
	}
}

// snapshotRecord renders a job as one compaction record that apply()
// folds back into identical state.
func (j *job) snapshotRecord() record {
	rec := record{
		Job: j.id, State: j.state, Time: j.submittedAt,
		Kind: j.kind, Payload: j.payload,
		Done: j.done, Ckpts: j.checkpoints, Runs: j.runs,
		Result: j.result, Error: j.errMsg,
		Submitted: j.submittedAt, Started: j.startedAt, Finished: j.finishedAt,
	}
	if j.options != (Options{}) {
		o := j.options
		rec.Options = &o
	}
	return rec
}

func newJobID() string {
	b := make([]byte, 8)
	if _, err := rand.Read(b); err != nil {
		return fmt.Sprintf("j%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b)
}

// Submit journals a new job (durably — when Submit returns, a crash
// cannot lose it) and enqueues it for execution.
func (m *Manager) Submit(kind string, payload json.RawMessage, opts Options) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.draining {
		return JobView{}, ErrDraining
	}
	j := &job{
		id: newJobID(), kind: kind, payload: payload, options: opts,
		state: StateSubmitted, submittedAt: time.Now().UTC(),
	}
	rec := record{Job: j.id, State: StateSubmitted, Time: j.submittedAt, Kind: kind, Payload: payload}
	if opts != (Options{}) {
		o := opts
		rec.Options = &o
	}
	if err := m.jn.append(rec); err != nil {
		return JobView{}, fmt.Errorf("jobs: journaling submission: %w", err)
	}
	m.jobs[j.id] = j
	m.appendEventLocked(j, StateSubmitted, 0, "", j.submittedAt)
	m.queue = append(m.queue, j.id)
	m.met.SubmittedTotal++
	m.cond.Signal()
	return j.view(), nil
}

// ErrDraining is returned by Submit during shutdown.
var ErrDraining = errors.New("jobs: manager is draining")

// ErrNotFound is returned for unknown job IDs.
var ErrNotFound = errors.New("jobs: no such job")

// Get returns a snapshot of one job.
func (m *Manager) Get(id string) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	return j.view(), nil
}

// List returns snapshots of every retained job, newest submission first.
func (m *Manager) List() []JobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobView, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.view())
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].SubmittedAt.Equal(out[b].SubmittedAt) {
			return out[a].SubmittedAt.After(out[b].SubmittedAt)
		}
		return out[a].ID > out[b].ID
	})
	return out
}

// Cancel requests cancellation. A queued job is cancelled (and
// journaled) immediately; a running one is signalled and journals its
// cancelled transition when the executor returns. Cancelling a terminal
// job is a no-op returning its current state.
func (m *Manager) Cancel(id string) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	switch j.state {
	case StateSubmitted:
		j.state = StateCancelled
		j.finishedAt = time.Now().UTC()
		j.cancelReq = true
		if err := m.jn.append(record{Job: j.id, State: StateCancelled, Time: j.finishedAt, Done: j.done}); err != nil {
			m.cfg.Log.Warn("jobs: journaling cancellation", "job", j.id, "err", err.Error())
		}
		m.appendEventLocked(j, StateCancelled, j.done, "", j.finishedAt)
		m.met.CancelledTotal++
		m.removeCheckpoints(j.id)
	case StateRunning:
		j.cancelReq = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.view(), nil
}

// Metrics returns a consistent counter snapshot.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.met
	out.ByState = make(map[State]int, 5)
	for _, j := range m.jobs {
		out.ByState[j.state]++
	}
	out.ReplayTruncations, out.Compactions, out.JournalBytes = m.jn.ntrunc, m.jn.ncomp, m.jn.bytes
	return out
}

// Drain stops intake, cancels running jobs and waits for the workers to
// finish journaling. Running jobs are not lost: each flushes a final
// sweep checkpoint on its cancellation path and is re-marked submitted
// in the journal (a handoff), so the next process to Open the same dir
// picks them up from where they stopped. Returns ctx.Err() if the
// workers outlive the drain budget (the journal still shows those jobs
// running, which the next Open resumes identically).
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	for _, j := range m.jobs {
		m.closeSubsLocked(j)
		if j.state == StateRunning && j.cancel != nil {
			j.cancel()
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.workers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	m.mu.Lock()
	m.closed = true
	if err == nil {
		m.jn.close()
	}
	m.mu.Unlock()
	return err
}

// worker pops submitted jobs and executes them until drain.
func (m *Manager) worker() {
	defer m.workers.Done()
	for {
		m.mu.Lock()
		for !m.draining && len(m.queue) == 0 {
			m.cond.Wait()
		}
		if m.draining {
			m.mu.Unlock()
			return
		}
		id := m.queue[0]
		m.queue = m.queue[1:]
		j := m.jobs[id]
		if j == nil || j.state != StateSubmitted {
			m.mu.Unlock()
			continue // cancelled (or pruned) while queued
		}
		m.runJob(j) // unlocks internally
	}
}

// runJob executes one job; called with m.mu held, returns with it
// released.
func (m *Manager) runJob(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	j.state = StateRunning
	j.runs++
	j.startedAt = time.Now().UTC()
	j.cancel = cancel
	if err := m.jn.append(record{Job: j.id, State: StateRunning, Time: j.startedAt, Runs: j.runs}); err != nil {
		m.cfg.Log.Warn("jobs: journaling running transition", "job", j.id, "err", err.Error())
	}
	m.appendEventLocked(j, StateRunning, j.done, "", j.startedAt)
	view := j.view()
	m.mu.Unlock()
	defer cancel()

	var tracer *obs.Tracer
	var root *obs.Span
	if m.cfg.OnTrace != nil {
		tracer = obs.NewTracer(obs.NewTraceID())
		root = tracer.Root("jobs.run")
		root.SetAttr("job", j.id)
		root.SetAttr("kind", j.kind)
		root.SetAttrInt("run", view.Resumes+1)
		ctx = obs.ContextWithSpan(ctx, root)
	}
	env := ExecEnv{
		CheckpointDir: filepath.Join(m.cfg.Dir, "ckpt", j.id),
		Progress:      func(done int) { m.progress(j, done) },
	}
	result, err := m.cfg.Exec(ctx, view, env)
	root.End()
	m.mu.Lock()
	next := m.outcomeLocked(j, err)
	tv := j.view()
	m.mu.Unlock()
	if m.cfg.OnTrace != nil {
		// The trace ring must hold the record before WaitJob or SSE can
		// report the job finished, so deliver it first, outside m.mu.
		tv.State = next
		switch next {
		case StateDone:
			tv.Result = result
		case StateCancelled, StateFailed:
			tv.Error = err.Error()
		}
		m.cfg.OnTrace(tv, tracer.Tree())
	}
	m.finish(j, next, result, err)
}

// outcomeLocked decides the state a finished execution moves a job to:
// done, cancelled on request, handed off (submitted) when a drain
// cancelled it, or failed. Requires m.mu.
func (m *Manager) outcomeLocked(j *job, err error) State {
	switch {
	case err == nil:
		return StateDone
	case j.cancelReq:
		return StateCancelled
	case m.draining && errors.Is(err, context.Canceled):
		return StateSubmitted
	}
	return StateFailed
}

// progress journals a checkpointed(n) transition for a running job.
func (m *Manager) progress(j *job, done int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.state != StateRunning {
		return
	}
	j.done = done
	j.checkpoints++
	now := time.Now().UTC()
	if err := m.jn.append(record{Job: j.id, State: StateCheckpointed, Time: now, Done: done}); err != nil {
		m.cfg.Log.Warn("jobs: journaling checkpoint transition", "job", j.id, "err", err.Error())
	}
	m.appendEventLocked(j, StateCheckpointed, done, "", now)
}

// finish journals a job's terminal transition to next, as decided by
// outcomeLocked — or, for a drain handoff, re-marks the job submitted so
// the next process resumes it from the final checkpoint its
// cancellation path flushed.
func (m *Manager) finish(j *job, next State, result json.RawMessage, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.cancel = nil
	now := time.Now().UTC()
	switch next {
	case StateDone:
		crash("exec:before-done")
		j.state = StateDone
		j.result = result
		j.finishedAt = now
		if aerr := m.jn.append(record{Job: j.id, State: StateDone, Time: now, Done: j.done, Result: result}); aerr != nil {
			m.cfg.Log.Warn("jobs: journaling done transition", "job", j.id, "err", aerr.Error())
		}
		m.appendEventLocked(j, StateDone, j.done, "", now)
		m.met.DoneTotal++
		m.removeCheckpoints(j.id)
	case StateCancelled:
		j.state = StateCancelled
		j.errMsg = err.Error()
		j.finishedAt = now
		if aerr := m.jn.append(record{Job: j.id, State: StateCancelled, Time: now, Done: j.done, Error: j.errMsg}); aerr != nil {
			m.cfg.Log.Warn("jobs: journaling cancelled transition", "job", j.id, "err", aerr.Error())
		}
		m.appendEventLocked(j, StateCancelled, j.done, j.errMsg, now)
		m.met.CancelledTotal++
		m.removeCheckpoints(j.id)
	case StateSubmitted:
		// Drain handoff: the final checkpoint is on disk (the sweep
		// machinery flushes on the cancellation path); hand the job to
		// the next process instead of failing it.
		j.state = StateSubmitted
		if aerr := m.jn.append(record{
			Job: j.id, State: StateSubmitted, Time: now, Kind: j.kind,
			Payload: j.payload, Runs: j.runs, Submitted: j.submittedAt,
		}); aerr != nil {
			m.cfg.Log.Warn("jobs: journaling drain handoff", "job", j.id, "err", aerr.Error())
		}
		m.appendEventLocked(j, StateSubmitted, j.done, "", now)
		m.met.HandoffTotal++
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		j.finishedAt = now
		if aerr := m.jn.append(record{Job: j.id, State: StateFailed, Time: now, Done: j.done, Error: j.errMsg}); aerr != nil {
			m.cfg.Log.Warn("jobs: journaling failed transition", "job", j.id, "err", aerr.Error())
		}
		m.appendEventLocked(j, StateFailed, j.done, j.errMsg, now)
		m.met.FailedTotal++
		m.removeCheckpoints(j.id)
	}
	if j.state.Terminal() && (m.jn.bytes > m.cfg.MaxJournalBytes || m.terminalCountLocked() > m.cfg.RetainTerminal) {
		if err := m.compactLocked(); err != nil {
			m.cfg.Log.Warn("jobs: compaction failed", "err", err.Error())
		}
	}
}

func (m *Manager) terminalCountLocked() int {
	n := 0
	for _, j := range m.jobs {
		if j.state.Terminal() {
			n++
		}
	}
	return n
}

// compactLocked prunes terminal jobs past the retention bounds, writes
// a snapshot segment and retires the old segments. Requires m.mu.
func (m *Manager) compactLocked() error {
	cutoff := time.Now().Add(-m.cfg.RetainAge)
	var terminal []*job
	for _, j := range m.jobs {
		if j.state.Terminal() {
			terminal = append(terminal, j)
		}
	}
	sort.Slice(terminal, func(a, b int) bool { return terminal[a].finishedAt.After(terminal[b].finishedAt) })
	for i, j := range terminal {
		if i >= m.cfg.RetainTerminal || j.finishedAt.Before(cutoff) {
			delete(m.jobs, j.id)
			m.met.RetentionDropped++
			m.removeCheckpoints(j.id)
		}
	}
	ids := make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	snapshot := make([]record, 0, len(ids))
	for _, id := range ids {
		snapshot = append(snapshot, m.jobs[id].snapshotRecord())
	}
	return m.jn.compact(snapshot)
}

// removeCheckpoints deletes a job's private sweep-checkpoint directory.
func (m *Manager) removeCheckpoints(id string) {
	if id == "" {
		return
	}
	os.RemoveAll(filepath.Join(m.cfg.Dir, "ckpt", id))
}
