package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"hpfperf/internal/obs"
)

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
}

// echoExec completes immediately, echoing the payload back as result.
func echoExec(_ context.Context, job JobView, _ ExecEnv) (json.RawMessage, error) {
	return job.Payload, nil
}

func openTest(t *testing.T, dir string, exec Executor, mutate ...func(*Config)) *Manager {
	t.Helper()
	cfg := Config{Dir: dir, Workers: 2, Exec: exec, Log: testLogger()}
	for _, f := range mutate {
		f(&cfg)
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return m
}

func waitState(t *testing.T, m *Manager, id string, want State) JobView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		v, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if v.State == want {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	v, _ := m.Get(id)
	t.Fatalf("job %s stuck in %s, want %s", id, v.State, want)
	return JobView{}
}

func drain(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestSubmitRunDone(t *testing.T) {
	m := openTest(t, t.TempDir(), echoExec)
	v, err := m.Submit("predict", json.RawMessage(`{"n":42}`), Options{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if v.State != StateSubmitted || v.ID == "" {
		t.Fatalf("submit view: %+v", v)
	}
	got := waitState(t, m, v.ID, StateDone)
	if string(got.Result) != `{"n":42}` {
		t.Fatalf("result = %s", got.Result)
	}
	if got.FinishedAt == nil || got.StartedAt == nil {
		t.Fatalf("timestamps missing: %+v", got)
	}
	mm := m.Metrics()
	if mm.SubmittedTotal != 1 || mm.DoneTotal != 1 || mm.ByState[StateDone] != 1 {
		t.Fatalf("metrics: %+v", mm)
	}
	drain(t, m)
}

func TestFailedJob(t *testing.T) {
	m := openTest(t, t.TempDir(), func(context.Context, JobView, ExecEnv) (json.RawMessage, error) {
		return nil, errors.New("boom")
	})
	v, _ := m.Submit("predict", json.RawMessage(`{}`), Options{})
	got := waitState(t, m, v.ID, StateFailed)
	if got.Error != "boom" {
		t.Fatalf("error = %q", got.Error)
	}
	if m.Metrics().FailedTotal != 1 {
		t.Fatalf("FailedTotal = %d", m.Metrics().FailedTotal)
	}
	drain(t, m)
}

func TestGetListNotFound(t *testing.T) {
	m := openTest(t, t.TempDir(), echoExec)
	if _, err := m.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get unknown: %v", err)
	}
	if _, err := m.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel unknown: %v", err)
	}
	a, _ := m.Submit("predict", json.RawMessage(`1`), Options{})
	b, _ := m.Submit("autotune", json.RawMessage(`2`), Options{})
	waitState(t, m, a.ID, StateDone)
	waitState(t, m, b.ID, StateDone)
	l := m.List()
	if len(l) != 2 {
		t.Fatalf("List len = %d", len(l))
	}
	drain(t, m)
}

func TestCancelQueued(t *testing.T) {
	block := make(chan struct{})
	m := openTest(t, t.TempDir(), func(ctx context.Context, _ JobView, _ ExecEnv) (json.RawMessage, error) {
		<-block
		return json.RawMessage(`{}`), nil
	}, func(c *Config) { c.Workers = 1 })
	first, _ := m.Submit("predict", json.RawMessage(`1`), Options{})
	waitState(t, m, first.ID, StateRunning)
	queued, _ := m.Submit("predict", json.RawMessage(`2`), Options{})
	v, err := m.Cancel(queued.ID)
	if err != nil || v.State != StateCancelled {
		t.Fatalf("Cancel queued: %+v, %v", v, err)
	}
	close(block)
	waitState(t, m, first.ID, StateDone)
	if m.Metrics().CancelledTotal != 1 {
		t.Fatalf("CancelledTotal = %d", m.Metrics().CancelledTotal)
	}
	drain(t, m)
}

func TestCancelRunning(t *testing.T) {
	m := openTest(t, t.TempDir(), func(ctx context.Context, _ JobView, _ ExecEnv) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	v, _ := m.Submit("predict", json.RawMessage(`1`), Options{})
	waitState(t, m, v.ID, StateRunning)
	if _, err := m.Cancel(v.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	got := waitState(t, m, v.ID, StateCancelled)
	if !got.CancelRequested {
		t.Fatalf("CancelRequested not set: %+v", got)
	}
	drain(t, m)
}

func TestSubmitWhileDrainingRefused(t *testing.T) {
	m := openTest(t, t.TempDir(), echoExec)
	drain(t, m)
	if _, err := m.Submit("predict", json.RawMessage(`1`), Options{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after drain: %v", err)
	}
}

func TestRecoveryResumesRunningJob(t *testing.T) {
	dir := t.TempDir()
	// First process: the job is mid-flight (journal says running) when
	// the process dies without any drain.
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	m1 := openTest(t, dir, func(ctx context.Context, _ JobView, _ ExecEnv) (json.RawMessage, error) {
		started <- struct{}{}
		<-block
		return nil, ctx.Err()
	})
	v, _ := m1.Submit("predict", json.RawMessage(`{"n":7}`), Options{})
	<-started
	// Simulated crash: abandon the manager without draining (the
	// journal file stays as the dead process left it). Its executor stays
	// blocked until the second process is done: a dead process journals
	// nothing more.
	defer drain(t, m1)
	defer close(block)

	m2 := openTest(t, dir, echoExec)
	got := waitState(t, m2, v.ID, StateDone)
	if string(got.Result) != `{"n":7}` {
		t.Fatalf("recovered result = %s", got.Result)
	}
	if got.Resumes != 1 {
		t.Fatalf("Resumes = %d, want 1", got.Resumes)
	}
	mm := m2.Metrics()
	if mm.ResumedTotal != 1 || mm.ReplayRecords == 0 {
		t.Fatalf("recovery metrics: %+v", mm)
	}
	drain(t, m2)
}

func TestDrainHandoff(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{}, 1)
	m1 := openTest(t, dir, func(ctx context.Context, _ JobView, env ExecEnv) (json.RawMessage, error) {
		env.Progress(3)
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	v, _ := m1.Submit("autotune", json.RawMessage(`{"q":1}`), Options{})
	<-started
	if got := m1.Metrics().SubmittedTotal; got != 1 {
		t.Fatalf("SubmittedTotal before drain = %d, want 1", got)
	}
	drain(t, m1)
	if m1.Metrics().HandoffTotal != 1 {
		t.Fatalf("HandoffTotal = %d", m1.Metrics().HandoffTotal)
	}
	// The handoff is not a submission, and a counter never goes down.
	if got := m1.Metrics().SubmittedTotal; got != 1 {
		t.Fatalf("SubmittedTotal after drain = %d, want 1", got)
	}

	// Next process picks the job up and finishes it; progress made
	// before the handoff is visible after replay. Replayed submissions
	// are not this process's: its count starts at 0.
	m2 := openTest(t, dir, echoExec)
	if got := m2.Metrics().SubmittedTotal; got != 0 {
		t.Fatalf("SubmittedTotal after reopen = %d, want 0", got)
	}
	got := waitState(t, m2, v.ID, StateDone)
	if string(got.Result) != `{"q":1}` {
		t.Fatalf("handoff result = %s", got.Result)
	}
	if got.Resumes != 1 {
		t.Fatalf("Resumes = %d, want 1", got.Resumes)
	}
	drain(t, m2)
}

func TestProgressJournalsCheckpoints(t *testing.T) {
	dir := t.TempDir()
	m := openTest(t, dir, func(_ context.Context, _ JobView, env ExecEnv) (json.RawMessage, error) {
		env.Progress(2)
		env.Progress(5)
		return json.RawMessage(`{}`), nil
	})
	v, _ := m.Submit("validate", json.RawMessage(`{}`), Options{})
	got := waitState(t, m, v.ID, StateDone)
	if got.Done != 5 || got.Checkpoints != 2 {
		t.Fatalf("done=%d checkpoints=%d", got.Done, got.Checkpoints)
	}
	drain(t, m)

	// Progress survives replay.
	m2 := openTest(t, dir, echoExec)
	got, err := m2.Get(v.ID)
	if err != nil || got.Done != 5 {
		t.Fatalf("replayed done = %d (%v)", got.Done, err)
	}
	drain(t, m2)
}

func TestCheckpointDirLifecycle(t *testing.T) {
	dir := t.TempDir()
	var sawDir atomic.Value
	m := openTest(t, dir, func(_ context.Context, _ JobView, env ExecEnv) (json.RawMessage, error) {
		if err := os.MkdirAll(env.CheckpointDir, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(env.CheckpointDir, "ckpt.json"), []byte("{}"), 0o644); err != nil {
			return nil, err
		}
		sawDir.Store(env.CheckpointDir)
		return json.RawMessage(`{}`), nil
	})
	v, _ := m.Submit("predict", json.RawMessage(`{}`), Options{})
	waitState(t, m, v.ID, StateDone)
	drain(t, m)
	ckptDir, _ := sawDir.Load().(string)
	if ckptDir == "" {
		t.Fatal("executor never ran")
	}
	if _, err := os.Stat(ckptDir); !os.IsNotExist(err) {
		t.Fatalf("checkpoint dir survived terminal state: %v", err)
	}
}

func TestRetentionBoundsTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	m := openTest(t, dir, echoExec, func(c *Config) {
		c.RetainTerminal = 3
		c.MaxJournalBytes = 1 // compact after every terminal transition
	})
	var last JobView
	for i := 0; i < 8; i++ {
		v, err := m.Submit("predict", json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)), Options{})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		last = waitState(t, m, v.ID, StateDone)
	}
	mm := m.Metrics()
	if mm.ByState[StateDone] > 3 {
		t.Fatalf("retention kept %d terminal jobs, cap 3", mm.ByState[StateDone])
	}
	if mm.RetentionDropped == 0 || mm.Compactions == 0 {
		t.Fatalf("retention metrics: %+v", mm)
	}
	// The newest job is among the survivors.
	if _, err := m.Get(last.ID); err != nil {
		t.Fatalf("newest job evicted: %v", err)
	}
	drain(t, m)

	// On disk: exactly one segment.
	names, _ := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if len(names) != 1 {
		t.Fatalf("segments on disk after retention: %v", names)
	}
}

func TestJobOptionsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var gotFlush atomic.Int64
	m := openTest(t, dir, func(_ context.Context, job JobView, _ ExecEnv) (json.RawMessage, error) {
		gotFlush.Store(int64(job.Options.FlushEvery))
		return json.RawMessage(`{}`), nil
	})
	v, _ := m.Submit("predict", json.RawMessage(`{}`), Options{FlushEvery: 16})
	waitState(t, m, v.ID, StateDone)
	if gotFlush.Load() != 16 {
		t.Fatalf("executor saw FlushEvery=%d", gotFlush.Load())
	}
	drain(t, m)
}

func TestOnTraceDeliversSpanTree(t *testing.T) {
	trees := make(chan *obs.Tree, 1)
	m := openTest(t, t.TempDir(), func(ctx context.Context, _ JobView, _ ExecEnv) (json.RawMessage, error) {
		_, span := obs.Start(ctx, "inner")
		span.End()
		return json.RawMessage(`{}`), nil
	}, func(c *Config) {
		c.OnTrace = func(_ JobView, tree *obs.Tree) {
			select {
			case trees <- tree:
			default:
			}
		}
	})
	v, _ := m.Submit("predict", json.RawMessage(`{}`), Options{})
	waitState(t, m, v.ID, StateDone)
	select {
	case tree := <-trees:
		if tree.Root == nil || tree.Root.Name != "jobs.run" {
			t.Fatalf("trace tree root: %+v", tree.Root)
		}
		if len(tree.Root.Children) != 1 || tree.Root.Children[0].Name != "inner" {
			t.Fatalf("executor span not nested under jobs.run: %+v", tree.Root)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnTrace never called")
	}
	drain(t, m)
}

// TestOnTraceBeforeTerminalState pins the delivery order: a client that
// sees a job finish (Get, WaitJob, SSE) must already find its trace
// record, so OnTrace runs while the job still reads as running, with the
// terminal state it is about to take, and not under the manager's lock.
func TestOnTraceBeforeTerminalState(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want State
	}{
		{"done", nil, StateDone},
		{"failed", errors.New("boom"), StateFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m *Manager
			type seen struct {
				traced, stored State
			}
			got := make(chan seen, 1)
			m = openTest(t, t.TempDir(), func(context.Context, JobView, ExecEnv) (json.RawMessage, error) {
				return json.RawMessage(`{}`), tc.err
			}, func(c *Config) {
				c.OnTrace = func(v JobView, _ *obs.Tree) {
					stored, err := m.Get(v.ID) // deadlocks if called under m.mu
					if err != nil {
						t.Errorf("Get: %v", err)
					}
					got <- seen{traced: v.State, stored: stored.State}
				}
			})
			v, _ := m.Submit("predict", json.RawMessage(`{}`), Options{})
			select {
			case s := <-got:
				if s.traced != tc.want {
					t.Errorf("trace view state = %s, want %s", s.traced, tc.want)
				}
				if s.stored.Terminal() {
					t.Errorf("job already %s when its trace was delivered", s.stored)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("OnTrace never called")
			}
			waitState(t, m, v.ID, tc.want)
			drain(t, m)
		})
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{Exec: echoExec}); err == nil {
		t.Fatal("Open accepted empty Dir")
	}
	if _, err := Open(Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("Open accepted nil Exec")
	}
}
