package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"hpfperf/internal/jobs"
)

// newJobsServer builds a server with the jobs subsystem attached to a
// fresh temp dir.
func newJobsServer(t *testing.T, cfg Config, jcfg jobs.Config) (*Server, string) {
	t.Helper()
	s, ts := newTestServer(t, cfg)
	if jcfg.Dir == "" {
		jcfg.Dir = t.TempDir()
	}
	if err := s.OpenJobs(jcfg); err != nil {
		t.Fatalf("OpenJobs: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Jobs().Drain(ctx)
	})
	return s, ts.URL
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func pollJob(t *testing.T, base, id string) jobs.JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var v jobs.JobView
		resp := getJSON(t, base+"/v1/jobs/"+id, &v)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job status = %d", resp.StatusCode)
		}
		if v.State.Terminal() {
			return v
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("non-terminal job status without Retry-After")
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return jobs.JobView{}
}

func TestJobSubmitPredict(t *testing.T) {
	_, base := newJobsServer(t, Config{}, jobs.Config{})
	resp, body := post(t, base+"/v1/jobs", JobSubmitRequest{
		Kind:    JobKindPredict,
		Predict: &PredictRequest{Source: bigSource(5)},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	if sub.Job.ID == "" || sub.Job.Kind != JobKindPredict {
		t.Fatalf("submit view: %+v", sub.Job)
	}
	if sub.RequestID == "" {
		t.Fatal("submit response missing request correlation")
	}
	v := pollJob(t, base, sub.Job.ID)
	if v.State != jobs.StateDone {
		t.Fatalf("state = %s (err %q)", v.State, v.Error)
	}
	var pr PredictResponse
	if err := json.Unmarshal(v.Result, &pr); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if pr.EstUS <= 0 || pr.Procs != 4 {
		t.Fatalf("predict result: %+v", pr)
	}
	if pr.ElapsedUS != 0 {
		t.Fatalf("job result carries wall-clock ElapsedUS %g; recovery could not be byte-identical", pr.ElapsedUS)
	}
}

func TestJobSubmitAutotune(t *testing.T) {
	_, base := newJobsServer(t, Config{}, jobs.Config{})
	resp, body := post(t, base+"/v1/jobs", JobSubmitRequest{
		Kind:     JobKindAutotune,
		Autotune: &AutotuneRequest{Source: bigSource(3), Procs: 4, Limit: 3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	v := pollJob(t, base, sub.Job.ID)
	if v.State != jobs.StateDone {
		t.Fatalf("state = %s (err %q)", v.State, v.Error)
	}
	var ar AutotuneResponse
	if err := json.Unmarshal(v.Result, &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.Candidates) == 0 {
		t.Fatal("autotune job returned no candidates")
	}
	// The search checkpoints candidates as it goes; the journal should
	// have seen at least one checkpointed(n) transition.
	if v.Checkpoints == 0 {
		t.Error("autotune job journaled no checkpoint transitions")
	}
}

func TestJobSubmitValidate(t *testing.T) {
	_, base := newJobsServer(t, Config{}, jobs.Config{})
	resp, body := post(t, base+"/v1/jobs", JobSubmitRequest{
		Kind:     JobKindValidate,
		Validate: &ValidateJobRequest{Seed: 7, Count: 4},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	v := pollJob(t, base, sub.Job.ID)
	if v.State != jobs.StateDone {
		t.Fatalf("state = %s (err %q)", v.State, v.Error)
	}
	var vr ValidateJobResult
	if err := json.Unmarshal(v.Result, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Report == nil || vr.Report.Count != 4 {
		t.Fatalf("validate result: %+v", vr.Report)
	}
}

func TestJobSubmitValidationErrors(t *testing.T) {
	_, base := newJobsServer(t, Config{}, jobs.Config{})
	cases := []struct {
		name string
		req  JobSubmitRequest
	}{
		{"missing kind", JobSubmitRequest{}},
		{"unknown kind", JobSubmitRequest{Kind: "banquet"}},
		{"kind without sub-request", JobSubmitRequest{Kind: JobKindPredict}},
		{"mismatched sub-request", JobSubmitRequest{Kind: JobKindPredict, Autotune: &AutotuneRequest{Source: "x", Procs: 4}}},
		{"two sub-requests", JobSubmitRequest{Kind: JobKindPredict,
			Predict:  &PredictRequest{Source: "x"},
			Autotune: &AutotuneRequest{Source: "x", Procs: 4}}},
		{"empty predict source", JobSubmitRequest{Kind: JobKindPredict, Predict: &PredictRequest{Source: "  "}}},
		{"bad machine", JobSubmitRequest{Kind: JobKindPredict, Predict: &PredictRequest{Source: "x", Machine: "cray"}}},
		{"bad procs", JobSubmitRequest{Kind: JobKindAutotune, Autotune: &AutotuneRequest{Source: "x"}}},
		{"bad count", JobSubmitRequest{Kind: JobKindValidate, Validate: &ValidateJobRequest{Count: 0}}},
		{"huge count", JobSubmitRequest{Kind: JobKindValidate, Validate: &ValidateJobRequest{Count: 100000}}},
		{"bad family", JobSubmitRequest{Kind: JobKindValidate, Validate: &ValidateJobRequest{Count: 1, Family: "nope"}}},
		{"bad artifact", JobSubmitRequest{Kind: JobKindExperiment, Experiment: &ExperimentJobRequest{Artifact: "fig9"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, base+"/v1/jobs", tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d: %s", resp.StatusCode, body)
			}
		})
	}
}

func TestJobListAndCancel(t *testing.T) {
	s, base := newJobsServer(t, Config{}, jobs.Config{Workers: 1})
	// Occupy the single worker so the second submission stays queued.
	blocker, _ := post(t, base+"/v1/jobs", JobSubmitRequest{
		Kind:       JobKindExperiment,
		Experiment: &ExperimentJobRequest{Artifact: "table2", Quick: true},
	})
	if blocker.StatusCode != http.StatusOK {
		t.Fatalf("blocker submit = %d", blocker.StatusCode)
	}
	resp, body := post(t, base+"/v1/jobs", JobSubmitRequest{
		Kind:    JobKindPredict,
		Predict: &PredictRequest{Source: bigSource(3)},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}

	var list JobListResponse
	if r := getJSON(t, base+"/v1/jobs", &list); r.StatusCode != http.StatusOK {
		t.Fatalf("list = %d", r.StatusCode)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("list has %d jobs, want 2", len(list.Jobs))
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+sub.Job.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v jobs.JobView
	if err := json.NewDecoder(dresp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || v.State != jobs.StateCancelled {
		t.Fatalf("cancel: %d %+v", dresp.StatusCode, v)
	}

	if r := getJSON(t, base+"/v1/jobs/definitely-not-a-job", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d", r.StatusCode)
	}
	_ = s
}

func TestJobsDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/jobs", JobSubmitRequest{
		Kind:    JobKindPredict,
		Predict: &PredictRequest{Source: "x"},
	})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("submit on disabled = %d: %s", resp.StatusCode, body)
	}
	if r := getJSON(t, ts.URL+"/v1/jobs", nil); r.StatusCode != http.StatusNotImplemented {
		t.Fatalf("list on disabled = %d", r.StatusCode)
	}
	if r := getJSON(t, ts.URL+"/v1/jobs/x", nil); r.StatusCode != http.StatusNotImplemented {
		t.Fatalf("get on disabled = %d", r.StatusCode)
	}
}

func TestJobsMetricsSeries(t *testing.T) {
	_, base := newJobsServer(t, Config{}, jobs.Config{})
	resp, body := post(t, base+"/v1/jobs", JobSubmitRequest{
		Kind:    JobKindPredict,
		Predict: &PredictRequest{Source: bigSource(3)},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	pollJob(t, base, sub.Job.ID)

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`hpfjobs_jobs{state="done"} 1`,
		"hpfjobs_submitted_total 1",
		`hpfjobs_finished_total{outcome="done"} 1`,
		"hpfjobs_journal_bytes",
		"hpfjobs_recovery_seconds",
		"hpfjobs_replay_truncated_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestShutdownHandsOffRunningJob(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{})
	started := make(chan struct{}, 1)
	err := s.OpenJobs(jobs.Config{
		Dir: dir,
		Exec: func(ctx context.Context, _ jobs.JobView, env jobs.ExecEnv) (json.RawMessage, error) {
			env.Progress(2)
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatalf("OpenJobs: %v", err)
	}
	resp, body := post(t, ts.URL+"/v1/jobs", JobSubmitRequest{
		Kind:    JobKindPredict,
		Predict: &PredictRequest{Source: bigSource(3)},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := s.Jobs().Metrics().HandoffTotal; got != 1 {
		t.Fatalf("HandoffTotal = %d, want 1", got)
	}

	// A fresh server over the same dir resumes and completes the job.
	s2, _ := newTestServer(t, Config{})
	if err := s2.OpenJobs(jobs.Config{Dir: dir}); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := s2.Jobs().Get(sub.Job.ID)
		if err != nil {
			t.Fatalf("Get after reopen: %v", err)
		}
		if v.State == jobs.StateDone {
			if v.Resumes != 1 {
				t.Fatalf("Resumes = %d, want 1", v.Resumes)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("handed-off job stuck in %s", v.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_ = s2.Jobs().Drain(ctx2)
}

// TestFailedJobTraceRecordedFirst pins the trace record of a failed job:
// once the job reads as failed, the ring already holds its record, with
// status 500.
func TestFailedJobTraceRecordedFirst(t *testing.T) {
	s, base := newJobsServer(t, Config{}, jobs.Config{})
	resp, body := post(t, base+"/v1/jobs", JobSubmitRequest{
		Kind:    JobKindPredict,
		Predict: &PredictRequest{Source: "PROGRAM BROKEN\nX = (\nEND"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	if v := pollJob(t, base, sub.Job.ID); v.State != jobs.StateFailed {
		t.Fatalf("state = %s, want failed", v.State)
	}
	for _, rec := range s.ring.Snapshot() {
		if rec.Route == "jobs:"+JobKindPredict {
			if rec.Status != http.StatusInternalServerError {
				t.Errorf("failed job's trace status = %d, want 500", rec.Status)
			}
			return
		}
	}
	t.Fatal("job failed before its trace record reached the ring")
}
