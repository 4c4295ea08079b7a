package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hpfperf/internal/faults"
	"hpfperf/internal/jobs"
	"hpfperf/internal/sweep"
)

const tinyProgram = `      PROGRAM TINY
!HPF$ PROCESSORS P(4)
      REAL A(32)
!HPF$ DISTRIBUTE A(BLOCK) ONTO P
      A = 1.0
      PRINT *, A(1)
      END PROGRAM TINY
`

func withServerFaults(t *testing.T, spec string, seed int64) {
	t.Helper()
	inj, err := faults.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	faults.Activate(inj)
	t.Cleanup(faults.Deactivate)
}

// TestQueueFullShedsImmediately pins the load-shedding satellite: with
// one worker slot and queue depth 1, a third concurrent request must be
// shed at once with 429 + Retry-After and counted in hpfserve_shed_total
// (not in the drain/abandon counter).
func TestQueueFullShedsImmediately(t *testing.T) {
	_, ts := newTestServer(t, Config{
		MaxConcurrent: 1,
		MaxQueueDepth: 1,
		QueueWait:     5 * time.Second,
	})

	// Fire four concurrent slow requests at a gate with one slot and
	// one queue seat: one runs, one queues, the surplus must be shed
	// immediately (not held for QueueWait — the 5s budget vs. the
	// ~700ms a slow request takes bounds the distinction).
	const concurrent = 4
	slow := map[string]any{"source": bigSource(60), "runs": 2}
	type outcome struct {
		resp *http.Response
		body []byte
	}
	results := make(chan outcome, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/measure", slow)
			results <- outcome{resp, body}
		}()
	}
	wg.Wait()
	close(results)

	shed := 0
	for out := range results {
		if out.resp.StatusCode != http.StatusTooManyRequests {
			continue
		}
		shed++
		if ra := out.resp.Header.Get("Retry-After"); ra == "" {
			t.Error("shed response missing Retry-After")
		}
		var er ErrorResponse
		if err := json.Unmarshal(out.body, &er); err != nil || er.Stage != "overload" {
			t.Errorf("shed body = %s (stage %q), want overload stage", out.body, er.Stage)
		}
	}
	if shed == 0 {
		t.Fatal("gate never shed a request with slot and queue both full")
	}

	metricsBody := string(mustReadAll(t, ts.URL+"/metrics"))
	if !strings.Contains(metricsBody, "hpfserve_shed_total") {
		t.Fatalf("metrics missing shed counter:\n%s", metricsBody)
	}
	for _, line := range strings.Split(metricsBody, "\n") {
		if strings.HasPrefix(line, "hpfserve_shed_total ") {
			if strings.TrimPrefix(line, "hpfserve_shed_total ") == "0" {
				t.Errorf("shed counter is zero after a 429: %s", line)
			}
		}
	}
}

func mustReadAll(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestQueueWaitExpiryShed: a queued request whose wait expires is shed
// with 429 (not left hanging and not 503), and the route serves again
// once the slot frees.
func TestQueueWaitExpiryShed(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxConcurrent: 1,
		MaxQueueDepth: 4,
		QueueWait:     50 * time.Millisecond,
	})
	// Hold the only worker slot, as a long request would, for the whole
	// probe: the probe must queue and its wait must expire. Taking the
	// slot directly leaves no race with how fast a real request runs.
	s.sem <- struct{}{}
	resp, body := post(t, ts.URL+"/v1/predict", map[string]any{"source": tinyProgram})
	<-s.sem
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d body %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue-expiry shed missing Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Stage != "overload" {
		t.Errorf("shed body = %s (stage %q), want overload stage", body, er.Stage)
	}

	if resp, body := post(t, ts.URL+"/v1/predict", map[string]any{"source": tinyProgram}); resp.StatusCode != http.StatusOK {
		t.Fatalf("after the slot freed: status = %d body %s, want 200", resp.StatusCode, body)
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestTypedPanicClassification is the satellite fix for the brittle
// strings.Contains(err.Error(), "internal panic") match: a wrapped
// *sweep.PanicError classifies as 500 internal, while an ordinary error
// whose text merely contains "internal panic" does not.
func TestTypedPanicClassification(t *testing.T) {
	pe := fmt.Errorf("interpret: %w", &sweep.PanicError{Stage: "interpret tiny", Value: "boom"})
	aerr := ctxErr(pe, http.StatusUnprocessableEntity, "interpret")
	if aerr.status != http.StatusInternalServerError || aerr.stage != "internal" {
		t.Errorf("typed panic → %d %q, want 500 internal", aerr.status, aerr.stage)
	}

	impostor := errors.New(`user program printed "internal panic: oops"`)
	aerr = ctxErr(impostor, http.StatusUnprocessableEntity, "interpret")
	if aerr.status != http.StatusUnprocessableEntity || aerr.stage != "interpret" {
		t.Errorf("impostor text → %d %q, want fallback 422 interpret", aerr.status, aerr.stage)
	}

	tr := fmt.Errorf("point: %w", &faults.InjectedError{Site: "sweep"})
	aerr = ctxErr(tr, http.StatusUnprocessableEntity, "interpret")
	if aerr.status != http.StatusServiceUnavailable || aerr.stage != "transient" {
		t.Errorf("transient → %d %q, want 503 transient", aerr.status, aerr.stage)
	}

	dl := fmt.Errorf("sweep: %w", context.DeadlineExceeded)
	aerr = ctxErr(dl, http.StatusUnprocessableEntity, "interpret")
	if aerr.status != http.StatusGatewayTimeout || aerr.stage != "deadline" {
		t.Errorf("deadline → %d %q, want 504 deadline", aerr.status, aerr.stage)
	}
}

// TestInjectedServerPanicRecovered: the panic fault kind exercises the
// handler's recover path end to end and is counted in /metrics.
func TestInjectedServerPanicRecovered(t *testing.T) {
	withServerFaults(t, "server.analyze:1:panic", 3)
	_, ts := newTestServer(t, Config{})
	resp, raw := post(t, ts.URL+"/v1/analyze", map[string]any{"source": tinyProgram})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d body %s, want 500 from injected panic", resp.StatusCode, raw)
	}
	var er ErrorResponse
	if json.Unmarshal(raw, &er) != nil || er.Stage != "internal" {
		t.Errorf("body = %s, want internal stage", raw)
	}
	metrics := string(mustReadAll(t, ts.URL+"/metrics"))
	if strings.Contains(metrics, "hpfserve_panics_total 0\n") {
		t.Error("injected panic not counted in hpfserve_panics_total")
	}
	// The server survives: faults off, the same route works.
	faults.Deactivate()
	if resp, raw := post(t, ts.URL+"/v1/analyze", map[string]any{"source": tinyProgram}); resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d body %s after recovery", resp.StatusCode, raw)
	}
}

// TestDrainRejectionAdvertisesRetryAfter: the drain refusal is an
// overload signal clients may retry against a peer, so it carries
// Retry-After now.
func TestDrainRejectionAdvertisesRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, raw := post(t, ts.URL+"/v1/predict", map[string]any{"source": tinyProgram})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d body %s, want 503 while draining", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain rejection missing Retry-After")
	}
	var er ErrorResponse
	if json.Unmarshal(raw, &er) != nil || er.Stage != "overload" {
		t.Errorf("drain body = %s, want overload stage", raw)
	}
}

// TestRefusalsCarryCorrelationIDs is the regression test for the
// request-ID gap: shed (429) and drain (503) refusals used to omit
// request_id/trace_id, leaving refused requests uncorrelatable with
// server logs. Every refusal path — the gate's drain, shed and cost
// refusals, 405s and handler 500s — must carry both fields in the body
// and the X-HPF-Request-Id header.
func TestRefusalsCarryCorrelationIDs(t *testing.T) {
	checkIDs := func(t *testing.T, resp *http.Response, raw []byte) {
		t.Helper()
		if resp.Header.Get("X-HPF-Request-Id") == "" {
			t.Error("refusal missing X-HPF-Request-Id header")
		}
		if resp.Header.Get("traceparent") == "" {
			t.Error("refusal missing traceparent header")
		}
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatalf("refusal body not JSON: %v: %s", err, raw)
		}
		if er.RequestID == "" {
			t.Errorf("refusal body missing request_id: %s", raw)
		}
		if er.TraceID == "" {
			t.Errorf("refusal body missing trace_id: %s", raw)
		}
		if got := resp.Header.Get("X-HPF-Request-Id"); got != er.RequestID {
			t.Errorf("header request ID %q != body request_id %q", got, er.RequestID)
		}
	}

	t.Run("shed-429", func(t *testing.T) {
		_, ts := newTestServer(t, Config{
			MaxConcurrent: 1,
			MaxQueueDepth: 1,
			QueueWait:     5 * time.Second,
		})
		slow := map[string]any{"source": bigSource(60), "runs": 2}
		type outcome struct {
			resp *http.Response
			body []byte
		}
		const concurrent = 4
		results := make(chan outcome, concurrent)
		var wg sync.WaitGroup
		for i := 0; i < concurrent; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, body := post(t, ts.URL+"/v1/measure", slow)
				results <- outcome{resp, body}
			}()
		}
		wg.Wait()
		close(results)
		shed := 0
		for out := range results {
			if out.resp.StatusCode != http.StatusTooManyRequests {
				continue
			}
			shed++
			checkIDs(t, out.resp, out.body)
		}
		if shed == 0 {
			t.Fatal("gate never shed a request; cannot assert the 429 path")
		}
	})

	t.Run("internal-500", func(t *testing.T) {
		withServerFaults(t, "server.predict:1:error", 7)
		_, ts := newTestServer(t, Config{})
		resp, raw := post(t, ts.URL+"/v1/predict", map[string]any{"source": tinyProgram})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("status = %d body %s, want 500", resp.StatusCode, raw)
		}
		checkIDs(t, resp, raw) // 500s carry IDs too
	})

	// checkCostRefusal asserts the shape of a cost-admission 429: IDs,
	// the admission stage, Retry-After and the estimate against limit.
	checkCostRefusal := func(t *testing.T, resp *http.Response, raw []byte, limit float64) {
		t.Helper()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d body %s, want 429", resp.StatusCode, raw)
		}
		checkIDs(t, resp, raw)
		if got := resp.Header.Get("Retry-After"); got != "1" {
			t.Errorf("Retry-After = %q, want 1", got)
		}
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatal(err)
		}
		if er.Stage != "admission" {
			t.Errorf("stage = %q, want admission", er.Stage)
		}
		if er.EstimatedCostUnits <= limit || er.CostLimitUnits != limit {
			t.Errorf("estimate %g against limit %g, want an estimate over the %g limit", er.EstimatedCostUnits, er.CostLimitUnits, limit)
		}
	}

	t.Run("cost-ceiling-429", func(t *testing.T) {
		_, ts := newTestServer(t, Config{MaxCostUnits: 1})
		resp, raw := post(t, ts.URL+"/v1/predict", map[string]any{"source": tinyProgram})
		checkCostRefusal(t, resp, raw, 1)
	})

	t.Run("inflight-budget-429", func(t *testing.T) {
		s, ts := newTestServer(t, Config{MaxInflightCostUnits: 1})
		// Occupy part of the budget so the idle-budget rule does not
		// admit the request.
		s.met.costInflightMilli.Store(500)
		defer s.met.costInflightMilli.Store(0)
		resp, raw := post(t, ts.URL+"/v1/predict", map[string]any{"source": tinyProgram})
		checkCostRefusal(t, resp, raw, 1)
	})

	t.Run("drain-503", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		resp, raw := post(t, ts.URL+"/v1/predict", map[string]any{"source": tinyProgram})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d body %s, want 503 while draining", resp.StatusCode, raw)
		}
		checkIDs(t, resp, raw)
	})

	t.Run("method-not-allowed-405", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		resp, err := http.Get(ts.URL + "/v1/predict")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
		checkIDs(t, resp, raw)
	})
}

// TestShutdownRacesNewRequests: a request that arrives while Shutdown
// runs is either served, and waited for, or refused as draining. None
// may join the drain group after Shutdown has begun to wait on it: that
// is a data race on the WaitGroup, can panic with "WaitGroup is reused
// before previous Wait has returned", and lets Shutdown return with the
// request still in flight. The events variant registers SSE streams
// through the same step.
func TestShutdownRacesNewRequests(t *testing.T) {
	const rounds, callers = 20, 8
	predict, err := json.Marshal(PredictRequest{Source: tinyProgram})
	if err != nil {
		t.Fatal(err)
	}
	race := func(t *testing.T, s *Server, newReq func() *http.Request) {
		h := s.Handler()
		stop := make(chan struct{})
		var wg, running sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			running.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, newReq())
					if rec.Code != http.StatusOK && rec.Code != http.StatusServiceUnavailable {
						t.Errorf("status %d during shutdown: %s", rec.Code, rec.Body)
					}
					if n == 0 {
						running.Done()
					}
				}
			}()
		}
		// Shut down only once every caller is sending.
		running.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if n := s.met.inflight.Load(); n != 0 {
			t.Errorf("%d requests in flight after Shutdown returned", n)
		}
		close(stop)
		wg.Wait()
	}

	t.Run("api", func(t *testing.T) {
		// The servers share an engine, so only the first round compiles.
		eng := sweep.New(sweep.Options{})
		for round := 0; round < rounds; round++ {
			race(t, New(Config{Engine: eng}), func() *http.Request {
				return httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predict))
			})
		}
	})

	t.Run("events", func(t *testing.T) {
		// Every round's fresh server opens the same journal and streams
		// the job the first round finished, replayed from it.
		dir := t.TempDir()
		var id string
		for round := 0; round < rounds; round++ {
			s := New(Config{})
			if err := s.OpenJobs(jobs.Config{Dir: dir}); err != nil {
				t.Fatal(err)
			}
			if id == "" {
				payload, err := json.Marshal(JobSubmitRequest{Kind: JobKindPredict, Predict: &PredictRequest{Source: tinyProgram}})
				if err != nil {
					t.Fatal(err)
				}
				view, err := s.Jobs().Submit(JobKindPredict, payload, jobs.Options{})
				if err != nil {
					t.Fatal(err)
				}
				sub, err := s.Jobs().Subscribe(view.ID, 0)
				if err != nil {
					t.Fatal(err)
				}
				for ev := range sub.C {
					if ev.Terminal {
						break
					}
				}
				sub.Cancel()
				id = view.ID
			}
			race(t, s, func() *http.Request {
				return httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/events", nil)
			})
		}
	})
}

// TestHealedRouteServesAtOnce: a route that failed every request serves
// again with the first request after it heals, and other routes are
// never refused on its account. No failure history holds it shut.
func TestHealedRouteServesAtOnce(t *testing.T) {
	withServerFaults(t, "server.measure:1:error", 1)
	_, ts := newTestServer(t, Config{})
	measure := MeasureRequest{Source: tinyProgram, NoPerturb: true}
	for i := 0; i < 10; i++ {
		resp, raw := post(t, ts.URL+"/v1/measure", measure)
		var er ErrorResponse
		if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(raw, &er) != nil || er.Stage != "internal" {
			t.Fatalf("measure %d under the fault: status %d body %s, want a 500 internal", i, resp.StatusCode, raw)
		}
	}
	faults.Deactivate()
	if resp, raw := post(t, ts.URL+"/v1/measure", measure); resp.StatusCode != http.StatusOK {
		t.Errorf("first measure after the fault cleared: status %d body %s, want 200", resp.StatusCode, raw)
	}
	if resp, raw := post(t, ts.URL+"/v1/predict", PredictRequest{Source: tinyProgram}); resp.StatusCode != http.StatusOK {
		t.Errorf("predict after the fault cleared: status %d body %s, want 200", resp.StatusCode, raw)
	}
}
