package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hpfperf/internal/jobs"
	"hpfperf/internal/obs"
)

// sseClient reads one GET /v1/jobs/{id}/events stream.
type sseClient struct {
	resp   *http.Response
	sc     *bufio.Scanner
	cancel context.CancelFunc
}

// openSSE starts a stream; lastEventID > 0 sends the resume cursor.
func openSSE(t *testing.T, base, id string, lastEventID int) *sseClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(lastEventID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatalf("open stream: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		body := make([]byte, 512)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		cancel()
		t.Fatalf("stream status = %d: %s", resp.StatusCode, body[:n])
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	c := &sseClient{resp: resp, sc: bufio.NewScanner(resp.Body), cancel: cancel}
	t.Cleanup(c.close)
	return c
}

func (c *sseClient) close() {
	c.cancel()
	c.resp.Body.Close()
}

// next reads SSE frames until one full event arrives, returning it plus
// how many heartbeat comments passed by. ok=false means the stream
// ended.
func (c *sseClient) next(t *testing.T) (ev jobs.Event, heartbeats int, ok bool) {
	t.Helper()
	var data string
	var sawID, sawEvent string
	for c.sc.Scan() {
		line := c.sc.Text()
		switch {
		case line == "":
			if data == "" {
				continue
			}
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("event data %q: %v", data, err)
			}
			// The id:/event: framing must agree with the JSON payload —
			// that is what EventSource exposes and what Last-Event-ID
			// echoes back.
			if sawID != strconv.Itoa(ev.Seq) {
				t.Fatalf("id: line %q, payload seq %d", sawID, ev.Seq)
			}
			if sawEvent != string(ev.State) {
				t.Fatalf("event: line %q, payload state %s", sawEvent, ev.State)
			}
			return ev, heartbeats, true
		case strings.HasPrefix(line, ": hb"):
			heartbeats++
		case strings.HasPrefix(line, "id: "):
			sawID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			sawEvent = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	return jobs.Event{}, heartbeats, false
}

// collectSSE reads events until the stream closes or a terminal event.
func (c *sseClient) collectSSE(t *testing.T) []jobs.Event {
	t.Helper()
	var out []jobs.Event
	for {
		ev, _, ok := c.next(t)
		if !ok {
			return out
		}
		out = append(out, ev)
		if ev.Terminal {
			return out
		}
	}
}

func submitPredictJob(t *testing.T, base string, iters int) string {
	t.Helper()
	resp, body := post(t, base+"/v1/jobs", JobSubmitRequest{
		Kind:    JobKindPredict,
		Predict: &PredictRequest{Source: bigSource(iters)},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	return sub.Job.ID
}

// TestJobEventsStreamReplaysJournal: the SSE stream of a finished job
// is exactly the job's retained event history — the same sequence the
// WAL records — and a dropped connection resumes with Last-Event-ID
// without duplicating or skipping transitions.
func TestJobEventsStreamReplaysJournal(t *testing.T) {
	s, base := newJobsServer(t, Config{}, jobs.Config{})
	id := submitPredictJob(t, base, 5)
	pollJob(t, base, id)

	// Full stream from the start.
	got := openSSE(t, base, id, 0).collectSSE(t)
	want, err := s.Jobs().Events(id)
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d events, history has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		g.Time, w.Time = time.Time{}, time.Time{} // JSON round-trip monotonic-clock loss
		if g != w {
			t.Fatalf("event %d: streamed %+v, history %+v", i, g, w)
		}
	}
	if !got[len(got)-1].Terminal || got[len(got)-1].State != jobs.StateDone {
		t.Fatalf("stream end: %+v", got[len(got)-1])
	}

	// Drop after the second event, resume with Last-Event-ID: the tail
	// must butt-join the prefix exactly.
	c := openSSE(t, base, id, 0)
	var prefix []jobs.Event
	for len(prefix) < 2 {
		ev, _, ok := c.next(t)
		if !ok {
			t.Fatal("stream ended before 2 events")
		}
		prefix = append(prefix, ev)
	}
	c.close() // dropped connection

	tail := openSSE(t, base, id, prefix[1].Seq).collectSSE(t)
	joined := append(prefix, tail...)
	if len(joined) != len(want) {
		t.Fatalf("prefix+tail = %d events, want %d", len(joined), len(want))
	}
	for i := range joined {
		if joined[i].Seq != want[i].Seq || joined[i].State != want[i].State {
			t.Fatalf("resumed event %d: %+v, want seq %d state %s", i, joined[i], want[i].Seq, want[i].State)
		}
	}

	// A cursor from a previous server generation replays everything.
	if again := openSSE(t, base, id, 10_000).collectSSE(t); len(again) != len(want) {
		t.Fatalf("stale cursor replayed %d events, want %d", len(again), len(want))
	}
}

func TestJobEventsErrors(t *testing.T) {
	_, base := newJobsServer(t, Config{}, jobs.Config{})

	resp, err := http.Get(base + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
	}

	id := submitPredictJob(t, base, 2)
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor: %d, want 400", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !strings.Contains(er.Error, "Last-Event-ID") {
		t.Fatalf("error: %q", er.Error)
	}
}

func TestJobEventsDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/x/events")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("jobs-disabled stream: %d, want 501 (same answer as every other jobs route)", resp.StatusCode)
	}
}

// TestJobEventsHeartbeat: an idle stream (job queued behind a busy
// worker) emits comment heartbeats so intermediaries keep the
// connection open, then ends with the terminal event when the job is
// cancelled.
func TestJobEventsHeartbeat(t *testing.T) {
	s, base := newJobsServer(t, Config{SSEHeartbeat: 5 * time.Millisecond}, jobs.Config{Workers: 1})

	// Park the single worker on a validation job big enough to outlive
	// the assertions below, then queue a second job behind it.
	resp, body := post(t, base+"/v1/jobs", JobSubmitRequest{
		Kind:     JobKindValidate,
		Validate: &ValidateJobRequest{Seed: 1, Count: 400},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit blocker: %d %s", resp.StatusCode, body)
	}
	id := submitPredictJob(t, base, 2)

	c := openSSE(t, base, id, 0)
	ev, _, ok := c.next(t)
	if !ok || ev.State != jobs.StateSubmitted {
		t.Fatalf("first event: %+v ok=%v", ev, ok)
	}

	// The queued job produces no transitions; heartbeats must flow.
	deadline := time.Now().Add(5 * time.Second)
	for s.met.sseHeartbeats.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat on an idle stream")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Cancel the queued job: the stream delivers cancelled and ends.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	dresp.Body.Close()
	ev, hb, ok := c.next(t)
	if !ok || ev.State != jobs.StateCancelled || !ev.Terminal {
		t.Fatalf("after cancel: %+v ok=%v", ev, ok)
	}
	if hb == 0 {
		t.Error("no heartbeat comment observed on the wire before the terminal event")
	}
	if _, _, ok := c.next(t); ok {
		t.Fatal("stream kept going after the terminal event")
	}
}

// lockedBuffer is a log sink the handler goroutines and the test share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestJobRefusalsLogged: the job routes outside api() refuse through
// fail, so a refusal's request_id names a "request failed" log line. A
// subscriber-limit 429 on the event stream and a GET of an unknown job
// each log exactly one such line, with the stage of the response body.
func TestJobRefusalsLogged(t *testing.T) {
	var logs lockedBuffer
	release := make(chan struct{})
	defer close(release)
	held := func(ctx context.Context, _ jobs.JobView, _ jobs.ExecEnv) (json.RawMessage, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return json.RawMessage(`{}`), nil
	}
	_, base := newJobsServer(t, Config{Log: obs.NewLogger(&logs, slog.LevelInfo)},
		jobs.Config{MaxSubscribers: 1, Exec: held})
	id := submitPredictJob(t, base, 2)
	openSSE(t, base, id, 0) // takes the only subscriber slot

	for _, c := range []struct {
		path       string
		wantStatus int
	}{
		{"/v1/jobs/" + id + "/events", http.StatusTooManyRequests},
		{"/v1/jobs/no-such-job", http.StatusNotFound},
	} {
		var er ErrorResponse
		resp := getJSON(t, base+c.path, &er)
		if resp.StatusCode != c.wantStatus || er.RequestID == "" {
			t.Fatalf("GET %s: %d %+v, want %d with a request_id", c.path, resp.StatusCode, er, c.wantStatus)
		}
		if ra := resp.Header.Get("Retry-After"); (c.wantStatus == http.StatusTooManyRequests) != (ra == "1") {
			t.Errorf("GET %s: Retry-After %q", c.path, ra)
		}
		var lines []map[string]any
		for _, l := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
			var rec map[string]any
			if err := json.Unmarshal([]byte(l), &rec); err == nil && rec["request_id"] == er.RequestID {
				lines = append(lines, rec)
			}
		}
		if len(lines) != 1 || lines[0]["msg"] != "request failed" || lines[0]["stage"] != er.Stage {
			t.Errorf("GET %s (stage %q): log lines for request %s = %v, want one \"request failed\" line with that stage",
				c.path, er.Stage, er.RequestID, lines)
		}
	}
}
