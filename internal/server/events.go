// Streaming job progress: GET /v1/jobs/{id}/events serves one job's
// state transitions — submitted, running, checkpointed(n), and the
// terminal states — as a Server-Sent Events stream, replacing the
// GET /v1/jobs/{id} busy-poll loop. Framing follows the SSE wire
// format: each event carries `id:` (the per-job sequence number,
// which the browser EventSource and hpfclient echo back as
// Last-Event-ID on reconnect), `event:` (the state name) and one
// `data:` JSON line (jobs.Event). Idle streams emit `: hb` comment
// heartbeats so intermediaries keep the connection open. A dropped
// subscriber resumes from its last seen id: the jobs layer replays the
// retained history (rebuilt from the WAL on startup) past that cursor,
// and a cursor from a previous server generation replays from the
// start. The stream ends after a terminal event, when the jobs layer
// drops a slow consumer, or at server drain — clients fall back to
// polling on any non-SSE answer.

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"hpfperf/internal/jobs"
)

// handleJobEvents serves GET /v1/jobs/{id}/events, an untraced serve
// handler that counts the stream when it ends. It skips api's gate
// (worker slots and cost budgets are sized for request/response work,
// not long-lived streams) but passes the admission gate's drain check,
// which registers it with the drain group, so Shutdown waits for
// streams to tear down — which they do promptly, because jobs.Drain
// closes every subscription first.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, meta reqMeta) int {
	if aerr := s.jobsOff(); aerr != nil {
		return s.fail(w, routeEvents, meta, aerr)
	}
	after := 0
	cursor := r.Header.Get("Last-Event-ID")
	if cursor == "" {
		cursor = r.URL.Query().Get("after")
	}
	if cursor != "" {
		n, err := strconv.Atoi(cursor)
		if err != nil || n < 0 {
			return s.fail(w, routeEvents, meta, errf(http.StatusBadRequest, "decode",
				"Last-Event-ID must be a non-negative event sequence number, got %q", cursor))
		}
		after = n
	}
	sub, err := s.jobs.Subscribe(r.PathValue("id"), after)
	if err != nil {
		aerr := &apiError{status: http.StatusInternalServerError, stage: "jobs", err: err}
		switch err {
		case jobs.ErrNotFound:
			aerr.status = http.StatusNotFound
		case jobs.ErrDraining:
			aerr.status, aerr.stage = http.StatusServiceUnavailable, "overload"
		case jobs.ErrSubscriberLimit:
			aerr.status, aerr.stage = http.StatusTooManyRequests, "overload"
		}
		return s.fail(w, routeEvents, meta, aerr)
	}
	defer sub.Cancel()

	// The drain check follows Subscribe, so once jobs.Drain has run the
	// refusal is still the ErrDraining one above.
	if aerr := s.enter(); aerr != nil {
		return s.fail(w, routeEvents, meta, aerr)
	}
	defer s.inflight.Done()
	s.met.sseStreams.Add(1)
	defer s.met.sseStreams.Add(-1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // proxy buffering defeats streaming
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	_ = rc.Flush()

	// The 200 is out, so however the stream ends it is counted as one.
	hb := time.NewTicker(s.cfg.SSEHeartbeat)
	defer hb.Stop()
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				// Subscription ended without a terminal event: drain, or
				// this consumer fell behind and was dropped. The client
				// reconnects with its Last-Event-ID (or falls back to
				// polling during drain).
				return http.StatusOK
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return http.StatusOK
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.State, data); err != nil {
				return http.StatusOK
			}
			if err := rc.Flush(); err != nil {
				return http.StatusOK
			}
			s.met.sseEvents.Add(1)
			if ev.Terminal {
				return http.StatusOK
			}
		case <-hb.C:
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				return http.StatusOK
			}
			if err := rc.Flush(); err != nil {
				return http.StatusOK
			}
			s.met.sseHeartbeats.Add(1)
		case <-r.Context().Done():
			return http.StatusOK
		}
	}
}
