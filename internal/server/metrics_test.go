package server

// The exposition golden pins the shape of /metrics: every HELP and TYPE
// line and every series' name and label set, in both exposition
// formats, with values masked and exemplars dropped. A change to a
// family, a label or the series order shows up as a diff here;
// a change to a value does not. Regenerate only when the change is
// meant:
//
//	go test ./internal/server -run TestMetricsExpositionGolden -update

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hpfperf/internal/jobs"
	"hpfperf/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite the /metrics goldens with current output")

const (
	metricsGoldenPath = "testdata/metrics_exposition.golden"
	valuesGoldenPath  = "testdata/metrics_values.golden"
)

// seriesShape reduces one exposition line to what the golden pins:
// comment lines verbatim, sample lines to name and label set.
func seriesShape(line string) string {
	if strings.HasPrefix(line, "#") {
		return line
	}
	end := strings.IndexAny(line, " {")
	if end < 0 {
		return line
	}
	if line[end] == '{' {
		inQuote := false
		for end++; end < len(line); end++ {
			switch c := line[end]; {
			case c == '\\' && inQuote:
				end++
			case c == '"':
				inQuote = !inQuote
			case c == '}' && !inQuote:
				return line[:end+1]
			}
		}
	}
	return line[:end]
}

func scrapeShape(t *testing.T, base, accept string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("=== " + resp.Header.Get("Content-Type") + "\n")
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		b.WriteString(seriesShape(line) + "\n")
	}
	return b.String()
}

// TestMetricsExpositionGolden scrapes a fresh server with jobs open,
// after one successful request per route, in the classic text format
// and in OpenMetrics. Every request is traced, so the OpenMetrics
// buckets carry the exemplars the shape drops.
func TestMetricsExpositionGolden(t *testing.T) {
	_, base := newJobsServer(t, Config{TraceAll: true}, jobs.Config{})
	predict := PredictRequest{Source: tinyProgram}
	for _, c := range []struct {
		route string
		body  any
	}{
		{"predict", predict},
		{"measure", MeasureRequest{Source: tinyProgram, NoPerturb: true}},
		{"autotune", AutotuneRequest{Source: tinyProgram, Procs: 4, Limit: 1}},
		{"analyze", AnalyzeRequest{Source: tinyProgram}},
		{"batch", BatchRequest{Points: []BatchPoint{{Predict: &predict}}}},
	} {
		if resp, body := post(t, base+"/v1/"+c.route, c.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.route, resp.StatusCode, body)
		}
	}
	resp, body := post(t, base+"/v1/jobs", JobSubmitRequest{Kind: JobKindPredict, Predict: &predict})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("jobs: status %d: %s", resp.StatusCode, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if evs := openSSE(t, base, sub.Job.ID, 0).collectSSE(t); len(evs) == 0 || !evs[len(evs)-1].Terminal {
		t.Fatalf("job event stream ended without a terminal event: %+v", evs)
	}
	waitCounted(t, base, routeEvents, 1)

	got := scrapeShape(t, base, "") + scrapeShape(t, base, "application/openmetrics-text")
	if *update {
		if err := os.MkdirAll(filepath.Dir(metricsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(metricsGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("/metrics shape differs from %s at line %d:\n got %q\nwant %q", metricsGoldenPath, i+1, g, w)
			}
		}
	}
}

// routeTotals scrapes /metrics and returns, by route, the sum of
// hpfserve_requests_total over the codes and the latency histogram's
// _count.
func routeTotals(t *testing.T, base string) (requests, observed map[string]float64) {
	t.Helper()
	samples, err := checkScrape(string(mustReadAll(t, base+"/metrics")), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	requests, observed = make(map[string]float64), make(map[string]float64)
	for series, v := range samples {
		if rest, ok := strings.CutPrefix(series, `hpfserve_requests_total{route="`); ok {
			route, _, _ := strings.Cut(rest, `"`)
			requests[route] += v
		}
		if rest, ok := strings.CutPrefix(series, `hpfserve_request_duration_seconds_count{route="`); ok {
			route, _, _ := strings.Cut(rest, `"`)
			observed[route] = v
		}
	}
	return requests, observed
}

// waitCounted polls /metrics until route has counted n requests and
// returns that scrape's routeTotals. A stream is counted when its
// handler returns, which can be after the client has read the
// terminal event.
func waitCounted(t *testing.T, base, route string, n float64) (requests, observed map[string]float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		requests, observed = routeTotals(t, base)
		if requests[route] >= n {
			return requests, observed
		}
		if time.Now().After(deadline) {
			t.Fatalf("route %s counted %g requests, want %g", route, requests[route], n)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkCountedOnce fails unless every route's request count is the
// count of its latency histogram, and the request counts are want.
func checkCountedOnce(t *testing.T, requests, observed map[string]float64, want map[string]float64) {
	t.Helper()
	for route, n := range observed {
		if requests[route] != n {
			t.Errorf("route %s: %g requests counted, %g latencies observed", route, requests[route], n)
		}
	}
	for route, n := range requests {
		if _, ok := observed[route]; !ok {
			t.Errorf("route %s: %g requests counted and no latency histogram", route, n)
		}
	}
	for route, n := range want {
		if requests[route] != n {
			t.Errorf("route %s: %g requests counted, want %g", route, requests[route], n)
		}
	}
}

// TestEveryRouteCountedOnce sends one request of each kind the job
// routes answer, refusals and one full event stream included, a 405 on
// a POST route and a 501 from a server with jobs off. Each request is
// counted once and its latency observed once, under its own route.
func TestEveryRouteCountedOnce(t *testing.T) {
	_, base := newJobsServer(t, Config{}, jobs.Config{})
	id := submitPredictJob(t, base, 2)
	if evs := openSSE(t, base, id, 0).collectSSE(t); len(evs) == 0 || !evs[len(evs)-1].Terminal {
		t.Fatalf("job event stream ended without a terminal event: %+v", evs)
	}
	for _, c := range []struct {
		method, path, lastEventID string
		want                      int
	}{
		{http.MethodGet, "/v1/jobs", "", http.StatusOK},
		{http.MethodGet, "/v1/jobs/" + id, "", http.StatusOK},
		{http.MethodGet, "/v1/jobs/no-such-job", "", http.StatusNotFound},
		{http.MethodDelete, "/v1/jobs/" + id, "", http.StatusOK},
		{http.MethodGet, "/v1/jobs/" + id + "/events", "-1", http.StatusBadRequest},
		{http.MethodGet, "/v1/predict", "", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(c.method, base+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.lastEventID != "" {
			req.Header.Set("Last-Event-ID", c.lastEventID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
	requests, observed := waitCounted(t, base, routeEvents, 2)
	checkCountedOnce(t, requests, observed, map[string]float64{routeJobs: 5, routeEvents: 2, routePredict: 1})

	_, off := newTestServer(t, Config{})
	if r := getJSON(t, off.URL+"/v1/jobs", nil); r.StatusCode != http.StatusNotImplemented {
		t.Fatalf("GET /v1/jobs with jobs off: status %d, want 501", r.StatusCode)
	}
	requests, observed = routeTotals(t, off.URL)
	checkCountedOnce(t, requests, observed, map[string]float64{routeJobs: 1})
}

// TestRecordRequestAllocs: after the first request of a route and
// code, counting another allocates nothing.
func TestRecordRequestAllocs(t *testing.T) {
	m := newMetrics(nil)
	m.recordRequest(routeJobs, http.StatusOK)
	if n := testing.AllocsPerRun(100, func() { m.recordRequest(routeJobs, http.StatusOK) }); n != 0 {
		t.Errorf("recordRequest allocates %v objects per request after the first, want 0", n)
	}
}

// TestMetricsExpositionValues pins what the shape golden masks: every
// value and exemplar, in both formats, for fixed counters. Each counter
// is distinct and non-zero, so two swapped samples show; one count is
// past 1e7, so printing an integer with %g (1.2e+07) shows; the
// admitted cost is fractional, so printing a float with %d shows.
// Regenerate only when the change is meant:
//
//	go test ./internal/server -run TestMetricsExpositionValues -update
func TestMetricsExpositionValues(t *testing.T) {
	m := newMetrics([]string{routePredict, routeMeasure, routeAutotune, routeAnalyze, routeBatch, routeJobs})
	for _, r := range []struct {
		route string
		code  int
		n     int64
	}{
		{routeJobs, 200, 12_000_000},
		{routeJobs, 429, 17},
		{routeEvents, 200, 19},
	} {
		m.requests[reqKey{r.route, r.code}] = r.n
	}
	m.latency[routeJobs].observe(0.0004, "")
	m.latency[routeJobs].observe(0.0007, "")
	m.latency[routeJobs].observe(0.03, "0af7651916cd43dd8448eb211c80319c")
	m.latency[routeJobs].observe(12.5, "4bf92f3577b34da6a3ce929d0e0e4736")
	m.latency[routePredict].observe(0.002, "")
	m.inflight.Store(2)
	m.queued.Store(3)
	m.rejected.Store(4)
	m.shed.Store(5)
	m.panics.Store(6)
	m.costRejected.Store(7)
	m.costInflightMilli.Store(1500)
	m.costAdmittedMilli.Add(2500750)
	m.batchPointsOK.Store(8)
	m.batchPointsFailed.Store(9)
	m.sseStreams.Store(10)
	m.sseEvents.Store(11)
	m.sseHeartbeats.Store(12)

	snap := sweep.Snapshot{
		Compiles: 21, CompileHits: 22, CompileMisses: 23,
		Interps: 24, PredictHits: 25, PredictMisses: 26,
		ReportHits: 27, ReportMisses: 28,
		Execs: 29, ExecHits: 30, ExecMisses: 31,
		Retries: 32, PointPanics: 33, CheckpointSkips: 34,
		CompileTime: 1250 * time.Millisecond,
		InterpTime:  2 * time.Second,
		ExecTime:    3750 * time.Microsecond,
	}
	cs := sweep.CacheStats{
		Cap:            256,
		CompileEntries: 41, PredictEntries: 42, ReportEntries: 43, MeasureEntries: 44,
		CompileEvictions: 45, PredictEvictions: 46, ReportEvictions: 47, MeasureEvictions: 48,
	}
	jm := jobs.Metrics{
		ByState: map[jobs.State]int{
			jobs.StateSubmitted: 51, jobs.StateRunning: 52, jobs.StateDone: 53,
			jobs.StateFailed: 54, jobs.StateCancelled: 55,
		},
		SubmittedTotal: 56, DoneTotal: 57, FailedTotal: 58, CancelledTotal: 59,
		ResumedTotal: 60, HandoffTotal: 61, ReplayRecords: 62, ReplayTruncations: 63,
		Compactions: 64, RetentionDropped: 65, JournalBytes: 66,
		RecoverySeconds: 0.125, Subscribers: 67, EventsTotal: 68, SubscriberDrops: 69,
	}

	var got strings.Builder
	for _, om := range []bool{false, true} {
		fmt.Fprintf(&got, "=== openmetrics=%v\n", om)
		var b strings.Builder
		m.render(&b, snap, cs, om)
		renderJobsMetrics(&b, jm)
		got.WriteString(b.String())
	}
	if *update {
		if err := os.WriteFile(valuesGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(valuesGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("/metrics differs from %s at line %d:\n got %q\nwant %q", valuesGoldenPath, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("/metrics has %d lines, %s has %d", len(gl), valuesGoldenPath, len(wl))
	}
}

// checkScrape parses one /metrics scrape and reports the first way it
// is malformed: a sample outside the family its HELP and TYPE lines
// open, histogram buckets whose le or cumulative count falls, a _count
// unequal to its +Inf bucket, an exemplar off a bucket line or outside
// OpenMetrics, a missing or stray # EOF, or a counter or histogram
// sample lower than in prev, the same client's previous scrape. It
// returns the scrape's counter and histogram samples by series.
func checkScrape(text string, om bool, prev map[string]float64) (map[string]float64, error) {
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if om {
		if lines[len(lines)-1] != "# EOF" {
			return nil, fmt.Errorf("OpenMetrics scrape does not end in # EOF")
		}
		lines = lines[:len(lines)-1]
	}
	cur := make(map[string]float64)
	var name, typ string
	// Per histogram series (its labels without le): the last bucket's
	// le and cumulative count, and the +Inf bucket's count.
	lastLE, lastCum, infCount := make(map[string]float64), make(map[string]float64), make(map[string]float64)
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if help, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ = strings.Cut(help, " ")
			if i+1 == len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+name+" ") {
				return nil, fmt.Errorf("HELP of %s not followed by its TYPE", name)
			}
			i++
			typ = strings.TrimPrefix(lines[i], "# TYPE "+name+" ")
			continue
		}
		if strings.HasPrefix(line, "#") {
			return nil, fmt.Errorf("stray comment line %q", line)
		}
		series := seriesShape(line)
		rest := strings.TrimPrefix(line[len(series):], " ")
		valText, ex, hasEx := strings.Cut(rest, " # ")
		v, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			return nil, fmt.Errorf("sample %q: %v", line, err)
		}
		sname, labels, _ := strings.Cut(series, "{")
		suffix, ok := strings.CutPrefix(sname, name)
		if name == "" || !ok || (suffix != "" && typ != "histogram") {
			return nil, fmt.Errorf("sample %q outside its family (open family %q)", line, name)
		}
		if hasEx && (!om || suffix != "_bucket" || !strings.HasPrefix(ex, `{trace_id="`)) {
			return nil, fmt.Errorf("exemplar on %q (openmetrics=%v)", line, om)
		}
		if typ == "histogram" {
			group, le, _ := strings.Cut(labels, ",le=")
			group = strings.TrimSuffix(group, "}")
			switch suffix {
			case "_bucket":
				bound, err := strconv.ParseFloat(strings.Trim(le, `"}`), 64)
				if err != nil {
					return nil, fmt.Errorf("bucket %q: %v", line, err)
				}
				if last, seen := lastLE[group]; seen && (bound <= last || v < lastCum[group]) {
					return nil, fmt.Errorf("bucket %q does not ascend", line)
				}
				lastLE[group], lastCum[group] = bound, v
				if math.IsInf(bound, 1) {
					infCount[group] = v
				}
			case "_count":
				if inf, seen := infCount[group]; !seen || inf != v {
					return nil, fmt.Errorf("%q: _count differs from the +Inf bucket (%g)", line, inf)
				}
			}
		}
		if typ == "counter" || typ == "histogram" {
			if p, seen := prev[series]; seen && v < p {
				return nil, fmt.Errorf("%s fell from %g to %g", series, p, v)
			}
			cur[series] = v
		}
	}
	return cur, nil
}

// TestMetricsScrapeUnderTraffic scrapes /metrics in both formats while
// predict and batch requests run, some of them shed with 429 by a
// one-slot gate, while a job is polled and its event stream opened and
// closed, and checks every scrape with checkScrape. Once the traffic
// ends, every request is counted once and its latency observed once.
func TestMetricsScrapeUnderTraffic(t *testing.T) {
	_, base := newJobsServer(t, Config{TraceAll: true, MaxConcurrent: 1, MaxQueueDepth: 1}, jobs.Config{})
	predict := PredictRequest{Source: tinyProgram}
	id := submitPredictJob(t, base, 2)
	pollJob(t, base, id)
	before, _ := routeTotals(t, base)
	const rounds = 20
	bodies := []struct {
		route string
		body  any
	}{
		{"predict", predict},
		{"batch", BatchRequest{Points: []BatchPoint{{Predict: &predict}, {Predict: &PredictRequest{Source: "garbage ("}}}}},
	}
	var traffic, scrapers sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		traffic.Add(1)
		go func(g int) {
			defer traffic.Done()
			c := bodies[g%len(bodies)]
			raw, _ := json.Marshal(c.body)
			for i := 0; i < rounds; i++ {
				resp, err := http.Post(base+"/v1/"+c.route, "application/json", strings.NewReader(string(raw)))
				if err != nil {
					t.Errorf("%s: %v", c.route, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("%s: status %d", c.route, resp.StatusCode)
				}
			}
		}(g)
	}
	// One client polls the job; another opens its event stream, reads
	// every other one to the terminal event and closes the rest after
	// their first line.
	traffic.Add(2)
	go func() {
		defer traffic.Done()
		for i := 0; i < rounds; i++ {
			resp, err := http.Get(base + "/v1/jobs/" + id)
			if err != nil {
				t.Errorf("poll: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("poll: status %d", resp.StatusCode)
			}
		}
	}()
	go func() {
		defer traffic.Done()
		for i := 0; i < rounds; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				cancel()
				t.Errorf("stream: %v", err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("stream: status %d", resp.StatusCode)
			}
			if i%2 == 0 {
				io.Copy(io.Discard, resp.Body)
			} else {
				bufio.NewReader(resp.Body).ReadString('\n')
			}
			cancel()
			resp.Body.Close()
		}
	}()
	for _, accept := range []string{"", "application/openmetrics-text"} {
		scrapers.Add(1)
		go func(accept string) {
			defer scrapers.Done()
			var prev map[string]float64
			for n := 0; ; n++ {
				select {
				case <-done:
					if n >= 2 {
						return
					}
				default:
				}
				req, _ := http.NewRequest(http.MethodGet, base+"/metrics", nil)
				if accept != "" {
					req.Header.Set("Accept", accept)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				cur, err := checkScrape(string(raw), accept != "", prev)
				if err != nil {
					t.Errorf("scrape %d (Accept %q): %v", n, accept, err)
					return
				}
				prev = cur
			}
		}(accept)
	}
	traffic.Wait()
	close(done)
	scrapers.Wait()

	requests, observed := waitCounted(t, base, routeEvents, before[routeEvents]+rounds)
	checkCountedOnce(t, requests, observed, map[string]float64{
		routePredict: 2 * rounds, routeBatch: 2 * rounds,
		routeJobs: before[routeJobs] + rounds, routeEvents: before[routeEvents] + rounds,
	})
}
