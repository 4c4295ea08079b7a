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
	"sync/atomic"
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
		c := &atomic.Int64{}
		c.Store(r.n)
		m.requests[m.key(r.route, r.code)] = c
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
// one-slot gate, and checks every scrape with checkScrape.
func TestMetricsScrapeUnderTraffic(t *testing.T) {
	_, base := newJobsServer(t, Config{TraceAll: true, MaxConcurrent: 1, MaxQueueDepth: 1}, jobs.Config{})
	predict := PredictRequest{Source: tinyProgram}
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
			for i := 0; i < 20; i++ {
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
}
