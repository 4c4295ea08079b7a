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
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpfperf/internal/jobs"
)

var update = flag.Bool("update", false, "rewrite the /metrics exposition golden with current output")

const metricsGoldenPath = "testdata/metrics_exposition.golden"

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
