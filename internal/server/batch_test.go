package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"hpfperf/internal/corpus"
)

// postBatch posts a batch and decodes the 200 response.
func postBatch(t *testing.T, base string, req BatchRequest) *BatchResponse {
	t.Helper()
	resp, body := post(t, base+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("decode batch: %v", err)
	}
	return &br
}

// TestBatchEquivalentToSequential is the differential gate: a batch of
// N mixed predict/measure points over mixed sources must be
// byte-identical, point for point, to N sequential standalone calls —
// including the error objects of invalid points. Wall-clock fields
// (ElapsedUS) and request correlation (ResponseMeta) are zeroed on the
// sequential side before comparing; batch points never carry them.
func TestBatchEquivalentToSequential(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var points []BatchPoint
	for i, p := range corpus.Generate(7, 8) {
		if i%2 == 0 {
			points = append(points, BatchPoint{Predict: &PredictRequest{
				Source:   p.Source,
				Profile:  i%4 == 0,
				HotLines: i % 3,
				Options:  &PredictOptions{AverageLoad: i%4 == 2},
			}})
		} else {
			points = append(points, BatchPoint{Measure: &MeasureRequest{
				Source: p.Source,
				Runs:   1 + i%2,
				Seed:   int64(i),
			}})
		}
	}
	// Invalid points ride along without failing the batch: a bad
	// machine (validation), a bad source (compile), and a point that
	// sets neither arm.
	points = append(points,
		BatchPoint{Predict: &PredictRequest{Source: bigSource(2), Machine: "cray"}},
		BatchPoint{Measure: &MeasureRequest{Source: "not fortran"}},
		BatchPoint{},
	)

	// Sequential ground truth: one standalone call per point.
	type seq struct {
		status int
		body   []byte // normalized success payload, nil on error
		errRes ErrorResponse
	}
	want := make([]seq, len(points))
	for i, p := range points {
		var resp *http.Response
		var raw []byte
		switch {
		case p.Predict != nil:
			resp, raw = post(t, ts.URL+"/v1/predict", p.Predict)
		case p.Measure != nil:
			resp, raw = post(t, ts.URL+"/v1/measure", p.Measure)
		default:
			// Neither arm: the batch-only shape error has no sequential
			// counterpart; asserted directly below.
			want[i] = seq{status: http.StatusBadRequest}
			continue
		}
		want[i].status = resp.StatusCode
		if resp.StatusCode != http.StatusOK {
			if err := json.Unmarshal(raw, &want[i].errRes); err != nil {
				t.Fatalf("point %d: decode sequential error: %v", i, err)
			}
			continue
		}
		if p.Predict != nil {
			var pr PredictResponse
			if err := json.Unmarshal(raw, &pr); err != nil {
				t.Fatalf("point %d: decode sequential predict: %v", i, err)
			}
			pr.ResponseMeta, pr.ElapsedUS = ResponseMeta{}, 0
			want[i].body, _ = json.Marshal(&pr)
		} else {
			var mr MeasureResponse
			if err := json.Unmarshal(raw, &mr); err != nil {
				t.Fatalf("point %d: decode sequential measure: %v", i, err)
			}
			mr.ResponseMeta, mr.ElapsedUS = ResponseMeta{}, 0
			want[i].body, _ = json.Marshal(&mr)
		}
	}

	br := postBatch(t, ts.URL, BatchRequest{Points: points})
	if len(br.Results) != len(points) {
		t.Fatalf("batch returned %d results for %d points", len(br.Results), len(points))
	}
	if br.OK != len(points)-3 || br.Failed != 3 {
		t.Fatalf("ok/failed = %d/%d, want %d/3", br.OK, br.Failed, len(points)-3)
	}
	for i, res := range br.Results {
		if res.Index != i {
			t.Fatalf("result %d carries index %d", i, res.Index)
		}
		if want[i].body == nil {
			if res.Error == nil {
				t.Fatalf("point %d: batch succeeded where sequential failed", i)
			}
			if res.Error.Status != want[i].status {
				t.Errorf("point %d: status = %d, sequential %d", i, res.Error.Status, want[i].status)
			}
			if want[i].errRes.Error != "" &&
				(res.Error.Error != want[i].errRes.Error || res.Error.Stage != want[i].errRes.Stage) {
				t.Errorf("point %d: error = %q (%s), sequential %q (%s)",
					i, res.Error.Error, res.Error.Stage, want[i].errRes.Error, want[i].errRes.Stage)
			}
			continue
		}
		if res.Error != nil {
			t.Fatalf("point %d: batch error %q where sequential succeeded", i, res.Error.Error)
		}
		var got []byte
		if res.Predict != nil {
			got, _ = json.Marshal(res.Predict)
		} else {
			got, _ = json.Marshal(res.Measure)
		}
		if string(got) != string(want[i].body) {
			t.Errorf("point %d: batch != sequential\nbatch:      %s\nsequential: %s", i, got, want[i].body)
		}
	}
	// The neither-arm point gets the batch shape error.
	last := br.Results[len(points)-1].Error
	if last == nil || !strings.Contains(last.Error, "exactly one of predict or measure") {
		t.Fatalf("neither-arm point error: %+v", last)
	}
}

// TestBatchSingleSourceSingleCompile: a 100-point batch over one source
// compiles exactly once — the compile dedup plus the engine's
// single-flight cache make the whole table cost one front-end run.
func TestBatchSingleSourceSingleCompile(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := bigSource(3)
	points := make([]BatchPoint, 100)
	for i := range points {
		points[i] = BatchPoint{Predict: &PredictRequest{
			Source:   src,
			HotLines: i % 4,
			Profile:  i%2 == 0,
			Options:  &PredictOptions{AverageLoad: i%3 == 0},
		}}
	}
	br := postBatch(t, ts.URL, BatchRequest{Points: points})
	if br.OK != 100 || br.Failed != 0 {
		t.Fatalf("ok/failed = %d/%d", br.OK, br.Failed)
	}
	snap := s.Engine().Snapshot()
	if snap.Compiles != 1 {
		t.Fatalf("batch of 100 single-source points ran %d compiles, want exactly 1", snap.Compiles)
	}
	if snap.CompileHits != 0 || snap.CompileMisses != 1 {
		// The batch looks its one source up once; every point then
		// evaluates on the compile entry it holds.
		t.Fatalf("compile cache = %d hit / %d miss, want 0/1", snap.CompileHits, snap.CompileMisses)
	}
	cs := s.Engine().Cache().CacheStats()
	if cs.CompileEntries != 1 {
		t.Fatalf("compile cache holds %d entries, want 1", cs.CompileEntries)
	}

	// Distinct compile options are distinct compiles: flipping a
	// compiler-level flag on half the points adds exactly one more.
	points2 := make([]BatchPoint, 10)
	for i := range points2 {
		points2[i] = BatchPoint{Predict: &PredictRequest{
			Source:  src,
			Options: &PredictOptions{NoCommOpt: i%2 == 0},
		}}
	}
	postBatch(t, ts.URL, BatchRequest{Points: points2})
	if got := s.Engine().Snapshot().Compiles; got != 2 {
		t.Fatalf("after a NoCommOpt variant: %d compiles, want 2", got)
	}

	// The per-point outcomes land in the metrics series.
	resp, body := post(t, ts.URL+"/v1/predict", PredictRequest{Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up predict: %d: %s", resp.StatusCode, body)
	}
	_, metricsBody := get(t, ts.URL+"/metrics")
	if !strings.Contains(metricsBody, `hpfserve_batch_points_total{outcome="ok"} 110`) {
		t.Errorf("metrics missing batch ok counter:\n%s", grepLines(metricsBody, "batch"))
	}
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, sb.String()
}

func TestBatchValidationAndLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchPoints: 2})

	resp, body := post(t, ts.URL+"/v1/batch", BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "points is required") {
		t.Fatalf("empty batch: %d %s", resp.StatusCode, body)
	}

	three := BatchRequest{Points: []BatchPoint{
		{Predict: &PredictRequest{Source: "x"}},
		{Predict: &PredictRequest{Source: "x"}},
		{Predict: &PredictRequest{Source: "x"}},
	}}
	resp, body = post(t, ts.URL+"/v1/batch", three)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "exceeds the 2-point limit") {
		t.Fatalf("over-limit batch: %d %s", resp.StatusCode, body)
	}

	resp, _ = post(t, ts.URL+"/v1/batch", struct {
		Points []BatchPoint `json:"points"`
		Bogus  int          `json:"bogus"`
	}{Points: three.Points[:1], Bogus: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", resp.StatusCode)
	}

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/batch")
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
	})
}

// TestBatchAdmission covers both budget layers: the per-request ceiling
// fails single points inside a 200 batch, while the aggregate in-flight
// budget rejects the whole batch with a 429 carrying the batch-wide
// estimate.
func TestBatchAdmission(t *testing.T) {
	t.Run("per-point ceiling", func(t *testing.T) {
		_, ts := newTestServer(t, Config{MaxCostUnits: 0.001})
		br := postBatch(t, ts.URL, BatchRequest{Points: []BatchPoint{
			{Predict: &PredictRequest{Source: bigSource(5)}},
			{Predict: &PredictRequest{Source: bigSource(5), Profile: true}},
		}})
		if br.Failed != 2 {
			t.Fatalf("failed = %d, want 2", br.Failed)
		}
		for i, res := range br.Results {
			e := res.Error
			if e == nil || e.Status != http.StatusTooManyRequests || e.Stage != "admission" {
				t.Fatalf("point %d error: %+v", i, e)
			}
			if e.EstimatedCostUnits <= 0 || e.CostLimitUnits != 0.001 {
				t.Fatalf("point %d cost fields: %+v", i, e)
			}
		}
	})

	t.Run("aggregate 429", func(t *testing.T) {
		s, ts := newTestServer(t, Config{MaxInflightCostUnits: 1})
		// Occupy part of the budget so the idle-budget bypass does not
		// admit the oversized batch.
		s.met.costInflightMilli.Store(500)
		defer s.met.costInflightMilli.Store(0)
		resp, body := post(t, ts.URL+"/v1/batch", BatchRequest{Points: []BatchPoint{
			{Predict: &PredictRequest{Source: bigSource(5)}},
			{Predict: &PredictRequest{Source: bigSource(5), Profile: true}},
		}})
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d: %s", resp.StatusCode, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("decode 429: %v", err)
		}
		if er.Stage != "admission" || er.EstimatedCostUnits <= 0 || er.CostLimitUnits != 1 {
			t.Fatalf("429 body: %+v", er)
		}
		if !strings.Contains(er.Error, "batch prices at") {
			t.Fatalf("429 message: %q", er.Error)
		}
		if got := s.met.costInflightMilli.Load(); got != 500 {
			t.Fatalf("rejected batch leaked %d in-flight milli-units", got-500)
		}
	})
}

// TestBatchTimeoutKeepsFinishedPoints: a batch deadline that fires
// mid-fan-out fails only the unfinished points; every completed point
// keeps its result (no whole-batch error after admission).
func TestBatchTimeoutKeepsFinishedPoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	points := make([]BatchPoint, 6)
	for i := range points {
		// Distinct sources so every point pays its own compile+interpret.
		points[i] = BatchPoint{Predict: &PredictRequest{
			Source: bigSource(10 + i),
		}}
	}
	br := postBatch(t, ts.URL, BatchRequest{Points: points, TimeoutMS: 1})
	var okCount, timeoutCount int
	for i, res := range br.Results {
		switch {
		case res.Error == nil:
			okCount++
		case res.Error.Status == http.StatusServiceUnavailable ||
			res.Error.Status == http.StatusGatewayTimeout ||
			res.Error.Status == http.StatusBadRequest:
			timeoutCount++
		default:
			t.Fatalf("point %d: unexpected error %+v", i, res.Error)
		}
	}
	if okCount+timeoutCount != len(points) {
		t.Fatalf("outcomes %d+%d != %d", okCount, timeoutCount, len(points))
	}
	if br.OK != okCount || br.Failed != timeoutCount {
		t.Fatalf("counts ok/failed = %d/%d, tallied %d/%d", br.OK, br.Failed, okCount, timeoutCount)
	}
}
