package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpfperf/internal/analysis"
	"hpfperf/internal/compiler"
	"hpfperf/internal/corpus"
)

// smallSource is a program whose static price is far below bigSource's.
const smallSource = `      PROGRAM TINY
!HPF$ PROCESSORS P(4)
      REAL A(64)
!HPF$ TEMPLATE T(64)
!HPF$ ALIGN A WITH T
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
      A = 2.0
      PRINT *, A(1)
      END PROGRAM TINY
`

// TestCostAdmissionGate is the acceptance pair: with a per-request cost
// budget set between the two programs' static prices, the expensive
// request is rejected with 429 carrying the estimate while the identical
// small request succeeds. A refused request must have built no
// prediction form, evaluated nothing and executed nothing: admission
// comes before all of them.
func TestCostAdmissionGate(t *testing.T) {
	// Price the two programs through an ungated server first so the test
	// derives the budget instead of hardcoding pricer weights.
	_, open := newTestServer(t, Config{})
	priceOf := func(src string) float64 {
		resp, body := post(t, open.URL+"/v1/analyze", AnalyzeRequest{Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze: status %d: %s", resp.StatusCode, body)
		}
		var ar AnalyzeResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatalf("analyze body: %v", err)
		}
		if ar.Price == nil || ar.Price.CostUnits <= 0 {
			t.Fatalf("analyze returned no usable price block: %s", body)
		}
		return ar.Price.CostUnits
	}
	small := priceOf(smallSource)
	big := priceOf(bigSource(50))
	if !(small < big) {
		t.Fatalf("test premise broken: small prices %.0f, big %.0f", small, big)
	}
	budget := (small + big) / 2

	gs, gated := newTestServer(t, Config{MaxCostUnits: budget})
	noWork := func(after string) {
		t.Helper()
		snap := gs.eng.Snapshot()
		if snap.PredictMisses != 0 || snap.Interps != 0 || snap.Execs != 0 {
			t.Errorf("after %s: predict misses %d, interps %d, execs %d; want all 0",
				after, snap.PredictMisses, snap.Interps, snap.Execs)
		}
	}

	resp, body := post(t, gated.URL+"/v1/predict", PredictRequest{Source: bigSource(50)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget predict: status %d, want 429: %s", resp.StatusCode, body)
	}
	noWork("the refused predict")
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("429 body: %v", err)
	}
	if e.Stage != "admission" {
		t.Errorf("stage = %q, want admission", e.Stage)
	}
	if e.EstimatedCostUnits != big {
		t.Errorf("estimated_cost_units = %g, want the static price %g", e.EstimatedCostUnits, big)
	}
	if e.CostLimitUnits != budget {
		t.Errorf("cost_limit_units = %g, want %g", e.CostLimitUnits, budget)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	// Measure is gated by the same budget.
	resp, body = post(t, gated.URL+"/v1/measure", MeasureRequest{Source: bigSource(50), NoPerturb: true})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget measure: status %d, want 429: %s", resp.StatusCode, body)
	}
	noWork("the refused measure")

	resp, body = post(t, gated.URL+"/v1/predict", PredictRequest{Source: smallSource})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("under-budget predict: status %d, want 200: %s", resp.StatusCode, body)
	}
	// Analyze is never cost-gated: pricing a program must stay possible
	// exactly when its prediction would be refused.
	resp, _ = post(t, gated.URL+"/v1/analyze", AnalyzeRequest{Source: bigSource(50)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze under gate: status %d, want 200", resp.StatusCode)
	}
}

// TestInflightCostBudget exercises the priced queue: the aggregate
// budget admits a request on an idle gate regardless of size, and the
// reservation is released after completion so the next request also
// succeeds.
func TestInflightCostBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflightCostUnits: 1})
	// Budget (1 unit) is far below the program's price, but the gate is
	// idle, so the request must be admitted (no-starvation rule).
	resp, body := post(t, ts.URL+"/v1/predict", PredictRequest{Source: smallSource})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idle-gate predict: status %d: %s", resp.StatusCode, body)
	}
	if got := s.met.costInflightMilli.Load(); got != 0 {
		t.Errorf("inflight cost not released: %d milli-units", got)
	}
	if s.met.costAdmittedMilli.Load() <= 0 {
		t.Error("admitted cost counter did not grow")
	}
	resp, body = post(t, ts.URL+"/v1/predict", PredictRequest{Source: smallSource})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second predict after release: status %d: %s", resp.StatusCode, body)
	}
}

// TestCostMetricsExposed pins the new /metrics series names.
func TestCostMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxCostUnits: 1})
	resp, body := post(t, ts.URL+"/v1/predict", PredictRequest{Source: smallSource})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("predict under 1-unit budget: status %d: %s", resp.StatusCode, body)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	text := string(raw)
	for _, want := range []string{
		"hpfserve_cost_rejected_total 1",
		"hpfserve_cost_inflight_units 0",
		"hpfserve_cost_admitted_units_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCostMilliSaturates pins the overflow guard: a price too large for
// the milli-unit accumulator must saturate positive, never convert to an
// implementation-defined (negative on amd64) value that would corrupt
// the in-flight budget and bypass the gate.
func TestCostMilliSaturates(t *testing.T) {
	const sat = int64(math.MaxInt64 / 2)
	cases := []struct {
		units float64
		want  int64
	}{
		{0, 0},
		{1.5, 1500},
		{-3, 0},
		{9.3e15, sat},      // the review's nested-loop blowup shape
		{1e300, sat},       // far past any representable milli count
		{math.Inf(1), sat}, // defensive: Inf saturates too
		{math.MaxFloat64, sat},
	}
	for _, c := range cases {
		if got := costMilli(c.units); got != c.want {
			t.Errorf("costMilli(%g) = %d, want %d", c.units, got, c.want)
		}
	}
	// Two saturated values must still be summable without wrapping —
	// the admission CAS loop computes cur+milli.
	if sum := sat + sat; sum < 0 {
		t.Fatalf("saturation point overflows when doubled: %d", sum)
	}
}

// TestAdmissionPriceMatchesPricer: the price admission reads from the
// compile entry, and /v1/analyze's price block, are JSON-identical to
// analysis.PriceProgram on a fresh compile, whichever consumer builds
// the shared analysis first.
func TestAdmissionPriceMatchesPricer(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.hpf"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	var srcs []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(b))
	}
	for _, p := range corpus.Generate(1, 60) {
		srcs = append(srcs, p.Source)
	}

	// A one-unit ceiling refuses every program, so each predict stops at
	// admission with the price it used in the 429.
	s, ts := newTestServer(t, Config{MaxCostUnits: 1})
	for i, src := range srcs {
		prog, err := compiler.Compile(src)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		want := compactJSON(t, analysis.PriceProgram(prog))

		predict := func() {
			resp, body := post(t, ts.URL+"/v1/predict", PredictRequest{Source: src})
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("program %d: predict status %d, want 429: %s", i, resp.StatusCode, body)
			}
			var e ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatal(err)
			}
			entry, err := s.eng.Program(context.Background(), src, compiler.Options{})
			if err != nil {
				t.Fatal(err)
			}
			price, err := entry.Price()
			if err != nil {
				t.Fatal(err)
			}
			if got := compactJSON(t, price); got != want {
				t.Errorf("program %d: admission price\n got %s\nwant %s", i, got, want)
			}
			if e.EstimatedCostUnits != price.CostUnits {
				t.Errorf("program %d: 429 estimate %g, want %g", i, e.EstimatedCostUnits, price.CostUnits)
			}
		}
		analyze := func() {
			resp, body := post(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: src})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("program %d: analyze status %d: %s", i, resp.StatusCode, body)
			}
			var ar struct {
				Price json.RawMessage `json:"price"`
			}
			if err := json.Unmarshal(body, &ar); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := json.Compact(&got, ar.Price); err != nil {
				t.Fatal(err)
			}
			if got.String() != want {
				t.Errorf("program %d: analyze price\n got %s\nwant %s", i, got.String(), want)
			}
		}
		if i%2 == 0 {
			predict()
			analyze()
		} else {
			analyze()
			predict()
		}
	}
	if n, want := s.eng.Snapshot().Analyses, int64(len(srcs)); n != want {
		t.Errorf("built %d analyses for %d programs, want one each", n, want)
	}
}

func compactJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// hugeSource nests two loops of 2e9 trips each, so its static price
// lies far past costMilli's saturation point.
const hugeSource = `      PROGRAM HUGE
!HPF$ PROCESSORS P(4)
      REAL A(64)
!HPF$ TEMPLATE T(64)
!HPF$ ALIGN A WITH T
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
      INTEGER I, J
      DO I = 1, 2000000000
        DO J = 1, 2000000000
          A = A + 1.0
        END DO
      END DO
      PRINT *, A(1)
      END PROGRAM HUGE
`

// TestAdmittedCostNeverWraps pins hpfserve_cost_admitted_units_total
// as a counter of prices, not of saturated milli-units: three admitted
// requests priced past the saturation point read the running sum of
// their prices, and no scrape is lower than the one before.
func TestAdmittedCostNeverWraps(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInflightCostUnits: 1e6})
	resp, body := post(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: hugeSource})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d: %s", resp.StatusCode, body)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	price := ar.Price.CostUnits
	if price < 1e19 {
		t.Fatalf("test premise broken: program prices at %g, want past the saturation point", price)
	}
	prev := 0.0
	for n := 1; n <= 3; n++ {
		if resp, body := post(t, ts.URL+"/v1/predict", PredictRequest{Source: hugeSource}); resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %d: status %d: %s", n, resp.StatusCode, body)
		}
		_, text := scrape(t, ts.URL, "")
		var got float64
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, "hpfserve_cost_admitted_units_total "); ok {
				if _, err := fmt.Sscan(v, &got); err != nil {
					t.Fatalf("parse %q: %v", line, err)
				}
			}
		}
		if want := float64(n) * price; math.Abs(got-want) > 1e-9*want {
			t.Errorf("after %d predicts: admitted units = %g, want %g", n, got, want)
		}
		if got < prev {
			t.Errorf("after %d predicts: admitted units fell from %g to %g", n, prev, got)
		}
		prev = got
	}
}
