// BENCH_PR8.json harness: the priced-admission overhead snapshot.
//
// The cost-admission gate statically prices every predict/measure
// request before interpretation (internal/server/admission.go). Its
// whole value proposition is that pricing is cheap relative to the
// work it gates, so TestEmitBenchPR8 (HPFPERF_EMIT_BENCH) records the
// /v1/predict p50 with and without an admitting gate, and
// TestCheckBenchPR8 (HPFPERF_CHECK_BENCH) fails when
// the gate costs more than 2% on the p50 — the CI bench job's gate.
// Samples against the two servers are interleaved so host drift
// affects both sides equally.
package hpfperf_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
	"time"

	"hpfperf/internal/server"
)

const benchPR8File = "BENCH_PR8.json"

// admissionBenchRecord is one row of BENCH_PR8.json.
type admissionBenchRecord struct {
	Name        string  `json:"name"`
	P50US       float64 `json:"p50_us,omitempty"`
	OverheadPct float64 `json:"overhead_pct,omitempty"`
}

// admissionBenchSource is the predict workload: a 64x64 Laplace sweep,
// large enough that one request does real interpretation work.
const admissionBenchSource = `      PROGRAM BENCH
!HPF$ PROCESSORS P(4)
      REAL U(64,64), V(64,64)
!HPF$ TEMPLATE T(64,64)
!HPF$ ALIGN U WITH T
!HPF$ ALIGN V WITH T
!HPF$ DISTRIBUTE T(BLOCK,*) ONTO P
      INTEGER I
      U = 1.0
      V = 0.0
      DO I = 1, 20
        V(2:63,2:63) = 0.25 * (U(1:62,2:63) + U(3:64,2:63) + U(2:63,1:62) + U(2:63,3:64))
        U = V
      END DO
      PRINT *, U(32,32)
      END PROGRAM BENCH
`

func predictOnce(t testing.TB, url string, body []byte) time.Duration {
	t.Helper()
	start := time.Now()
	resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	elapsed := time.Since(start)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	return elapsed
}

func p50(samples []time.Duration) float64 {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return float64(samples[len(samples)/2].Microseconds())
}

// measureAdmissionOverhead interleaves /v1/predict requests against an
// ungated server and one whose cost gate is active (with budgets high
// enough to admit everything, so the full pricing + CAS reservation
// path runs on every request), and returns both p50s in microseconds.
func measureAdmissionOverhead(t testing.TB, samples int) (ungatedUS, gatedUS float64) {
	t.Helper()
	open := httptest.NewServer(server.New(server.Config{}).Handler())
	defer open.Close()
	gated := httptest.NewServer(server.New(server.Config{
		MaxCostUnits:         1e15,
		MaxInflightCostUnits: 1e15,
	}).Handler())
	defer gated.Close()

	body, err := json.Marshal(server.PredictRequest{Source: admissionBenchSource})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // warm caches and connections on both sides
		predictOnce(t, open.URL, body)
		predictOnce(t, gated.URL, body)
	}
	a := make([]time.Duration, 0, samples)
	b := make([]time.Duration, 0, samples)
	for i := 0; i < samples; i++ {
		a = append(a, predictOnce(t, open.URL, body))
		b = append(b, predictOnce(t, gated.URL, body))
	}
	return p50(a), p50(b)
}

func overheadPct(ungatedUS, gatedUS float64) float64 {
	return (gatedUS - ungatedUS) / ungatedUS * 100
}

// TestEmitBenchPR8 writes the admission-overhead snapshot to
// BENCH_PR8.json when HPFPERF_EMIT_BENCH is set.
func TestEmitBenchPR8(t *testing.T) {
	if os.Getenv("HPFPERF_EMIT_BENCH") == "" {
		t.Skip("set HPFPERF_EMIT_BENCH=1 to emit " + benchPR8File)
	}
	ungated, gated := measureAdmissionOverhead(t, 150)
	records := []admissionBenchRecord{
		{Name: "PredictP50Ungated", P50US: ungated},
		{Name: "PredictP50Gated", P50US: gated, OverheadPct: overheadPct(ungated, gated)},
	}
	f, err := os.Create(benchPR8File)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		t.Logf("%s: p50 %.0fus, overhead %.2f%%", r.Name, r.P50US, r.OverheadPct)
	}
}

// TestCheckBenchPR8 re-measures the admission overhead and fails when
// the active gate costs more than 2% on the /v1/predict p50. The
// overhead is a same-run ratio, so the check needs no host
// normalization against the committed snapshot; the snapshot is still
// required to exist and parse so the committed numbers stay honest.
func TestCheckBenchPR8(t *testing.T) {
	if os.Getenv("HPFPERF_CHECK_BENCH") == "" {
		t.Skip("set HPFPERF_CHECK_BENCH=1 to check the admission-gate overhead")
	}
	data, err := os.ReadFile(benchPR8File)
	if err != nil {
		t.Fatalf("no committed snapshot: %v", err)
	}
	var committed []admissionBenchRecord
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatalf("malformed %s: %v", benchPR8File, err)
	}
	if len(committed) < 2 {
		t.Fatalf("snapshot incomplete: %+v", committed)
	}

	// Best-of-three keeps scheduler hiccups from failing a gate whose
	// true cost is a few microseconds of static pricing.
	best := 100.0
	for i := 0; i < 3; i++ {
		ungated, gated := measureAdmissionOverhead(t, 100)
		pct := overheadPct(ungated, gated)
		t.Logf("round %d: ungated p50 %.0fus, gated p50 %.0fus, overhead %.2f%%", i+1, ungated, gated, pct)
		if pct < best {
			best = pct
		}
		if best < 2.0 {
			break
		}
	}
	if best >= 2.0 {
		t.Errorf("admission gate costs %.2f%% on /v1/predict p50, over the 2%% budget", best)
	}
}
