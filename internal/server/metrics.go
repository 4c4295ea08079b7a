package server

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"hpfperf/internal/sweep"
)

// latencyBuckets are the upper bounds (seconds) of the request latency
// histogram, chosen to straddle the spread between a cache-hit predict
// (~µs) and a full measurement sweep (~s).
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// exemplar links one histogram bucket to a recent trace that landed in
// it, so a tail-latency bucket on /metrics can be followed to the
// corresponding span tree on /v1/traces.
type exemplar struct {
	traceID string
	seconds float64
}

// histogram is a fixed-bucket latency histogram with atomic counters
// (one per route; written on every request, read by /metrics).
type histogram struct {
	counts    []atomic.Int64 // len(latencyBuckets)+1; last is +Inf
	exemplars []atomic.Value // of exemplar; last traced request per bucket
	sumNS     atomic.Int64
	total     atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{
		counts:    make([]atomic.Int64, len(latencyBuckets)+1),
		exemplars: make([]atomic.Value, len(latencyBuckets)+1),
	}
}

// observe records one request latency. traceID is non-empty only for
// traced requests; it becomes the bucket's exemplar.
func (h *histogram) observe(seconds float64, traceID string) {
	i := 0
	for i < len(latencyBuckets) && seconds > latencyBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	if traceID != "" {
		h.exemplars[i].Store(exemplar{traceID: traceID, seconds: seconds})
	}
	h.sumNS.Add(int64(seconds * 1e9))
	h.total.Add(1)
}

// metrics aggregates the server's own counters. Sweep-engine counters
// (compiles, cache hits, evictions) are read live from the engine at
// render time rather than duplicated here.
type metrics struct {
	requests        map[string]*atomic.Int64 // "route|code" -> count
	latency         map[string]*histogram    // route -> histogram
	inflight        atomic.Int64
	queued          atomic.Int64 // requests currently waiting for a worker slot
	rejected        atomic.Int64 // drain refusals + clients gone while queued
	shed            atomic.Int64 // requests shed by the gate with 429 + Retry-After
	breakerRejected atomic.Int64 // requests refused by an open circuit breaker
	panics          atomic.Int64 // handler panics recovered

	// Cost-admission gate counters (see admission.go). The in-flight
	// accumulator is in milli-units so reservation stays one CAS.
	costRejected      atomic.Int64 // requests refused over a cost budget (429)
	costInflightMilli atomic.Int64 // reserved static cost of admitted requests
	costAdmittedMilli atomic.Int64 // cumulative admitted static cost

	// Batch data plane and SSE streaming counters (batch.go, events.go).
	batchPointsOK     atomic.Int64 // batch points answered with a result
	batchPointsFailed atomic.Int64 // batch points answered with a per-point error
	sseStreams        atomic.Int64 // live /v1/jobs/{id}/events streams (gauge)
	sseEvents         atomic.Int64 // SSE events written to clients
	sseHeartbeats     atomic.Int64 // SSE heartbeat comments written
}

// writeExemplar appends an OpenMetrics exemplar (` # {trace_id=
// "..."} value`) to a bucket line when a traced request has landed in
// that bucket, linking the histogram to GET /v1/traces. Exemplars are
// only legal in the OpenMetrics exposition format — the classic
// Prometheus text parser rejects the whole scrape on the `#` — so om
// gates them on the client having negotiated OpenMetrics via Accept.
func writeExemplar(b *strings.Builder, v *atomic.Value, om bool) {
	if !om {
		return
	}
	ex, ok := v.Load().(exemplar)
	if !ok {
		return
	}
	fmt.Fprintf(b, " # {trace_id=%q} %g", ex.traceID, ex.seconds)
}

// breakerStat is one route's circuit-breaker view for /metrics.
type breakerStat struct {
	route string
	state BreakerState
	opens int64
}

func newMetrics(routes []string) *metrics {
	m := &metrics{
		requests: make(map[string]*atomic.Int64),
		latency:  make(map[string]*histogram),
	}
	for _, r := range routes {
		m.latency[r] = newHistogram()
	}
	return m
}

// countRequest records a completed request. The requests map is only
// grown under the registry lock of Server.recordRequest.
func (m *metrics) key(route string, code int) string {
	return fmt.Sprintf("%s|%d", route, code)
}

// render writes the text exposition of the server counters plus the
// live sweep-engine and cache counters. om selects the OpenMetrics
// format (exemplars on histogram buckets, trailing # EOF); false emits
// the classic Prometheus text format, which has no exemplar syntax.
func (m *metrics) render(b *strings.Builder, snap sweep.Snapshot, cs sweep.CacheStats, brs []breakerStat, om bool) {
	fmt.Fprintf(b, "# HELP hpfserve_requests_total Completed requests by route and status code.\n")
	fmt.Fprintf(b, "# TYPE hpfserve_requests_total counter\n")
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts := strings.SplitN(k, "|", 2)
		fmt.Fprintf(b, "hpfserve_requests_total{route=%q,code=%q} %d\n", parts[0], parts[1], m.requests[k].Load())
	}

	fmt.Fprintf(b, "# HELP hpfserve_request_duration_seconds Request latency by route.\n")
	fmt.Fprintf(b, "# TYPE hpfserve_request_duration_seconds histogram\n")
	routes := make([]string, 0, len(m.latency))
	for r := range m.latency {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		h := m.latency[r]
		cum := int64(0)
		for i, ub := range latencyBuckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(b, "hpfserve_request_duration_seconds_bucket{route=%q,le=\"%g\"} %d", r, ub, cum)
			writeExemplar(b, &h.exemplars[i], om)
			b.WriteByte('\n')
		}
		cum += h.counts[len(latencyBuckets)].Load()
		fmt.Fprintf(b, "hpfserve_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d", r, cum)
		writeExemplar(b, &h.exemplars[len(latencyBuckets)], om)
		b.WriteByte('\n')
		fmt.Fprintf(b, "hpfserve_request_duration_seconds_sum{route=%q} %g\n", r, float64(h.sumNS.Load())/1e9)
		fmt.Fprintf(b, "hpfserve_request_duration_seconds_count{route=%q} %d\n", r, h.total.Load())
	}

	fmt.Fprintf(b, "# HELP hpfserve_inflight_requests Requests currently being served.\n")
	fmt.Fprintf(b, "# TYPE hpfserve_inflight_requests gauge\n")
	fmt.Fprintf(b, "hpfserve_inflight_requests %d\n", m.inflight.Load())
	fmt.Fprintf(b, "# HELP hpfserve_queued_requests Requests currently waiting for a worker slot.\n")
	fmt.Fprintf(b, "# TYPE hpfserve_queued_requests gauge\n")
	fmt.Fprintf(b, "hpfserve_queued_requests %d\n", m.queued.Load())
	fmt.Fprintf(b, "# HELP hpfserve_rejected_total Requests refused during drain or abandoned by their client while queued.\n")
	fmt.Fprintf(b, "# TYPE hpfserve_rejected_total counter\n")
	fmt.Fprintf(b, "hpfserve_rejected_total %d\n", m.rejected.Load())
	fmt.Fprintf(b, "# HELP hpfserve_shed_total Requests shed by the saturated concurrency gate (429 + Retry-After).\n")
	fmt.Fprintf(b, "# TYPE hpfserve_shed_total counter\n")
	fmt.Fprintf(b, "hpfserve_shed_total %d\n", m.shed.Load())
	fmt.Fprintf(b, "# HELP hpfserve_breaker_rejected_total Requests refused by an open circuit breaker.\n")
	fmt.Fprintf(b, "# TYPE hpfserve_breaker_rejected_total counter\n")
	fmt.Fprintf(b, "hpfserve_breaker_rejected_total %d\n", m.breakerRejected.Load())
	fmt.Fprintf(b, "# HELP hpfserve_breaker_state Circuit breaker state by route (0=closed, 1=half-open, 2=open).\n")
	fmt.Fprintf(b, "# TYPE hpfserve_breaker_state gauge\n")
	for _, br := range brs {
		fmt.Fprintf(b, "hpfserve_breaker_state{route=%q} %d\n", br.route, int(br.state))
	}
	fmt.Fprintf(b, "# HELP hpfserve_breaker_opens_total Circuit breaker open transitions by route.\n")
	fmt.Fprintf(b, "# TYPE hpfserve_breaker_opens_total counter\n")
	for _, br := range brs {
		fmt.Fprintf(b, "hpfserve_breaker_opens_total{route=%q} %d\n", br.route, br.opens)
	}
	fmt.Fprintf(b, "# HELP hpfserve_cost_rejected_total Requests refused by the static cost-admission gate (429 with the estimate in the body).\n")
	fmt.Fprintf(b, "# TYPE hpfserve_cost_rejected_total counter\n")
	fmt.Fprintf(b, "hpfserve_cost_rejected_total %d\n", m.costRejected.Load())
	fmt.Fprintf(b, "# HELP hpfserve_cost_inflight_units Reserved static cost of admitted in-flight requests.\n")
	fmt.Fprintf(b, "# TYPE hpfserve_cost_inflight_units gauge\n")
	fmt.Fprintf(b, "hpfserve_cost_inflight_units %g\n", float64(m.costInflightMilli.Load())/1000)
	fmt.Fprintf(b, "# HELP hpfserve_cost_admitted_units_total Cumulative static cost admitted through the gate.\n")
	fmt.Fprintf(b, "# TYPE hpfserve_cost_admitted_units_total counter\n")
	fmt.Fprintf(b, "hpfserve_cost_admitted_units_total %g\n", float64(m.costAdmittedMilli.Load())/1000)
	fmt.Fprintf(b, "# HELP hpfserve_batch_points_total Batch points by per-point outcome.\n")
	fmt.Fprintf(b, "# TYPE hpfserve_batch_points_total counter\n")
	fmt.Fprintf(b, "hpfserve_batch_points_total{outcome=\"ok\"} %d\n", m.batchPointsOK.Load())
	fmt.Fprintf(b, "hpfserve_batch_points_total{outcome=\"error\"} %d\n", m.batchPointsFailed.Load())
	fmt.Fprintf(b, "# HELP hpfserve_sse_streams Live job event streams.\n")
	fmt.Fprintf(b, "# TYPE hpfserve_sse_streams gauge\n")
	fmt.Fprintf(b, "hpfserve_sse_streams %d\n", m.sseStreams.Load())
	fmt.Fprintf(b, "# HELP hpfserve_sse_events_total SSE events written to clients.\n")
	fmt.Fprintf(b, "# TYPE hpfserve_sse_events_total counter\n")
	fmt.Fprintf(b, "hpfserve_sse_events_total %d\n", m.sseEvents.Load())
	fmt.Fprintf(b, "# HELP hpfserve_sse_heartbeats_total SSE heartbeat comments written on idle streams.\n")
	fmt.Fprintf(b, "# TYPE hpfserve_sse_heartbeats_total counter\n")
	fmt.Fprintf(b, "hpfserve_sse_heartbeats_total %d\n", m.sseHeartbeats.Load())
	fmt.Fprintf(b, "# HELP hpfserve_panics_total Handler panics recovered into error responses.\n")
	fmt.Fprintf(b, "# TYPE hpfserve_panics_total counter\n")
	fmt.Fprintf(b, "hpfserve_panics_total %d\n", m.panics.Load())
	fmt.Fprintf(b, "# HELP sweep_point_retries_total Transient sweep-point failures retried with backoff.\n")
	fmt.Fprintf(b, "# TYPE sweep_point_retries_total counter\n")
	fmt.Fprintf(b, "sweep_point_retries_total %d\n", snap.Retries)
	fmt.Fprintf(b, "# HELP sweep_point_panics_total Sweep-point panics recovered into typed errors.\n")
	fmt.Fprintf(b, "# TYPE sweep_point_panics_total counter\n")
	fmt.Fprintf(b, "sweep_point_panics_total %d\n", snap.PointPanics)
	fmt.Fprintf(b, "# HELP sweep_checkpoint_skipped_total Sweep results excluded from checkpoints (no JSON round-trip); a resumed run re-evaluates them.\n")
	fmt.Fprintf(b, "# TYPE sweep_checkpoint_skipped_total counter\n")
	fmt.Fprintf(b, "sweep_checkpoint_skipped_total %d\n", snap.CheckpointSkips)

	fmt.Fprintf(b, "# HELP sweep_stage_runs_total Pipeline stage executions (cache misses that did work).\n")
	fmt.Fprintf(b, "# TYPE sweep_stage_runs_total counter\n")
	fmt.Fprintf(b, "sweep_stage_runs_total{stage=\"compile\"} %d\n", snap.Compiles)
	fmt.Fprintf(b, "sweep_stage_runs_total{stage=\"interpret\"} %d\n", snap.Interps)
	fmt.Fprintf(b, "sweep_stage_runs_total{stage=\"execute\"} %d\n", snap.Execs)
	fmt.Fprintf(b, "# HELP sweep_stage_seconds_total Cumulative wall time per pipeline stage.\n")
	fmt.Fprintf(b, "# TYPE sweep_stage_seconds_total counter\n")
	fmt.Fprintf(b, "sweep_stage_seconds_total{stage=\"compile\"} %g\n", snap.CompileTime.Seconds())
	fmt.Fprintf(b, "sweep_stage_seconds_total{stage=\"interpret\"} %g\n", snap.InterpTime.Seconds())
	fmt.Fprintf(b, "sweep_stage_seconds_total{stage=\"execute\"} %g\n", snap.ExecTime.Seconds())
	fmt.Fprintf(b, "# HELP sweep_cache_lookups_total Cache lookups by kind and outcome.\n")
	fmt.Fprintf(b, "# TYPE sweep_cache_lookups_total counter\n")
	fmt.Fprintf(b, "sweep_cache_lookups_total{kind=\"compile\",outcome=\"hit\"} %d\n", snap.CompileHits)
	fmt.Fprintf(b, "sweep_cache_lookups_total{kind=\"compile\",outcome=\"miss\"} %d\n", snap.CompileMisses)
	fmt.Fprintf(b, "sweep_cache_lookups_total{kind=\"predict\",outcome=\"hit\"} %d\n", snap.PredictHits)
	fmt.Fprintf(b, "sweep_cache_lookups_total{kind=\"predict\",outcome=\"miss\"} %d\n", snap.PredictMisses)
	fmt.Fprintf(b, "sweep_cache_lookups_total{kind=\"report\",outcome=\"hit\"} %d\n", snap.ReportHits)
	fmt.Fprintf(b, "sweep_cache_lookups_total{kind=\"report\",outcome=\"miss\"} %d\n", snap.ReportMisses)
	fmt.Fprintf(b, "sweep_cache_lookups_total{kind=\"exec\",outcome=\"hit\"} %d\n", snap.ExecHits)
	fmt.Fprintf(b, "sweep_cache_lookups_total{kind=\"exec\",outcome=\"miss\"} %d\n", snap.ExecMisses)
	fmt.Fprintf(b, "# HELP sweep_cache_entries Live entries in the bounded LRU cache.\n")
	fmt.Fprintf(b, "# TYPE sweep_cache_entries gauge\n")
	fmt.Fprintf(b, "sweep_cache_entries{kind=\"compile\"} %d\n", cs.CompileEntries)
	fmt.Fprintf(b, "sweep_cache_entries{kind=\"predict\"} %d\n", cs.PredictEntries)
	fmt.Fprintf(b, "sweep_cache_entries{kind=\"report\"} %d\n", cs.ReportEntries)
	fmt.Fprintf(b, "sweep_cache_entries{kind=\"exec\"} %d\n", cs.MeasureEntries)
	fmt.Fprintf(b, "# HELP sweep_cache_capacity_entries LRU capacity in compile entries; each holds at most 16 artifacts per derived kind.\n")
	fmt.Fprintf(b, "# TYPE sweep_cache_capacity_entries gauge\n")
	fmt.Fprintf(b, "sweep_cache_capacity_entries %d\n", cs.Cap)
	fmt.Fprintf(b, "# HELP sweep_cache_evictions_total LRU evictions by kind.\n")
	fmt.Fprintf(b, "# TYPE sweep_cache_evictions_total counter\n")
	fmt.Fprintf(b, "sweep_cache_evictions_total{kind=\"compile\"} %d\n", cs.CompileEvictions)
	fmt.Fprintf(b, "sweep_cache_evictions_total{kind=\"predict\"} %d\n", cs.PredictEvictions)
	fmt.Fprintf(b, "sweep_cache_evictions_total{kind=\"report\"} %d\n", cs.ReportEvictions)
	fmt.Fprintf(b, "sweep_cache_evictions_total{kind=\"exec\"} %d\n", cs.MeasureEvictions)
}
