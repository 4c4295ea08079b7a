package server

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
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
// (one per route; written on every request, read by /metrics). Its
// count is the sum of the buckets, so a scrape during traffic still
// reports a _count equal to its +Inf bucket.
type histogram struct {
	counts    []atomic.Int64 // len(latencyBuckets)+1; last is +Inf
	exemplars []atomic.Value // of exemplar; last traced request per bucket
	sumNS     atomic.Int64
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
}

// floatCounter is a float64 counter for cumulative quantities an int64
// would wrap; Add is a CAS on the value's bits.
type floatCounter struct{ bits atomic.Uint64 }

func (c *floatCounter) Add(v float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (c *floatCounter) Load() float64 { return math.Float64frombits(c.bits.Load()) }

// metrics aggregates the server's own counters. Sweep-engine counters
// (compiles, cache hits, evictions) are read live from the engine at
// render time rather than duplicated here.
type metrics struct {
	reqMu    sync.Mutex            // guards requests
	requests map[reqKey]int64      // completed requests by route and status
	latency  map[string]*histogram // route -> histogram; fixed at newMetrics
	inflight atomic.Int64
	queued   atomic.Int64 // requests currently waiting for a worker slot
	rejected atomic.Int64 // drain refusals + clients gone while queued
	shed     atomic.Int64 // requests shed by the gate with 429 + Retry-After
	panics   atomic.Int64 // handler panics recovered

	// Cost-admission gate counters (see admission.go). The in-flight
	// accumulator is in milli-units so reservation stays one CAS; the
	// cumulative count is a float, so no run of prices can wrap it.
	costRejected      atomic.Int64 // requests refused over a cost budget (429)
	costInflightMilli atomic.Int64 // reserved static cost of admitted requests
	costAdmittedMilli floatCounter // cumulative admitted static cost, unsaturated

	// Batch data plane and SSE streaming counters (batch.go, events.go).
	batchPointsOK     atomic.Int64 // batch points answered with a result
	batchPointsFailed atomic.Int64 // batch points answered with a per-point error
	sseStreams        atomic.Int64 // live /v1/jobs/{id}/events streams (gauge)
	sseEvents         atomic.Int64 // SSE events written to clients
	sseHeartbeats     atomic.Int64 // SSE heartbeat comments written
}

func newMetrics(routes []string) *metrics {
	m := &metrics{
		requests: make(map[reqKey]int64),
		latency:  make(map[string]*histogram),
	}
	for _, r := range routes {
		m.latency[r] = newHistogram()
	}
	return m
}

// reqKey names one route and status code in the requests map.
type reqKey struct {
	route string
	code  int
}

// recordRequest counts one completed request. After the first request
// of a route and code it allocates nothing.
func (m *metrics) recordRequest(route string, code int) {
	m.reqMu.Lock()
	m.requests[reqKey{route, code}]++
	m.reqMu.Unlock()
}

// sample is one line of a metric family: the text between the family
// name and the value (a _bucket, _sum or _count suffix and a label
// set; either may be empty), the value, and an exemplar or "".
type sample struct {
	series   string
	value    any // int64, int or float64
	exemplar string
}

// family writes one metric family in the text exposition format: its
// HELP and TYPE lines, then one line per sample. %v prints int64 and
// int values as %d and float64 values as %g.
func family(b *strings.Builder, name, typ, help string, samples ...sample) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, s := range samples {
		fmt.Fprintf(b, "%s%s %v%s\n", name, s.series, s.value, s.exemplar)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// render writes the text exposition of the server counters plus the
// live sweep-engine and cache counters. om selects the OpenMetrics
// format (exemplars on histogram buckets, trailing # EOF); false emits
// the classic Prometheus text format, which has no exemplar syntax.
func (m *metrics) render(b *strings.Builder, snap sweep.Snapshot, cs sweep.CacheStats, om bool) {
	// The series are ordered by their route|code text, which puts
	// jobs_events before jobs.
	m.reqMu.Lock()
	requests := make(map[string]int64, len(m.requests))
	for k, n := range m.requests {
		requests[fmt.Sprintf("%s|%d", k.route, k.code)] = n
	}
	m.reqMu.Unlock()
	var samples []sample
	for _, k := range sortedKeys(requests) {
		route, code, _ := strings.Cut(k, "|")
		samples = append(samples, sample{series: fmt.Sprintf("{route=%q,code=%q}", route, code), value: requests[k]})
	}
	family(b, "hpfserve_requests_total", "counter", "Completed requests by route and status code.", samples...)

	samples = samples[:0]
	for _, r := range sortedKeys(m.latency) {
		h := m.latency[r]
		cum := int64(0)
		for i := range h.counts {
			cum += h.counts[i].Load()
			le := "+Inf"
			if i < len(latencyBuckets) {
				le = fmt.Sprint(latencyBuckets[i])
			}
			// An exemplar (` # {trace_id="..."} value`) links the bucket
			// to GET /v1/traces. Only the OpenMetrics format may carry
			// one: the classic text parser rejects the whole scrape on
			// the `#`, so om gates it on the client's Accept header.
			var ex string
			if e, ok := h.exemplars[i].Load().(exemplar); ok && om {
				ex = fmt.Sprintf(" # {trace_id=%q} %g", e.traceID, e.seconds)
			}
			samples = append(samples, sample{series: fmt.Sprintf("_bucket{route=%q,le=%q}", r, le), value: cum, exemplar: ex})
		}
		samples = append(samples,
			sample{series: fmt.Sprintf("_sum{route=%q}", r), value: float64(h.sumNS.Load()) / 1e9},
			sample{series: fmt.Sprintf("_count{route=%q}", r), value: cum})
	}
	family(b, "hpfserve_request_duration_seconds", "histogram", "Request latency by route.", samples...)

	family(b, "hpfserve_inflight_requests", "gauge", "Requests currently being served.", sample{value: m.inflight.Load()})
	family(b, "hpfserve_queued_requests", "gauge", "Requests currently waiting for a worker slot.", sample{value: m.queued.Load()})
	family(b, "hpfserve_rejected_total", "counter", "Requests refused during drain or abandoned by their client while queued.", sample{value: m.rejected.Load()})
	family(b, "hpfserve_shed_total", "counter", "Requests shed by the saturated concurrency gate (429 + Retry-After).", sample{value: m.shed.Load()})
	family(b, "hpfserve_cost_rejected_total", "counter", "Requests refused by the static cost-admission gate (429 with the estimate in the body).", sample{value: m.costRejected.Load()})
	family(b, "hpfserve_cost_inflight_units", "gauge", "Reserved static cost of admitted in-flight requests.", sample{value: float64(m.costInflightMilli.Load()) / 1000})
	family(b, "hpfserve_cost_admitted_units_total", "counter", "Cumulative static cost admitted through the gate.", sample{value: m.costAdmittedMilli.Load() / 1000})
	family(b, "hpfserve_batch_points_total", "counter", "Batch points by per-point outcome.",
		sample{series: `{outcome="ok"}`, value: m.batchPointsOK.Load()},
		sample{series: `{outcome="error"}`, value: m.batchPointsFailed.Load()})
	family(b, "hpfserve_sse_streams", "gauge", "Live job event streams.", sample{value: m.sseStreams.Load()})
	family(b, "hpfserve_sse_events_total", "counter", "SSE events written to clients.", sample{value: m.sseEvents.Load()})
	family(b, "hpfserve_sse_heartbeats_total", "counter", "SSE heartbeat comments written on idle streams.", sample{value: m.sseHeartbeats.Load()})
	family(b, "hpfserve_panics_total", "counter", "Handler panics recovered into error responses.", sample{value: m.panics.Load()})
	family(b, "sweep_point_retries_total", "counter", "Transient sweep-point failures retried with backoff.", sample{value: snap.Retries})
	family(b, "sweep_point_panics_total", "counter", "Sweep-point panics recovered into typed errors.", sample{value: snap.PointPanics})
	family(b, "sweep_checkpoint_skipped_total", "counter", "Sweep results excluded from checkpoints (no JSON round-trip); a resumed run re-evaluates them.", sample{value: snap.CheckpointSkips})

	family(b, "sweep_stage_runs_total", "counter", "Pipeline stage executions (cache misses that did work).",
		sample{series: `{stage="compile"}`, value: snap.Compiles},
		sample{series: `{stage="interpret"}`, value: snap.Interps},
		sample{series: `{stage="execute"}`, value: snap.Execs})
	family(b, "sweep_stage_seconds_total", "counter", "Cumulative wall time per pipeline stage.",
		sample{series: `{stage="compile"}`, value: snap.CompileTime.Seconds()},
		sample{series: `{stage="interpret"}`, value: snap.InterpTime.Seconds()},
		sample{series: `{stage="execute"}`, value: snap.ExecTime.Seconds()})
	family(b, "sweep_cache_lookups_total", "counter", "Cache lookups by kind and outcome.",
		sample{series: `{kind="compile",outcome="hit"}`, value: snap.CompileHits},
		sample{series: `{kind="compile",outcome="miss"}`, value: snap.CompileMisses},
		sample{series: `{kind="predict",outcome="hit"}`, value: snap.PredictHits},
		sample{series: `{kind="predict",outcome="miss"}`, value: snap.PredictMisses},
		sample{series: `{kind="report",outcome="hit"}`, value: snap.ReportHits},
		sample{series: `{kind="report",outcome="miss"}`, value: snap.ReportMisses},
		sample{series: `{kind="exec",outcome="hit"}`, value: snap.ExecHits},
		sample{series: `{kind="exec",outcome="miss"}`, value: snap.ExecMisses})
	family(b, "sweep_cache_entries", "gauge", "Live entries in the bounded LRU cache.",
		sample{series: `{kind="compile"}`, value: cs.CompileEntries},
		sample{series: `{kind="predict"}`, value: cs.PredictEntries},
		sample{series: `{kind="report"}`, value: cs.ReportEntries},
		sample{series: `{kind="exec"}`, value: cs.MeasureEntries})
	family(b, "sweep_cache_capacity_entries", "gauge", "LRU capacity in compile entries; each holds at most 16 artifacts per derived kind.", sample{value: cs.Cap})
	family(b, "sweep_cache_evictions_total", "counter", "LRU evictions by kind.",
		sample{series: `{kind="compile"}`, value: cs.CompileEvictions},
		sample{series: `{kind="predict"}`, value: cs.PredictEvictions},
		sample{series: `{kind="report"}`, value: cs.ReportEvictions},
		sample{series: `{kind="exec"}`, value: cs.MeasureEvictions})
}
