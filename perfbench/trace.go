package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer during a traced run.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // traced op the span belongs to; 0 = set-up
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// DupNS is work inside this span that a sibling span already times:
	// the engine compile re-runs the parse and sem a sibling timed, and
	// ServeHTTP re-runs the rendering and admission pricing the replay
	// timed. It is excluded from the span's self time.
	DupNS  int64 `json:"dup_ns,omitempty"`
	AllocB int64 `json:"alloc_bytes"`
	Bytes  int64 `json:"src_bytes,omitempty"` // source bytes (parser spans)
	Failed bool  `json:"failed,omitempty"`
}

// tracer records spans in memory; write dumps them when the run ends.
// A nil tracer records nothing, so set-up code calls it unconditionally.
type tracer struct {
	t0     time.Time
	spans  []span
	parent int
	op     int
	alloc  []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), parent: -1, alloc: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) allocated() int64 {
	metrics.Read(t.alloc)
	return int64(t.alloc[0].Value.Uint64())
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.parent, AllocB: t.allocated()})
	t.parent = id
	t.spans[id].Start = time.Since(t.t0).Nanoseconds()
	return id
}

// beginOp opens the root span of the next traced op.
func (t *tracer) beginOp() int {
	t.op++
	return t.begin("op")
}

func (t *tracer) end(id int, err error) { t.endDup(id, err, 0) }

// endDup closes span id, excluding dup from its self time.
func (t *tracer) endDup(id int, err error, dup time.Duration) {
	if t == nil {
		return
	}
	end := time.Since(t.t0).Nanoseconds()
	s := &t.spans[id]
	s.End = end
	s.AllocB = t.allocated() - s.AllocB
	s.DupNS = int64(dup)
	s.Failed = err != nil
	t.parent = s.Parent
}

func (t *tracer) dur(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

func (t *tracer) setBytes(id, n int) {
	if t != nil && id >= 0 {
		t.spans[id].Bytes = int64(n)
	}
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// layerStat aggregates one layer's spans.
type layerStat struct {
	calls, failures int
	self            []time.Duration // per call
	selfTotal       time.Duration
	allocB          int64 // self allocations
	srcBytes        int64
}

// layers aggregates the spans by name. A span's self time is its
// duration minus the part its child spans cover (children run one after
// another, so that is their summed duration) minus its DupNS; the self
// time of the "op" roots is the unattributed residual.
func (t *tracer) layers() (map[string]*layerStat, time.Duration) {
	childNS := make([]int64, len(t.spans))
	childAlloc := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.End - s.Start
			childAlloc[s.Parent] += s.AllocB
		}
	}
	out := make(map[string]*layerStat)
	var opTotal time.Duration
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		self := time.Duration(max(0, s.End-s.Start-childNS[i]-s.DupNS))
		st.calls++
		st.self = append(st.self, self)
		st.selfTotal += self
		st.allocB += s.AllocB - childAlloc[i]
		st.srcBytes += s.Bytes
		if s.Failed {
			st.failures++
		}
		if s.Name == "op" {
			opTotal += time.Duration(s.End - s.Start)
		}
	}
	return out, opTotal
}

// opLayers are the layers a traced op times, in pipeline order.
var opLayers = []string{"server", "parser", "sem", "compiler", "analysis", "core_build", "core_eval", "report", "exec"}

// perLayer fills the per-layer metrics of a traced run: a is the
// untraced half (engine counters, runtime, refusals), b the traced half
// (spans). The per-layer table goes to out.
func perLayer(res *result, w workload, tr *tracer, a, b *phase, eng engineCounts, setups int, out io.Writer) {
	add := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	stats, opTotal := tr.layers()
	ops := float64(b.points)
	get := func(name string) *layerStat {
		if st := stats[name]; st != nil {
			return st
		}
		return &layerStat{}
	}
	perCall := func(st *layerStat) float64 {
		if st.calls == 0 {
			return 0
		}
		return float64(st.allocB) / 1024 / float64(st.calls)
	}

	fmt.Fprintf(out, "  %-11s %9s %12s %7s %11s %10s %8s\n", "layer", "calls/op", "self ms/op", "share", "p50 us/call", "KB/call", "failures")
	row := func(name string, st *layerStat) {
		share := 0.0
		if opTotal > 0 {
			share = 100 * float64(st.selfTotal) / float64(opTotal)
		}
		fmt.Fprintf(out, "  %-11s %9.4g %12.6f %6.2f%% %11.2f %10.2f %8d\n", name, float64(st.calls)/ops,
			ms(st.selfTotal)/ops, share, us(quantile(st.self, 0.5)), perCall(st), st.failures)
	}
	for _, name := range opLayers {
		st := get(name)
		add(name+".calls_per_op", "calls/op", float64(st.calls)/ops)
		add(name+".self_ms_per_op", "ms", ms(st.selfTotal)/ops)
		add(name+".self_us_p50", "us", us(quantile(st.self, 0.5)))
		add(name+".alloc_kb_per_call", "KB", perCall(st))
		add(name+".failures", "count", float64(st.failures))
		row(name, st)
	}
	residual := get("op")
	row("(residual)", residual)
	cal := get("calibrate")
	add("calibrate.calls_per_setup", "calls", float64(cal.calls)/float64(setups))
	add("calibrate.self_ms_per_setup", "ms", ms(cal.selfTotal)/float64(setups))
	add("calibrate.self_us_p50", "us", us(quantile(cal.self, 0.5)))
	add("calibrate.alloc_kb_per_call", "KB", perCall(cal))
	add("calibrate.failures", "count", float64(cal.failures))
	fmt.Fprintf(out, "  calibrate (per set-up, %d set-ups): %.4g calls, %.3f ms\n", setups, float64(cal.calls)/float64(setups), ms(cal.selfTotal)/float64(setups))

	add("trace.residual_ms_per_op", "ms", ms(residual.selfTotal)/ops)
	untraced, traced := a.rate(), b.rate()
	add("trace.untraced_ops_per_s", "ops/s", untraced)
	add("trace.ops_per_s", "ops/s", traced)
	add("trace.overhead_pct", "%", 100*(untraced-traced)/untraced)
	fmt.Fprintf(out, "  tracing overhead: %.1f%% (untraced %.6g ops/s over %d ops, traced %.6g ops/s over %d ops)\n",
		100*(untraced-traced)/untraced, untraced, a.points, traced, b.points)

	add("server.refused", "count", float64(a.refused+b.refused))
	add("server.resp_bytes", "B", float64(a.respBytes)/float64(a.calls))
	parse := get("parser")
	kbps := 0.0
	if parse.selfTotal > 0 {
		kbps = float64(parse.srcBytes) / 1024 / parse.selfTotal.Seconds()
	}
	add("parser.src_kb_per_s", "KB/s", kbps)

	ratio := func(hit, miss int64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return float64(hit) / float64(hit+miss)
	}
	add("sweep.compile_hit_ratio", "ratio", ratio(eng.compileHits, eng.compileMisses))
	add("sweep.predict_hit_ratio", "ratio", ratio(eng.predictHits, eng.predictMisses))
	add("sweep.report_hit_ratio", "ratio", ratio(eng.reportHits, eng.reportMisses))
	add("sweep.exec_hit_ratio", "ratio", ratio(eng.execHits, eng.execMisses))
	add("sweep.evictions", "count", float64(eng.evictions))
	// Point work is timed serially in the traced half; the pool runs the
	// same points on its workers in the untraced half.
	pointWork := get("core_build").selfTotal + get("core_eval").selfTotal + get("exec").selfTotal
	busy := 0.0
	if eng.mapWall > 0 && b.calls > 0 {
		busy = (pointWork.Seconds() / float64(b.calls)) / (float64(eng.workers) * eng.mapWall.Seconds() / float64(a.calls))
	}
	add("sweep.pool_busy_ratio", "ratio", busy)
	fmt.Fprintf(out, "  sweep (untraced half): hit ratios compile %.3f predict %.3f report %.3f exec %.3f, evictions %d, pool busy %.3f\n",
		ratio(eng.compileHits, eng.compileMisses), ratio(eng.predictHits, eng.predictMisses),
		ratio(eng.reportHits, eng.reportMisses), ratio(eng.execHits, eng.execMisses), eng.evictions, busy)

	gcFrac := 0.0
	if a.cpu > 0 {
		gcFrac = a.gcCPU / a.cpu.Seconds()
	}
	add("gc.cpu_fraction", "ratio", gcFrac)
	add("gc.alloc_kb_per_op", "KB", a.allocB/1024/float64(a.points))
	fmt.Fprintf(out, "  runtime (untraced half): GC %.1f%% of CPU, %.1f KB allocated per op\n", 100*gcFrac, a.allocB/1024/float64(a.points))

	share := 0.0
	if pointWork > 0 {
		share = 100 * float64(get("exec").selfTotal) / float64(pointWork)
	}
	add("table2.exec_share_pct", "%", share)
	add("table2.max_err_pct", "%", w.maxErrPct())
	if share > 0 {
		fmt.Fprintf(out, "  exec share of point time (core_build+core_eval+exec): %.1f%%\n", share)
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
