package main

import (
	"bufio"
	"context"
	"math/rand"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// window is the length of the slices a timed phase is cut into; CPU per
// op is reported as the median over the slices, so a burst of load from
// outside the process moves the minority of slices it hits, not the
// result. A call longer than a window makes a slice of its own.
const window = 250 * time.Millisecond

// latCap bounds the per-call samples a phase keeps. Past it, samples are
// kept by reservoir sampling, so the benchmark's own memory stays flat
// and out of peak_rss_mb: a predict-hot run serves ~700k requests, whose
// latencies alone would otherwise take ~12 MB of a ~30 MB process.
const latCap = 1 << 16

// keyCap bounds the call cycles a phase keeps per input; past it they
// are kept by reservoir sampling.
const keyCap = 63

// slice is the work done in one window of a phase.
type slice struct {
	points    int64
	wall, cpu time.Duration
	peakMB    float64 // VmHWM over the slice
}

// phase is the record of one timed phase of a run.
type phase struct {
	calls     int   // workload calls issued (one request each)
	points    int64 // ops attempted: requests, or batch points
	failed    int64
	refused   int64 // 429 and 503 responses
	respBytes int64
	wall      time.Duration
	lat       reservoir // handler latency per call (untraced phases)
	// cycles holds, per input (callOutcome.key), the wall time from the
	// end of the previous call to the end of each call of that input.
	cycles map[int]*reservoir
	cycRNG *rand.Rand
	slices []slice
	cpu    time.Duration // process user+sys CPU time
	gcCPU  float64       // GC CPU seconds (runtime/metrics)
	allocB float64       // heap bytes allocated
}

// measure issues workload calls first, first+1, … from one closed-loop
// caller until d has passed (at least one call). With tr nil each call
// is the bare request and its handler latency is sampled; otherwise each
// call is the traced replay.
func measure(ctx context.Context, w workload, d time.Duration, first int, tr *tracer) *phase {
	p := &phase{lat: newReservoir(latCap, rand.New(rand.NewSource(1))), cycles: make(map[int]*reservoir), cycRNG: rand.New(rand.NewSource(2))}
	cpu0, rt0 := cpuTime(), readRuntime()
	start := time.Now()
	cur := slice{}
	curStart, curCPU, last := start, cpu0, start
	resetPeakRSS()
	for i := first; i == first || time.Since(start) < d; i++ {
		var oc callOutcome
		if tr == nil {
			var lat time.Duration
			lat, oc = w.do(ctx, i)
			p.lat.add(lat)
		} else {
			oc = w.doTraced(ctx, i, tr)
		}
		p.calls++
		p.points += int64(oc.points)
		p.failed += int64(oc.failed)
		p.refused += int64(oc.refused)
		p.respBytes += int64(oc.respBytes)
		cur.points += int64(oc.points)
		now := time.Now()
		p.cycle(oc.key).add(now.Sub(last))
		last = now
		if now.Sub(curStart) >= window {
			c := cpuTime()
			cur.wall, cur.cpu, cur.peakMB = now.Sub(curStart), c-curCPU, peakRSSMB()
			resetPeakRSS()
			p.slices = append(p.slices, cur)
			cur, curStart, curCPU = slice{}, now, c
		}
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	if len(p.slices) == 0 {
		p.slices = []slice{{points: p.points, wall: p.wall, cpu: p.cpu, peakMB: peakRSSMB()}}
	}
	rt1 := readRuntime()
	p.gcCPU = rt1.gcCPU - rt0.gcCPU
	p.allocB = rt1.allocB - rt0.allocB
	return p
}

// reservoir is a uniform sample of at most cap(xs) of the n durations
// added to it (reservoir sampling, algorithm R).
type reservoir struct {
	xs  []time.Duration
	n   int64
	rng *rand.Rand
}

func newReservoir(size int, rng *rand.Rand) reservoir {
	return reservoir{xs: make([]time.Duration, 0, size), rng: rng}
}

func (r *reservoir) add(d time.Duration) {
	r.n++
	if len(r.xs) < cap(r.xs) {
		r.xs = append(r.xs, d)
	} else if j := r.rng.Int63n(r.n); j < int64(cap(r.xs)) {
		r.xs[j] = d
	}
}

// cycle returns the call-cycle sample of input key.
func (p *phase) cycle(key int) *reservoir {
	r := p.cycles[key]
	if r == nil {
		v := newReservoir(keyCap, p.cycRNG)
		r = &v
		p.cycles[key] = r
	}
	return r
}

// rate is the phase's points per second on one pass over the inputs it
// served, each input timed by its median call cycle: points per call ×
// inputs ÷ the sum of the inputs' medians. On a shared host the calls
// that lose the CPU to another tenant take milliseconds where the rest
// take microseconds, and how many there are depends on the host, not on
// the program; a median per input drops them, while every input, cheap
// or costly, still counts once.
func (p *phase) rate() float64 {
	var sum time.Duration
	for _, r := range p.cycles {
		sum += quantile(r.xs, 0.5)
	}
	return float64(p.points) / float64(p.calls) * float64(len(p.cycles)) / sum.Seconds()
}

// cyclesPerInput is the median number of call cycles per input.
func (p *phase) cyclesPerInput() int64 {
	ns := make([]int64, 0, len(p.cycles))
	for _, r := range p.cycles {
		ns = append(ns, r.n)
	}
	return quantile(ns, 0.5)
}

// cpuPerOp is the median over the phase's slices of CPU time per point.
func (p *phase) cpuPerOp() time.Duration {
	xs := make([]float64, len(p.slices))
	for i, s := range p.slices {
		xs[i] = float64(s.cpu) / float64(s.points)
	}
	return time.Duration(median(xs))
}

// peakRSS is the 90th percentile over the phase's slices of each slice's
// VmHWM: a high-water mark that nine windows in ten stay under, which one
// collection that starts late does not move.
func (p *phase) peakRSS() float64 {
	xs := make([]float64, len(p.slices))
	for i, s := range p.slices {
		xs[i] = s.peakMB
	}
	return quantile(xs, 0.9)
}

// cpuTime is the process's user+sys CPU time (getrusage), which counts
// the GC work the runtime does on the idle core.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeCounters struct{ gcCPU, allocB float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeCounters{gcCPU: s[0].Value.Float64(), allocB: float64(s[1].Value.Uint64())}
}

// resetPeakRSS resets the process's VmHWM to its current RSS, so the
// next read covers only the time since. Where the kernel lacks the reset
// every read covers the whole process.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is the process's VmHWM in MB, or 0 where /proc is absent.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
