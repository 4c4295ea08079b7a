// Package ipsc simulates the timing behaviour of an iPSC/860 hypercube
// multicomputer: per-node clocks, an e-cube routed hypercube network with
// the NX short/long message protocol, the collective communication library
// (shift exchange, global reduction, broadcast, concatenation), a data
// cache model, and seeded per-run load fluctuation.
//
// The simulator deliberately layers second-order effects (cache misses,
// protocol switching, per-hop latency, synchronization skew, load noise)
// on top of the same base parameters that the interpretation engine sees
// through the SAU abstraction, so that the gap between "estimated" and
// "measured" times reproduces the structure reported in the paper.
package ipsc

import (
	"fmt"
	"math"
	"math/rand"

	"hpfperf/internal/sysmodel"
)

// AccessClass classifies the spatial locality of an array access stream.
type AccessClass int

const (
	// Unit-stride streams (contiguous in Fortran column-major order).
	Unit AccessClass = iota
	// Strided streams (stride exceeding one cache line).
	Strided
	// Random / data-dependent (indirection, gathered shadow copies).
	Random
)

// Config parameterizes one simulated machine instance.
type Config struct {
	// Nodes is the number of compute nodes in use (≤ the physical cube).
	Nodes int
	// Base supplies the shared machine parameters.
	Base *sysmodel.Machine
	// CacheModel enables the data-cache miss model.
	CacheModel bool
	// PerturbAmp is the relative amplitude of per-run compute-time load
	// fluctuation (0 disables; the paper's measurements averaged 1000 runs
	// whose variance typically exceeded the interpretation error).
	PerturbAmp float64
	// TimerResUS is the resolution/tolerance of the timing routine.
	TimerResUS float64
	// Seed drives the deterministic noise generator.
	Seed int64
}

// DefaultConfig returns the detailed simulation configuration for n nodes.
func DefaultConfig(n int) Config {
	return Config{
		Nodes:      n,
		Base:       sysmodel.IPSC860(),
		CacheModel: true,
		PerturbAmp: 0.01,
		TimerResUS: 2.0,
		Seed:       1994,
	}
}

// Machine is a simulated iPSC/860: per-node clocks in microseconds plus
// the cost models consulted by the SPMD executor.
type Machine struct {
	cfg    Config
	node   *sysmodel.SAU
	clocks []float64
	factor []float64 // per-run per-node compute slowdown factors
	prev   []float64 // ShiftExchange's copy of the clocks before the exchange
	rng    *rand.Rand
	// Stats accumulates simulator-level counters.
	Stats Stats
}

// Stats counts simulated events.
type Stats struct {
	Messages    int
	BytesMoved  int
	Collectives int
	ComputeUS   float64
	CommWaitUS  float64
}

// New builds a simulated machine.
func New(cfg Config) (*Machine, error) {
	if cfg.Base == nil {
		cfg.Base = sysmodel.IPSC860()
	}
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("ipsc: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.Nodes > cfg.Base.MaxNodes {
		return nil, fmt.Errorf("ipsc: %d nodes exceed the %d-node %s", cfg.Nodes, cfg.Base.MaxNodes, cfg.Base.Name)
	}
	m := &Machine{
		cfg:    cfg,
		node:   cfg.Base.Node,
		clocks: make([]float64, cfg.Nodes),
		factor: make([]float64, cfg.Nodes),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	m.NewRun()
	return m, nil
}

// Nodes returns the number of simulated nodes.
func (m *Machine) Nodes() int { return m.cfg.Nodes }

// Node returns the node SAU (shared base parameters).
func (m *Machine) Node() *sysmodel.SAU { return m.node }

// CloneForRun builds an independent machine with the same configuration
// whose noise stream is deterministically derived from the run index, so
// timed runs can execute concurrently while remaining reproducible.
func (m *Machine) CloneForRun(run int) *Machine {
	cfg := m.cfg
	cfg.Seed = m.cfg.Seed + int64(run)*7919 // decorrelate run streams
	c := &Machine{
		cfg:    cfg,
		node:   m.node,
		clocks: make([]float64, cfg.Nodes),
		factor: make([]float64, cfg.Nodes),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	c.NewRun()
	return c
}

// NewRun resets the clocks and resamples the load-fluctuation factors,
// modeling an independent timed run on a loaded system.
func (m *Machine) NewRun() {
	for i := range m.clocks {
		m.clocks[i] = 0
		m.factor[i] = 1
		if m.cfg.PerturbAmp > 0 {
			m.factor[i] = 1 + m.cfg.PerturbAmp*(2*m.rng.Float64()-1)
		}
	}
}

// Time returns node rank's clock in microseconds.
func (m *Machine) Time(rank int) float64 { return m.clocks[rank] }

// MaxTime returns the latest clock: the loosely synchronous completion
// time of the program.
func (m *Machine) MaxTime() float64 {
	t := 0.0
	for _, c := range m.clocks {
		if c > t {
			t = c
		}
	}
	return t
}

// MeasuredTimeUS returns the program completion time as the timing routine
// would report it (with tolerance noise).
func (m *Machine) MeasuredTimeUS() float64 {
	t := m.MaxTime()
	if m.cfg.TimerResUS > 0 {
		t += m.rng.Float64() * m.cfg.TimerResUS
	}
	return t
}

// ---------------------------------------------------------------------------
// Computation

// Compute advances rank's clock by the given cycle count, applying the
// node's clock rate and the per-run load factor.
func (m *Machine) Compute(rank int, cycles float64) {
	us := m.ComputeUS(rank, cycles)
	m.clocks[rank] += us
	m.Stats.ComputeUS += us
}

// ComputeUS returns the time Compute(rank, cycles) adds to rank's clock.
func (m *Machine) ComputeUS(rank int, cycles float64) float64 {
	return m.node.P.CyclesToUS(cycles) * m.factor[rank]
}

// Charge makes n rounds of precomputed compute charges: each round adds
// us[k] to the clock of rank ranks[k], for k in order. The clocks and
// Stats.ComputeUS receive the same additions, in the same order, as the
// Compute calls whose ComputeUS values us holds.
func (m *Machine) Charge(ranks []int, us []float64, n int) {
	total := m.Stats.ComputeUS
	for ; n > 0; n-- {
		for k, r := range ranks {
			m.clocks[r] += us[k]
			total += us[k]
		}
	}
	m.Stats.ComputeUS = total
}

// ComputeAll advances every clock (redundant replicated computation).
func (m *Machine) ComputeAll(cycles float64) {
	for r := range m.clocks {
		m.Compute(r, cycles)
	}
}

// MemAccessCycles returns the per-access cycle cost of a load or store
// stream with the given access class, given the loop's per-node data
// footprint in bytes.
func (m *Machine) MemAccessCycles(store bool, cls AccessClass, footprintBytes, elemBytes int) float64 {
	return m.MemAccessCyclesScaled(store, cls, footprintBytes, elemBytes, 1)
}

// MemAccessCyclesScaled is MemAccessCycles with the miss rate scaled by
// missScale (line sharing across grouped references).
func (m *Machine) MemAccessCyclesScaled(store bool, cls AccessClass, footprintBytes, elemBytes int, missScale float64) float64 {
	mem := m.node.M
	base := mem.LoadCycles
	if store {
		base = mem.StoreCycles
	}
	if !m.cfg.CacheModel {
		return base
	}
	missRate := 0.0
	switch cls {
	case Unit:
		if footprintBytes > mem.DCacheBytes {
			// Streaming: one miss per cache line.
			missRate = float64(elemBytes) / float64(mem.LineBytes)
		} else {
			missRate = 0.04 // warm-cache residual misses
		}
	case Strided:
		if footprintBytes > mem.DCacheBytes {
			missRate = 1.0
		} else {
			missRate = 0.10
		}
	case Random:
		if footprintBytes > mem.DCacheBytes {
			missRate = 0.85
		} else {
			missRate = 0.25
		}
	}
	return base + missScale*missRate*mem.MissPenaltyCycles
}

// ---------------------------------------------------------------------------
// Network

// hops returns the e-cube hop count between two node ranks.
func (m *Machine) hops(a, b int) int {
	h := sysmodel.HypercubeHops(a, b)
	if h < 1 {
		h = 1
	}
	return h
}

// msgUS returns the one-message transfer time including packing.
func (m *Machine) msgUS(bytes, hops int) float64 {
	c := m.node.C
	t := c.MsgTimeUS(bytes, hops)
	t += c.PackStartupUS + float64(bytes)*c.PackPerByteUS
	m.Stats.Messages++
	m.Stats.BytesMoved += bytes
	return t
}

// syncAll aligns every node to a common start time (loosely synchronous
// phase boundary), recording the skew as communication wait.
func (m *Machine) syncAll() float64 {
	t := 0.0
	for _, c := range m.clocks {
		if c > t {
			t = c
		}
	}
	for r, c := range m.clocks {
		m.Stats.CommWaitUS += t - c
		m.clocks[r] = t
	}
	return t
}

// ShiftExchange models a nearest-neighbour halo/shift exchange: each
// participating rank exchanges bytes[r] bytes with the ranks given by
// partner(r) (send) and its inverse (receive). Each pair synchronizes
// locally; the cost is one send plus one receive per node.
func (m *Machine) ShiftExchange(bytes func(rank int) int, partner func(rank int) int) {
	if m.cfg.Nodes == 1 {
		return
	}
	m.Stats.Collectives++
	m.prev = append(m.prev[:0], m.clocks...)
	old := m.prev
	for r := 0; r < m.cfg.Nodes; r++ {
		p := partner(r)
		if p == r || p < 0 {
			continue
		}
		start := math.Max(old[r], old[p])
		m.Stats.CommWaitUS += start - old[r]
		send := m.msgUS(bytes(r), m.hops(r, p))
		recv := m.msgUS(bytes(p), m.hops(p, r))
		// Send and receive overlap partially on the NX interface.
		m.clocks[r] = start + math.Max(send, recv) + 0.35*math.Min(send, recv)
	}
}

// AllReduce models the global combining tree of the reduction library
// (sum, product, maxloc, ...) over all nodes: log2(P) exchange stages on
// a small fixed-size message, fully synchronizing.
func (m *Machine) AllReduce(bytes int) {
	if m.cfg.Nodes == 1 {
		return
	}
	m.Stats.Collectives++
	stages := sysmodel.Log2Ceil(m.cfg.Nodes)
	t := m.syncAll()
	cost := 0.0
	for s := 0; s < stages; s++ {
		cost += m.msgUS(bytes, 1) + m.node.C.ReduceStageUS
	}
	for r := range m.clocks {
		m.clocks[r] = t + cost
	}
}

// Broadcast models a one-to-all broadcast from root along a spanning tree.
func (m *Machine) Broadcast(root, bytes int) {
	if m.cfg.Nodes == 1 {
		return
	}
	m.Stats.Collectives++
	stages := sysmodel.Log2Ceil(m.cfg.Nodes)
	// Receivers cannot proceed before the root sends; the tree pipeline
	// completes after `stages` message steps.
	t := m.syncAll()
	cost := 0.0
	for s := 0; s < stages; s++ {
		cost += m.msgUS(bytes, 1) + m.node.C.BcastStageUS
	}
	for r := range m.clocks {
		m.clocks[r] = t + cost
	}
}

// AllGatherV models the concatenation collective building a full copy of
// a distributed array on every node (recursive doubling).
func (m *Machine) AllGatherV(localBytes func(rank int) int) {
	if m.cfg.Nodes == 1 {
		return
	}
	m.Stats.Collectives++
	total := 0
	maxLocal := 0
	for r := 0; r < m.cfg.Nodes; r++ {
		b := localBytes(r)
		total += b
		if b > maxLocal {
			maxLocal = b
		}
	}
	stages := sysmodel.Log2Ceil(m.cfg.Nodes)
	t := m.syncAll()
	// Recursive doubling: stage i exchanges ~2^i × maxLocal bytes.
	cost := 0.0
	vol := maxLocal
	for s := 0; s < stages; s++ {
		cost += m.msgUS(vol, 1) + m.node.C.GatherStageUS
		vol *= 2
		if vol > total {
			vol = total
		}
	}
	for r := range m.clocks {
		m.clocks[r] = t + cost
	}
}

// FetchBroadcast models one element fetched from its owner and broadcast
// to all nodes.
func (m *Machine) FetchBroadcast(owner, bytes int) {
	m.Broadcast(owner, bytes)
}

// HostIO models list-directed output: node 0 ships bytes to the SRM host.
func (m *Machine) HostIO(bytes int) {
	io := m.node.IO
	m.clocks[0] += io.HostStartupUS + float64(bytes)*io.HostPerByteUS
}

// Barrier fully synchronizes all nodes.
func (m *Machine) Barrier() { m.syncAll() }
