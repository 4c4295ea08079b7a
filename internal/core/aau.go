// Package core implements the paper's primary contribution: the
// interpretive performance prediction engine (§3, §4.2). It abstracts the
// compiled SPMD node program into Application Abstraction Units (AAU)
// composed into the Application Abstraction Graph (AAG), superimposes the
// communication structure to form the Synchronized AAG (SAAG) with its
// communication table, resolves critical variables, and interprets the
// performance of each AAU in terms of the parameters exported by the
// System Abstraction Units of package sysmodel (calibrated against the
// machine by package ipsc).
package core

import (
	"fmt"
	"strings"

	"hpfperf/internal/hir"
)

// Kind classifies an Application Abstraction Unit.
type Kind int

const (
	// Root is the program-level AAU.
	Root Kind = iota
	// Seq abstracts straight-line local computation.
	Seq
	// IterD abstracts a distributed (owner-computes partitioned) loop.
	IterD
	// Iter abstracts a replicated sequential loop.
	Iter
	// CondtD abstracts an element-level (masked) conditional.
	CondtD
	// Condt abstracts a replicated scalar conditional.
	Condt
	// Comm abstracts a communication/synchronization operation.
	Comm
	// IO abstracts host input/output.
	IO
)

var kindNames = [...]string{"Root", "Seq", "IterD", "Iter", "CondtD", "Condt", "Comm", "IO"}

func (k Kind) String() string { return kindNames[k] }

// Metrics are the per-AAU performance measures maintained by the
// interpretation engine (§4.2): computation, communication and overhead
// times plus the execution count.
type Metrics struct {
	CompUS float64
	CommUS float64
	OvhdUS float64
	Execs  float64
}

// TotalUS is the summed time of the metrics.
func (m *Metrics) TotalUS() float64 { return m.CompUS + m.CommUS + m.OvhdUS }

// Accumulate adds o into m.
func (m *Metrics) Accumulate(o Metrics) {
	m.CompUS += o.CompUS
	m.CommUS += o.CommUS
	m.OvhdUS += o.OvhdUS
	m.Execs += o.Execs
}

// AAU is one Application Abstraction Unit.
type AAU struct {
	ID    int
	Kind  Kind
	Label string
	Line  int
	Stmt  hir.Stmt

	// Children are nested AAUs; for conditional AAUs, ElseStart is the
	// index of the first else-branch child (len(Children) when absent).
	Children  []*AAU
	ElseStart int

	// CommRec links a Comm AAU to its communication table entry.
	CommRec *CommRec

	// Metrics accumulate during interpretation.
	Metrics Metrics
	// ClockUS is the value of the global clock when this AAU last
	// completed (§4.2: metrics maintained at each AAU include "the value
	// of the global clock").
	ClockUS float64
}

// CommKind classifies a communication table entry.
type CommKind int

const (
	CommShift CommKind = iota
	CommCShift
	CommEOShift
	CommAllGather
	CommReduce
	CommBcast
	CommHostIO
)

var commNames = [...]string{"shift", "cshift", "eoshift", "allgather", "reduce", "bcast", "hostio"}

func (k CommKind) String() string { return commNames[k] }

// CommRec is one entry of the communication table generated by the
// abstraction parse (§4.2): the specification and (after interpretation)
// status of each communication.
type CommRec struct {
	ID    int
	Kind  CommKind
	Array string
	Dim   int
	Line  int
	AAU   *AAU
	// Consumer is the ID of the computation AAU this communication feeds
	// (the SAAG edge superimposed on the AAG); 0 when terminal.
	Consumer int
	// Interpretation results:
	Bytes  float64 // per-operation volume
	CostUS float64 // per-operation modeled cost
	Count  float64 // number of executions
}

// SAAG is the synchronized application abstraction graph: the AAG plus
// the communication table.
type SAAG struct {
	Program string
	Root    *AAU
	Table   []*CommRec
	nextID  int
}

// BuildSAAG performs the abstraction parse: it intercepts the SPMD
// program structure produced by compilation phase 1 and abstracts its
// execution and communication structures (§4.2).
func BuildSAAG(p *hir.Program) *SAAG {
	g := &SAAG{Program: p.Name}
	g.Root = &AAU{ID: g.id(), Kind: Root, Label: p.Name}
	g.Root.Children = g.buildStmts(p.Body)
	return g
}

func (g *SAAG) id() int {
	g.nextID++
	return g.nextID
}

func (g *SAAG) buildStmts(ss []hir.Stmt) []*AAU {
	var out []*AAU
	for _, s := range ss {
		out = append(out, g.buildStmt(s))
	}
	// Superimpose the communication structure: link each communication
	// AAU to the next computation AAU at this level (the consumer of the
	// fetched data), forming the SAAG edges.
	for i, a := range out {
		if a.Kind != Comm || a.CommRec == nil {
			continue
		}
		for j := i + 1; j < len(out); j++ {
			if out[j].Kind != Comm && out[j].Kind != IO {
				a.CommRec.Consumer = out[j].ID
				break
			}
		}
	}
	return out
}

func (g *SAAG) buildStmt(s hir.Stmt) *AAU {
	switch x := s.(type) {
	case *hir.Assign:
		return &AAU{ID: g.id(), Kind: Seq, Label: x.Lhs.String() + " = ...", Line: x.SrcLine, Stmt: s}
	case *hir.Loop:
		kind := Iter
		if x.Par != nil {
			kind = IterD
		}
		a := &AAU{ID: g.id(), Kind: kind, Label: x.Label + " " + x.Var, Line: x.SrcLine, Stmt: s}
		a.Children = g.buildStmts(x.Body)
		return a
	case *hir.While:
		a := &AAU{ID: g.id(), Kind: Iter, Label: "DO WHILE", Line: x.SrcLine, Stmt: s}
		a.Children = g.buildStmts(x.Body)
		return a
	case *hir.If:
		kind := Condt
		if hir.Elemental(x.Cond) {
			kind = CondtD
		}
		a := &AAU{ID: g.id(), Kind: kind, Label: "IF", Line: x.SrcLine, Stmt: s}
		a.Children = g.buildStmts(x.Then)
		a.ElseStart = len(a.Children)
		a.Children = append(a.Children, g.buildStmts(x.Else)...)
		return a
	case *hir.Shift:
		return g.commAAU(s, CommShift, x.Array, x.Dim, x.SrcLine, fmt.Sprintf("SHIFT %s%+d", x.Array, x.Offset))
	case *hir.AllGather:
		return g.commAAU(s, CommAllGather, x.Array, 0, x.SrcLine, "ALLGATHER "+x.Array)
	case *hir.CShift:
		return g.commAAU(s, CommCShift, x.Src, x.Dim, x.SrcLine, fmt.Sprintf("CSHIFT %s->%s", x.Src, x.Dst))
	case *hir.EOShift:
		return g.commAAU(s, CommEOShift, x.Src, x.Dim, x.SrcLine, fmt.Sprintf("EOSHIFT %s->%s", x.Src, x.Dst))
	case *hir.Reduce:
		return g.commAAU(s, CommReduce, x.Src, 0, x.SrcLine, "REDUCE "+x.Op.String())
	case *hir.FetchElem:
		return g.commAAU(s, CommBcast, x.Array, 0, x.SrcLine, "FETCH "+x.Array)
	case *hir.Print:
		a := &AAU{ID: g.id(), Kind: IO, Label: "PRINT", Line: x.SrcLine, Stmt: s}
		rec := &CommRec{ID: len(g.Table) + 1, Kind: CommHostIO, Line: x.SrcLine, AAU: a}
		a.CommRec = rec
		g.Table = append(g.Table, rec)
		return a
	}
	return &AAU{ID: g.id(), Kind: Seq, Label: fmt.Sprintf("%T", s), Stmt: s}
}

func (g *SAAG) commAAU(s hir.Stmt, kind CommKind, array string, dim, line int, label string) *AAU {
	a := &AAU{ID: g.id(), Kind: Comm, Label: label, Line: line, Stmt: s}
	rec := &CommRec{ID: len(g.Table) + 1, Kind: kind, Array: array, Dim: dim, Line: line, AAU: a}
	a.CommRec = rec
	g.Table = append(g.Table, rec)
	return a
}

// SubgraphMetrics returns the cumulative metrics of the sub-AAG rooted at
// a (the AAU plus all of its descendants) — the "branch of the AAG" query
// of the output module (§3.4).
func SubgraphMetrics(a *AAU) Metrics {
	var total Metrics
	var walk func(n *AAU)
	walk = func(n *AAU) {
		total.Accumulate(n.Metrics)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(a)
	return total
}

// FindAAU returns the AAU with the given ID in the graph, or nil.
func (g *SAAG) FindAAU(id int) *AAU {
	var found *AAU
	g.Walk(func(a *AAU) {
		if a.ID == id {
			found = a
		}
	})
	return found
}

// Walk visits every AAU in preorder.
func (g *SAAG) Walk(f func(*AAU)) {
	var walk func(a *AAU)
	walk = func(a *AAU) {
		f(a)
		for _, c := range a.Children {
			walk(c)
		}
	}
	walk(g.Root)
}

// Count returns the number of AAUs in the graph.
func (g *SAAG) Count() int {
	n := 0
	g.Walk(func(*AAU) { n++ })
	return n
}

// Dump renders the AAG structure with metrics.
func (g *SAAG) Dump() string {
	var b strings.Builder
	var walk func(a *AAU, depth int)
	walk = func(a *AAU, depth int) {
		fmt.Fprintf(&b, "%s[%s] %s", strings.Repeat("  ", depth), a.Kind, a.Label)
		if t := a.Metrics.TotalUS(); t > 0 {
			fmt.Fprintf(&b, "  (%.1fus comp=%.1f comm=%.1f ovhd=%.1f x%.0f clock=%.1f)",
				t, a.Metrics.CompUS, a.Metrics.CommUS, a.Metrics.OvhdUS, a.Metrics.Execs, a.ClockUS)
		}
		b.WriteString("\n")
		for i, c := range a.Children {
			if a.Kind == Condt || a.Kind == CondtD {
				if i == 0 && a.ElseStart > 0 {
					fmt.Fprintf(&b, "%sTHEN:\n", strings.Repeat("  ", depth+1))
				}
				if i == a.ElseStart {
					fmt.Fprintf(&b, "%sELSE:\n", strings.Repeat("  ", depth+1))
				}
			}
			walk(c, depth+1)
		}
	}
	walk(g.Root, 0)
	return b.String()
}
