package trace

import (
	"strings"
	"testing"

	"hpfperf/internal/obs"
)

// Edge-case coverage of the gantt renderer: degenerate traces must
// render without panicking and keep every lane inside its frame.

func ganttLanes(t *testing.T, out string, width int) []string {
	t.Helper()
	var lanes []string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "P") {
			continue
		}
		open := strings.IndexByte(line, '|')
		close := strings.LastIndexByte(line, '|')
		if open < 0 || close <= open {
			t.Fatalf("lane without frame: %q", line)
		}
		lane := line[open+1 : close]
		if len(lane) != width {
			t.Errorf("lane width %d, want %d: %q", len(lane), width, line)
		}
		lanes = append(lanes, lane)
	}
	return lanes
}

// TestGanttZeroDurationEvents: a block whose begin and end share a
// timestamp still marks (at least) one bucket and never corrupts
// neighbors.
func TestGanttZeroDurationEvents(t *testing.T) {
	tr := &Trace{
		Procs: 2,
		Events: []Event{
			{Type: TraceStart, TimeUS: 0, Proc: 0},
			{Type: TraceStart, TimeUS: 0, Proc: 1},
			{Type: BlockBegin, TimeUS: 50, Proc: 0},
			{Type: BlockEnd, TimeUS: 50, Proc: 0}, // zero-duration block
			{Type: Send, TimeUS: 80, Proc: 1},
			{Type: Recv, TimeUS: 80, Proc: 1}, // zero-duration comm
			{Type: TraceStop, TimeUS: 100, Proc: 0},
			{Type: TraceStop, TimeUS: 100, Proc: 1},
		},
	}
	out := tr.Gantt(40)
	lanes := ganttLanes(t, out, 40)
	if len(lanes) != 2 {
		t.Fatalf("got %d lanes, want 2", len(lanes))
	}
	if !strings.Contains(lanes[0], "#") {
		t.Errorf("zero-duration block left no mark: %q", lanes[0])
	}
	if !strings.Contains(lanes[1], "~") {
		t.Errorf("zero-duration comm left no mark: %q", lanes[1])
	}
}

// TestGanttOutOfOrderEvents: an end without a begin (and a recv without
// a send) must be ignored, not panic or mark garbage.
func TestGanttOutOfOrderEvents(t *testing.T) {
	tr := &Trace{
		Procs: 1,
		Events: []Event{
			{Type: BlockEnd, TimeUS: 10, Proc: 0}, // end before any begin
			{Type: Recv, TimeUS: 20, Proc: 0},     // recv before any send
			{Type: BlockBegin, TimeUS: 30, Proc: 0},
			{Type: BlockEnd, TimeUS: 60, Proc: 0},
			{Type: TraceStop, TimeUS: 100, Proc: 0},
		},
	}
	out := tr.Gantt(10)
	lane := ganttLanes(t, out, 10)[0]
	// Only the matched block (30..60 of 100us => buckets 3..6) marks.
	if got := strings.Count(lane, "#"); got != 4 {
		t.Errorf("marked %d buckets, want 4: %q", got, lane)
	}
	if strings.Contains(lane[:3], "#") || strings.Contains(lane[:3], "~") {
		t.Errorf("unmatched events marked the timeline head: %q", lane)
	}
}

// TestGanttEventBeyondEnd: events past the final timestamp (or negative)
// clamp to the frame instead of indexing out of bounds.
func TestGanttEventBeyondEnd(t *testing.T) {
	tr := &Trace{
		Procs: 1,
		Events: []Event{
			{Type: BlockBegin, TimeUS: -10, Proc: 0}, // before trace start
			{Type: BlockEnd, TimeUS: 250, Proc: 0},   // beyond EndTimeUS
			{Type: TraceStop, TimeUS: 200, Proc: 0},
		},
	}
	// EndTimeUS is 200 (last event), the block clamps to the full frame.
	out := tr.Gantt(20)
	lane := ganttLanes(t, out, 20)[0]
	if lane != strings.Repeat("#", 20) {
		t.Errorf("clamped block should fill the lane: %q", lane)
	}
}

// TestGanttLaneOverflow: widths beyond 80 columns and events for
// processors outside [0, Procs) must not write out of range.
func TestGanttLaneOverflow(t *testing.T) {
	tr := &Trace{
		Procs: 1,
		Events: []Event{
			{Type: BlockBegin, TimeUS: 0, Proc: 5}, // no such lane
			{Type: BlockEnd, TimeUS: 90, Proc: 5},
			{Type: BlockBegin, TimeUS: 10, Proc: -1}, // negative lane
			{Type: BlockEnd, TimeUS: 20, Proc: -1},
			{Type: BlockBegin, TimeUS: 0, Proc: 0},
			{Type: BlockEnd, TimeUS: 100, Proc: 0},
			{Type: TraceStop, TimeUS: 100, Proc: 0},
		},
	}
	for _, width := range []int{1, 79, 80, 81, 200} {
		lanes := ganttLanes(t, tr.Gantt(width), width)
		if len(lanes) != 1 {
			t.Fatalf("width %d: %d lanes, want 1", width, len(lanes))
		}
	}
	// Non-positive widths fall back to the 72-column default.
	ganttLanes(t, tr.Gantt(0), 72)
	ganttLanes(t, tr.Gantt(-3), 72)
}

// TestGanttEmptyAndDegenerate: no events, and events all at t=0.
func TestGanttEmptyAndDegenerate(t *testing.T) {
	if got := (&Trace{}).Gantt(40); got != "(empty trace)\n" {
		t.Errorf("empty trace rendered %q", got)
	}
	allZero := &Trace{Procs: 1, Events: []Event{
		{Type: BlockBegin, TimeUS: 0, Proc: 0},
		{Type: BlockEnd, TimeUS: 0, Proc: 0},
		{Type: TraceStop, TimeUS: 0, Proc: 0},
	}}
	// EndTimeUS == 0: nothing to scale by, must not divide by zero.
	if got := allZero.Gantt(40); got != "(empty trace)\n" {
		t.Errorf("zero-length trace rendered %q", got)
	}
}

// buildTree assembles an obs.Tree without going through a live Tracer so
// tests control every timestamp.
func buildTree(root *obs.Node, spans int) *obs.Tree {
	return &obs.Tree{TraceID: "cafe", Spans: spans, DurUS: root.DurUS, Root: root}
}

// TestFromSpanTreeLanes: nesting depth maps to lanes and every span
// leaves a busy mark on its depth's lane.
func TestFromSpanTreeLanes(t *testing.T) {
	tree := buildTree(&obs.Node{
		Name: "root", StartUS: 0, DurUS: 100,
		Children: []*obs.Node{
			{Name: "compile", StartUS: 0, DurUS: 30, Children: []*obs.Node{
				{Name: "parse", StartUS: 5, DurUS: 10},
			}},
			{Name: "interp", StartUS: 60, DurUS: 40},
		},
	}, 4)
	tr := FromSpanTree(tree)
	if tr.Procs != 3 {
		t.Fatalf("lanes = %d, want 3 (depths 0..2)", tr.Procs)
	}
	lanes := ganttLanes(t, tr.Gantt(20), 20)
	if lanes[0] != strings.Repeat("#", 20) {
		t.Errorf("root lane should be fully busy: %q", lanes[0])
	}
	for d := 1; d < 3; d++ {
		if !strings.Contains(lanes[d], "#") {
			t.Errorf("depth-%d lane has no busy mark: %q", d, lanes[d])
		}
	}
	// The depth-1 lane has idle space between compile and interp.
	if !strings.Contains(lanes[1], ".") {
		t.Errorf("depth-1 lane shows no idle gap: %q", lanes[1])
	}
}

func TestFromSpanTreeEmpty(t *testing.T) {
	if tr := FromSpanTree(nil); tr.Procs != 0 || len(tr.Events) != 0 {
		t.Errorf("nil tree produced a non-empty trace: %+v", tr)
	}
	if tr := FromSpanTree(&obs.Tree{}); tr.Procs != 0 || len(tr.Events) != 0 {
		t.Errorf("rootless tree produced a non-empty trace: %+v", tr)
	}
	if got := RenderSpanTree(nil); got != "(empty trace)\n" {
		t.Errorf("nil tree rendered %q", got)
	}
}

func TestRenderSpanTreeListing(t *testing.T) {
	tree := buildTree(&obs.Node{
		Name: "root", DurUS: 10,
		Children: []*obs.Node{
			{Name: "child", StartUS: 1, DurUS: 5, Attrs: map[string]string{"procs": "4", "line": "9"}},
		},
	}, 2)
	out := RenderSpanTree(tree)
	if !strings.Contains(out, "trace cafe, 2 spans") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "child") || !strings.Contains(out, "line=9  procs=4") {
		t.Errorf("missing span line with sorted attrs: %q", out)
	}
}

// TestSpanTreeRoundTripThroughRealTracer: a tree produced by a live
// tracer renders through the same path hpftrace -spans uses.
func TestSpanTreeRoundTripThroughRealTracer(t *testing.T) {
	tracer := obs.NewTracer(obs.NewTraceID())
	root := tracer.Root("cli")
	c := root.StartChild("compile")
	c.StartChild("parse").End()
	c.End()
	root.StartChild("interp").End()
	root.End()
	tree := tracer.Tree()
	out := FromSpanTree(tree).Gantt(60)
	if strings.Contains(out, "(empty trace)") {
		t.Fatalf("live tree rendered empty:\n%s", out)
	}
	if !strings.Contains(out, "P0") || !strings.Contains(out, "P1") {
		t.Errorf("expected at least two lanes:\n%s", out)
	}
	if !strings.Contains(RenderSpanTree(tree), "parse") {
		t.Errorf("listing lost a span:\n%s", RenderSpanTree(tree))
	}
}
