package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeStructure(t *testing.T) {
	tr := NewTracer("t1")
	root := tr.Root("server.predict")
	c1 := root.StartChild("compile")
	c1.SetAttr("src_hash", "abc")
	g1 := c1.StartChild("parse")
	g1.End()
	c1.End()
	c2 := root.StartChild("interp")
	c2.SetAttrInt("procs", 8)
	c2.End()
	root.End()

	tree := tr.Tree()
	if tree.TraceID != "t1" {
		t.Errorf("trace ID = %q", tree.TraceID)
	}
	if tree.Spans != 4 {
		t.Errorf("spans = %d, want 4", tree.Spans)
	}
	if tree.Orphans != 0 {
		t.Errorf("orphans = %d, want 0", tree.Orphans)
	}
	if tree.Root == nil || tree.Root.Name != "server.predict" {
		t.Fatalf("root = %+v", tree.Root)
	}
	if len(tree.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(tree.Root.Children))
	}
	compile := tree.Root.Children[0]
	if compile.Name != "compile" || compile.Attrs["src_hash"] != "abc" {
		t.Errorf("compile node = %+v", compile)
	}
	if len(compile.Children) != 1 || compile.Children[0].Name != "parse" {
		t.Errorf("compile children = %+v", compile.Children)
	}
	if tree.Root.Children[1].Attrs["procs"] != "8" {
		t.Errorf("interp attrs = %+v", tree.Root.Children[1].Attrs)
	}
	if tree.DurUS != tree.Root.DurUS {
		t.Errorf("tree dur %v != root dur %v", tree.DurUS, tree.Root.DurUS)
	}
}

func TestSpanDurations(t *testing.T) {
	tr := NewTracer("t")
	root := tr.Root("r")
	c := root.StartChild("c")
	time.Sleep(2 * time.Millisecond)
	c.End()
	root.End()
	tree := tr.Tree()
	if tree.Root.DurUS < 1000 {
		t.Errorf("root dur %v us, want >= 2ms-ish", tree.Root.DurUS)
	}
	child := tree.Root.Children[0]
	if child.DurUS > tree.Root.DurUS {
		t.Errorf("child dur %v > root dur %v", child.DurUS, tree.Root.DurUS)
	}
	// End is idempotent: the first duration sticks.
	d := child.DurUS
	c.End()
	if got := tr.Tree().Root.Children[0].DurUS; got != d {
		t.Errorf("second End changed duration: %v -> %v", d, got)
	}
}

func TestNilSpanSafety(t *testing.T) {
	var s *Span
	s.End()
	s.SetAttr("k", "v")
	s.SetAttrInt("n", 1)
	if s.Active() {
		t.Error("nil span reports active")
	}
	if c := s.StartChild("x"); c != nil {
		t.Errorf("nil.StartChild = %v, want nil", c)
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if s := SpanFromContext(ctx); s != nil {
		t.Fatalf("background context has span %v", s)
	}
	// Untraced Start is a no-op returning the same context.
	ctx2, s := Start(ctx, "x")
	if s != nil || ctx2 != ctx {
		t.Fatalf("untraced Start = (%v, %v)", ctx2, s)
	}

	tr := NewTracer("t")
	root := tr.Root("root")
	ctx = ContextWithSpan(ctx, root)
	ctx3, child := Start(ctx, "child")
	if child == nil {
		t.Fatal("traced Start returned nil span")
	}
	if got := SpanFromContext(ctx3); got != child {
		t.Errorf("derived context carries %v, want child", got)
	}
	child.End()
	root.End()
	tree := tr.Tree()
	if len(tree.Root.Children) != 1 || tree.Root.Children[0].Name != "child" {
		t.Errorf("tree = %+v", tree.Root)
	}
}

func TestOrphanSpans(t *testing.T) {
	tr := NewTracer("t")
	root := tr.Root("root")
	extra := tr.Root("stray-root") // second root: counted as orphan
	extra.End()
	root.End()
	tree := tr.Tree()
	if tree.Orphans != 1 {
		t.Errorf("orphans = %d, want 1", tree.Orphans)
	}
	// Orphans are reattached under the root, not dropped.
	if len(tree.Root.Children) != 1 || tree.Root.Children[0].Name != "stray-root" {
		t.Errorf("root children = %+v", tree.Root.Children)
	}
}

func TestEmptyTracerTree(t *testing.T) {
	tree := NewTracer("t").Tree()
	if tree.Spans != 0 || tree.Root != nil {
		t.Errorf("empty tree = %+v", tree)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer("t")
	root := tr.Root("root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := root.StartChild("worker")
			s.SetAttrInt("i", i)
			s.End()
		}(i)
	}
	wg.Wait()
	root.End()
	tree := tr.Tree()
	if tree.Spans != 17 || len(tree.Root.Children) != 16 {
		t.Errorf("spans=%d children=%d", tree.Spans, len(tree.Root.Children))
	}
	if tree.Orphans != 0 {
		t.Errorf("orphans = %d", tree.Orphans)
	}
}

func TestTreeJSONRoundTrip(t *testing.T) {
	tr := NewTracer("abc")
	root := tr.Root("server.predict")
	root.StartChild("compile").End()
	root.End()
	data, err := json.Marshal(tr.Tree())
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.TraceID != "abc" || back.Root.Name != "server.predict" {
		t.Errorf("round trip = %+v", back)
	}
	if !strings.Contains(string(data), `"start_us"`) {
		t.Errorf("JSON missing snake_case keys: %s", data)
	}
}

func TestWalk(t *testing.T) {
	tr := NewTracer("t")
	root := tr.Root("a")
	b := root.StartChild("b")
	b.StartChild("c").End()
	b.End()
	root.End()
	var names []string
	var depths []int
	tr.Tree().Root.Walk(func(d int, n *Node) {
		names = append(names, n.Name)
		depths = append(depths, d)
	})
	if strings.Join(names, ",") != "a,b,c" {
		t.Errorf("walk order = %v", names)
	}
	if depths[0] != 0 || depths[1] != 1 || depths[2] != 2 {
		t.Errorf("depths = %v", depths)
	}
}

func TestIDs(t *testing.T) {
	tid := NewTraceID()
	sid := NewSpanID()
	if len(tid) != 32 {
		t.Errorf("trace ID %q: len %d, want 32", tid, len(tid))
	}
	if len(sid) != 16 {
		t.Errorf("span ID %q: len %d, want 16", sid, len(sid))
	}
	if NewTraceID() == tid {
		t.Error("two trace IDs collided")
	}
}

func TestParseTraceparent(t *testing.T) {
	id := NewTraceID()
	h := FormatTraceparent(id)
	got, err := ParseTraceparent(h)
	if err != nil || got != id {
		t.Errorf("ParseTraceparent(%q) = %q, %v; want %q", h, got, err, id)
	}
	for _, bad := range []string{
		"",
		"00-short",
		"00-0000000000000000000000000000000000-0000000000000000-01",             // wrong separators
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("a", 16) + "-01", // all-zero ID
		"00-" + strings.Repeat("g", 32) + "-" + strings.Repeat("a", 16) + "-01", // non-hex
	} {
		if _, err := ParseTraceparent(bad); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted malformed header", bad)
		}
	}
}

func TestRing(t *testing.T) {
	r := NewRing(3)
	if got := r.Snapshot(); len(got) != 0 {
		t.Errorf("fresh ring snapshot = %v", got)
	}
	for i := 1; i <= 5; i++ {
		r.Add(TraceRecord{TraceID: string(rune('a' + i - 1)), Status: 200})
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(snap))
	}
	// Newest first: e, d, c survive.
	if snap[0].TraceID != "e" || snap[1].TraceID != "d" || snap[2].TraceID != "c" {
		t.Errorf("snapshot order = %v %v %v", snap[0].TraceID, snap[1].TraceID, snap[2].TraceID)
	}
	// Clamping.
	r0 := NewRing(0)
	r0.Add(TraceRecord{TraceID: "x"})
	r0.Add(TraceRecord{TraceID: "y"})
	if snap := r0.Snapshot(); len(snap) != 1 || snap[0].TraceID != "y" {
		t.Errorf("clamped ring = %v", snap)
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Add(TraceRecord{TraceID: "x"})
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"WARN": slog.LevelWarn, "warning": slog.LevelWarn, "Error": slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted junk")
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelInfo)
	lg.Debug("hidden")
	lg.Info("visible", "request_id", "r1")
	if strings.Contains(buf.String(), "hidden") {
		t.Error("debug line emitted at info level")
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line not JSON: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "visible" || rec["request_id"] != "r1" {
		t.Errorf("log record = %v", rec)
	}
}
