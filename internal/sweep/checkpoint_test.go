package sweep

// Crash-atomicity and skip-accounting tests for the checkpoint
// machinery: a crash between the temp-file write and the rename, a torn
// (truncated) checkpoint file, and results that do not survive a JSON
// round-trip must all degrade to re-evaluation — never to a wrong or
// refused resume.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// runCheckpointed sweeps n points recording which indices evaluated.
func runCheckpointed(t *testing.T, e *Engine, n int, ck *Checkpoint) (evaluated []int32, res []float64) {
	t.Helper()
	ran := make([]int32, n)
	res, err := MapCheckpoint(e, n, ck, func(i int) (float64, error) {
		atomic.AddInt32(&ran[i], 1)
		return float64(i) * 1.5, nil
	})
	if err != nil {
		t.Fatalf("MapCheckpoint: %v", err)
	}
	return ran, res
}

func TestCheckpointStrayTempFileIgnored(t *testing.T) {
	// A crash between the temp write and the rename leaves a .ckpt-*
	// temp file next to the (old or absent) checkpoint. The next run
	// must ignore it and still produce correct results.
	e := New(Options{Workers: 2})
	dir := t.TempDir()
	ck := &Checkpoint{Path: filepath.Join(dir, "sweep.ckpt"), Key: "k"}
	if err := os.WriteFile(filepath.Join(dir, ".ckpt-12345"), []byte(`{"key":"k","n":3,`), 0o644); err != nil {
		t.Fatal(err)
	}
	ran, res := runCheckpointed(t, e, 3, ck)
	for i, n := range ran {
		if n != 1 {
			t.Fatalf("point %d evaluated %d times", i, n)
		}
	}
	if res[2] != 3.0 {
		t.Fatalf("res = %v", res)
	}
}

func TestCheckpointTornFileDegradesToReevaluation(t *testing.T) {
	// Write a valid checkpoint for 2 of 4 points, then truncate it
	// mid-JSON as a crash during a non-atomic write would. Resume must
	// start fresh (re-evaluating all points) rather than erroring or
	// resuming wrong.
	e := New(Options{Workers: 2})
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck := &Checkpoint{Path: path, Key: "k", FlushEvery: 10}
	boom := fmt.Errorf("stop after two")
	_, err := MapCheckpoint(e, 4, ck, func(i int) (float64, error) {
		if i >= 2 {
			return 0, boom
		}
		return float64(i), nil
	})
	if err == nil {
		t.Fatal("expected point failure")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("checkpoint not flushed on error path: %v", err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	ran, res := runCheckpointed(t, e, 4, ck)
	for i, n := range ran {
		if n != 1 {
			t.Fatalf("point %d evaluated %d times after torn checkpoint", i, n)
		}
	}
	if res[3] != 4.5 {
		t.Fatalf("res = %v", res)
	}
	// The completed run removed the file.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("checkpoint survived success: %v", err)
	}
}

func TestCheckpointUnreadableEntrySkippedAndCounted(t *testing.T) {
	// A stored result that no longer unmarshals (e.g. the result type
	// changed shape between releases) is dropped: the point re-evaluates
	// and the skip is counted, not silent.
	e := New(Options{Workers: 2})
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck := &Checkpoint{Path: path, Key: "k"}
	file := ckptFile{Key: "k", N: 3, Done: map[string]json.RawMessage{
		"0": json.RawMessage(`1.5`),
		"1": json.RawMessage(`"not a float"`),
	}}
	raw, _ := json.Marshal(file)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var warns atomic.Int32
	ck.Warnf = func(format string, args ...any) {
		warns.Add(1)
		if !strings.Contains(fmt.Sprintf(format, args...), "re-evaluated on resume") {
			t.Errorf("warn message lacks re-evaluation hint")
		}
	}
	before := e.Stats().CheckpointSkips.Load()
	ran, res := runCheckpointed(t, e, 3, ck)
	if ran[0] != 0 {
		t.Fatal("valid stored point was re-evaluated")
	}
	if ran[1] != 1 || ran[2] != 1 {
		t.Fatalf("evaluation mask: %v", ran)
	}
	if res[1] != 1.5 {
		t.Fatalf("re-evaluated point result %v", res[1])
	}
	if got := e.Stats().CheckpointSkips.Load() - before; got != 1 {
		t.Fatalf("CheckpointSkips delta = %d, want 1", got)
	}
	if warns.Load() != 1 {
		t.Fatalf("warned %d times, want once per run", warns.Load())
	}
}

func TestCheckpointUnmarshalableResultWarnsOnceAndCounts(t *testing.T) {
	// Results that cannot marshal (NaN/Inf through a float — or here, a
	// channel field) are excluded from the checkpoint: counted once per
	// point, logged once per run, sweep output unaffected.
	type bad struct {
		V  int
		Ch chan int `json:"ch,omitempty"`
	}
	e := New(Options{Workers: 2})
	ck := &Checkpoint{Path: filepath.Join(t.TempDir(), "sweep.ckpt"), Key: "k"}
	var warns atomic.Int32
	ck.Warnf = func(format string, args ...any) { warns.Add(1) }
	before := e.Stats().CheckpointSkips.Load()
	res, err := MapCheckpoint(e, 3, ck, func(i int) (bad, error) {
		return bad{V: i, Ch: make(chan int)}, nil
	})
	if err != nil {
		t.Fatalf("MapCheckpoint: %v", err)
	}
	if len(res) != 3 || res[2].V != 2 {
		t.Fatalf("res = %v", res)
	}
	if got := e.Stats().CheckpointSkips.Load() - before; got != 3 {
		t.Fatalf("CheckpointSkips delta = %d, want 3", got)
	}
	if warns.Load() != 1 {
		t.Fatalf("warned %d times, want exactly once per run", warns.Load())
	}
}

func TestCheckpointOnFlushReportsDurableCounts(t *testing.T) {
	e := New(Options{Workers: 1})
	var flushes []int
	ck := &Checkpoint{
		Path:    filepath.Join(t.TempDir(), "sweep.ckpt"),
		Key:     "k",
		OnFlush: func(done int) { flushes = append(flushes, done) },
	}
	if _, err := MapCheckpoint(e, 3, ck, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	if len(flushes) != 3 {
		t.Fatalf("OnFlush fired %d times, want 3 (FlushEvery default 1): %v", len(flushes), flushes)
	}
	// Counts are monotonically non-decreasing and end at n.
	last := 0
	for _, n := range flushes {
		if n < last {
			t.Fatalf("flush counts regressed: %v", flushes)
		}
		last = n
	}
	if last != 3 {
		t.Fatalf("final durable count = %d, want 3", last)
	}
}

func TestCheckpointFlushEveryBatches(t *testing.T) {
	e := New(Options{Workers: 1})
	var flushes atomic.Int32
	ck := &Checkpoint{
		Path:       filepath.Join(t.TempDir(), "sweep.ckpt"),
		Key:        "k",
		FlushEvery: 4,
		OnFlush:    func(int) { flushes.Add(1) },
	}
	if _, err := MapCheckpoint(e, 8, ck, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	if got := flushes.Load(); got != 2 {
		t.Fatalf("flushes = %d, want 2 (8 points / FlushEvery 4)", got)
	}
}

// TestCheckpointConcurrentFlushesInDecisionOrder: with several workers
// deciding flushes at once, flushes must still be written and reported
// in the order they were decided, and each report must equal the number
// of points in the file that flush wrote. FlushEvery 2 over 40 points
// therefore reports exactly 2, 4, ..., 40.
func TestCheckpointConcurrentFlushesInDecisionOrder(t *testing.T) {
	const points, every = 40, 2
	trials := 200
	if testing.Short() {
		trials = 20
	}
	e := New(Options{Workers: 4})
	dir := t.TempDir()
	for trial := 0; trial < trials; trial++ {
		path := filepath.Join(dir, fmt.Sprintf("sweep-%d.ckpt", trial))
		var mu sync.Mutex
		var reports []int
		var onFile []string
		ck := &Checkpoint{Path: path, Key: "k", FlushEvery: every, OnFlush: func(done int) {
			var f ckptFile
			raw, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(raw, &f)
			}
			mu.Lock()
			defer mu.Unlock()
			reports = append(reports, done)
			if err != nil || len(f.Done) != done {
				onFile = append(onFile, fmt.Sprintf("reported %d, file holds %d (%v)", done, len(f.Done), err))
			}
		}}
		if _, err := MapCheckpoint(e, points, ck, func(i int) (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		if len(onFile) > 0 {
			t.Fatalf("trial %d: %s", trial, strings.Join(onFile, "; "))
		}
		want := make([]int, 0, points/every)
		for n := every; n <= points; n += every {
			want = append(want, n)
		}
		if fmt.Sprint(reports) != fmt.Sprint(want) {
			t.Fatalf("trial %d: flush reports %v, want %v", trial, reports, want)
		}
	}
}
