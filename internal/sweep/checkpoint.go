package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// Checkpoint configures durable progress for a long sweep: each
// completed point's result is marshaled to a JSON file so a killed run
// (process crash, SIGKILL, exhausted fault budget) restarts from the
// completed points instead of from scratch. Point evaluation in this
// module is deterministic, so a resumed sweep yields byte-identical
// results to an uninterrupted one.
type Checkpoint struct {
	// Path is the checkpoint file. Written atomically (temp file +
	// rename) so a crash mid-write never corrupts an existing file.
	Path string
	// Key identifies the sweep (artifact name, configuration
	// fingerprint). A file whose key or point count mismatches is
	// discarded, never partially reused.
	Key string
	// FlushEvery bounds completions between writes (<= 0 = 1, i.e.
	// flush after every completed point).
	FlushEvery int
	// OnFlush, when set, observes every durable write of the checkpoint
	// file with the number of completed points on file. Calls are
	// serialized and arrive in the order the flushes were decided, so
	// the counts never go backwards. Long-running callers (the async
	// jobs subsystem) journal these as checkpointed(n) state
	// transitions.
	OnFlush func(done int)
	// Warnf receives checkpoint diagnostics (results skipped because
	// they do not round-trip through JSON). Nil routes them to
	// slog.Default. Skips are logged once per run — the count is on the
	// engine's CheckpointSkips counter.
	Warnf func(format string, args ...any)
}

// warnf routes a checkpoint diagnostic to the configured sink.
func (ck *Checkpoint) warnf(format string, args ...any) {
	if ck.Warnf != nil {
		ck.Warnf(format, args...)
		return
	}
	slog.Default().Warn(fmt.Sprintf(format, args...))
}

// ckptFile is the on-disk format: results are kept as raw JSON so the
// loader never needs to re-marshal values it did not produce.
type ckptFile struct {
	Key  string                     `json:"key"`
	N    int                        `json:"n"`
	Done map[string]json.RawMessage `json:"done"`
}

// ckptState tracks completion during one checkpointed Map run.
type ckptState struct {
	ck      *Checkpoint
	n       int
	stats   *Stats
	mu      sync.Mutex
	done    map[string]json.RawMessage
	pending int // completions since the last flush

	// writeMu serializes checkpoint writes and OnFlush reports. A flush
	// takes it before releasing mu, so flushes are written and reported
	// in the order they were decided and the file never goes backwards.
	writeMu sync.Mutex

	warnOnce sync.Once // one skip diagnostic per run; the counter has the rest
}

// skip records one result excluded from the checkpoint (it does not
// survive a JSON round-trip): counted on the engine stats so resumed
// runs that re-evaluate points are explainable, logged once per run.
func (st *ckptState) skip(i int, cause string, err error) {
	if st.stats != nil {
		st.stats.CheckpointSkips.Add(1)
	}
	st.warnOnce.Do(func() {
		st.ck.warnf("sweep: checkpoint %s: point %d %s (%v); such points will be re-evaluated on resume (counted on sweep_checkpoint_skipped_total)",
			st.ck.Path, i, cause, err)
	})
}

// loadCheckpointInto reads ck.Path and fills results for every point
// whose result is on file, returning the resume state and a skip mask.
// A missing, unreadable, corrupt or mismatched file yields an empty
// state (fresh start) — resuming must never be less robust than
// rerunning. Stored entries that no longer unmarshal are dropped (the
// point is re-evaluated), counted and logged like record-side skips.
func loadCheckpointInto[T any](ck *Checkpoint, n int, stats *Stats, results []T) (*ckptState, []bool) {
	st := &ckptState{ck: ck, n: n, stats: stats, done: make(map[string]json.RawMessage)}
	skip := make([]bool, n)
	raw, err := os.ReadFile(ck.Path)
	if err != nil {
		return st, skip
	}
	var f ckptFile
	if err := json.Unmarshal(raw, &f); err != nil || f.Key != ck.Key || f.N != n {
		return st, skip
	}
	for key, msg := range f.Done {
		i, err := strconv.Atoi(key)
		if err != nil || i < 0 || i >= n {
			continue
		}
		var v T
		if err := json.Unmarshal(msg, &v); err != nil {
			st.skip(i, "has an unreadable stored result", err)
			continue
		}
		results[i] = v
		st.done[key] = msg
		skip[i] = true
	}
	return st, skip
}

// record stores one completed point and flushes per policy.
func (st *ckptState) record(i int, v any) {
	msg, err := json.Marshal(v)
	if err != nil {
		// The result cannot be checkpointed; the sweep still returns it,
		// but a resumed run will re-evaluate this point.
		st.skip(i, "does not marshal", err)
		return
	}
	every := st.ck.FlushEvery
	if every <= 0 {
		every = 1
	}
	st.mu.Lock()
	st.done[strconv.Itoa(i)] = msg
	st.pending++
	if st.pending < every {
		st.mu.Unlock()
		return
	}
	st.pending = 0
	st.flushLocked()
}

// flush writes the checkpoint file atomically (temp + rename) and
// notifies OnFlush with the number of points now durable.
func (st *ckptState) flush() error {
	st.mu.Lock()
	return st.flushLocked()
}

// flushLocked is flush for a caller holding st.mu, which it releases.
// The file contents and the reported count are both taken at the
// decision, under st.mu.
func (st *ckptState) flushLocked() error {
	raw, err := json.Marshal(ckptFile{Key: st.ck.Key, N: st.n, Done: st.done})
	count := len(st.done)
	st.writeMu.Lock()
	st.mu.Unlock()
	defer st.writeMu.Unlock()
	if err != nil {
		return err
	}
	dir := filepath.Dir(st.ck.Path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), st.ck.Path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if st.ck.OnFlush != nil {
		st.ck.OnFlush(count)
	}
	return nil
}

// MapCheckpoint is MapCheckpointCtx without cancellation.
func MapCheckpoint[T any](e *Engine, n int, ck *Checkpoint, fn func(i int) (T, error)) ([]T, error) {
	return MapCheckpointCtx(context.Background(), e, n, ck, fn)
}

// MapCheckpointCtx is MapCtx with durable progress: points already
// recorded in ck's file are returned without re-evaluating fn, each
// newly completed point is recorded, and the file is flushed on every
// exit path (success, point failure, cancellation). On full success
// the file is removed — a complete sweep needs no resume state. A nil
// ck degrades to plain MapCtx.
//
// T must round-trip through encoding/json for resumed results to be
// identical to freshly computed ones (true for the numeric point types
// this module sweeps: Go prints floats in their shortest form that
// parses back exactly). Results that do not round-trip are skipped from
// the checkpoint — counted on Stats.CheckpointSkips and logged once per
// run — so a resumed sweep re-evaluates them instead of resuming wrong.
func MapCheckpointCtx[T any](ctx context.Context, e *Engine, n int, ck *Checkpoint, fn func(i int) (T, error)) ([]T, error) {
	if ck == nil {
		return MapCtx(ctx, e, n, fn)
	}
	if ck.Path == "" {
		return nil, fmt.Errorf("sweep: checkpoint has no path")
	}
	prefill := make([]T, n)
	st, skip := loadCheckpointInto(ck, n, e.stats, prefill)
	res, err := MapCtx(ctx, e, n, func(i int) (T, error) {
		if skip[i] {
			return prefill[i], nil
		}
		v, ferr := fn(i)
		if ferr == nil {
			st.record(i, v)
		}
		return v, ferr
	})
	if err != nil {
		// Keep resume state for the completed points.
		if ferr := st.flush(); ferr != nil {
			return res, fmt.Errorf("%w (checkpoint flush also failed: %v)", err, ferr)
		}
		return res, err
	}
	os.Remove(ck.Path)
	return res, nil
}
