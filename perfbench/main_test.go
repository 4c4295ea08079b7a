package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// benchSpec is the part of ../BENCHMARK.json the smoke test checks
// the output against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json lists no workloads or metrics: %+v", s)
	}
	return s
}

// tiny is a run of workload at the smallest input size.
func tiny(t *testing.T, workload string, traced bool) config {
	return config{
		workload: workload,
		seed:     7,
		seconds:  200 * time.Millisecond,
		warmUp:   50 * time.Millisecond,
		trace:    traced,
		spansOut: t.TempDir() + "/spans.jsonl",
		setups:   2,
		size:     map[string]int{"predict-cold": 12, "predict-hot": 2, "table2-batch": 2}[workload],
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each metric BENCHMARK.json names is reported with its
// unit, and nothing else.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			name := w.Name + "/untraced"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := runBench(context.Background(), tiny(t, w.Name, traced), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// TestCorruptReferenceFails proves the correctness checks bite: with a
// perturbed reference value every workload reports failed ops.
func TestCorruptReferenceFails(t *testing.T) {
	for _, w := range []string{"predict-cold", "predict-hot", "table2-batch"} {
		t.Run(w, func(t *testing.T) {
			cfg := tiny(t, w, false)
			cfg.corruptRef = true
			res, err := runBench(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("corrupted reference passed: correct=%t failed=%d", res.Correct, res.Failed)
			}
		})
	}
}

// TestCommandLine checks the command-line contract: the last line of
// standard output is the JSON result with exactly its four keys, and a
// bad workload exits non-zero without printing one.
func TestCommandLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "predict-hot", "--seed", "3", "--seconds", "0.2", "--trace", "0"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("result lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("result has %d keys, want 4", len(last))
	}

	out.Reset()
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, io.Discard); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}
