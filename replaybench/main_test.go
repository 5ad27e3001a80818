package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"rootreplay/internal/artc"
	"rootreplay/internal/core"
	"rootreplay/internal/shard"
	"rootreplay/internal/trace"
)

// tiny is each workload's self-test input size, a small fraction of the
// benchmark's stated size.
var tiny = map[string]float64{
	"fsync-pipeline":     0.02,
	"components-sharded": 0.01,
	"magritte-artcd":     0.05,
}

func tinyConfig(t *testing.T, workload string, traced bool) config {
	return config{
		workload: workload, seed: 1, seconds: 0.2, trace: traced,
		out: t.TempDir(), size: tiny[workload], table: digestTable{},
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the program
// prints and the ones BENCHMARK.json declares identical.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.name, len(c.got), len(c.want))
		}
		for i, d := range c.want {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					c.name, i, c.got[i].Name, c.got[i].Unit, d.name, d.unit)
			}
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
}

// TestTinyRuns runs every workload, untraced and traced, at a tiny size
// and checks that each named metric is printed with its unit.
func TestTinyRuns(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(tinyConfig(t, name, traced))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", name, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", name, traced, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", name, traced, d.name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

// TestPerturbedReportFails proves a drifted report is counted as a
// failed operation: against a recorded digest on a trace pass, and
// against the in-process report on artcd jobs.
func TestPerturbedReportFails(t *testing.T) {
	cfg := tinyConfig(t, "fsync-pipeline", false)
	cfg.record = filepath.Join(t.TempDir(), "digests.json")
	if res, err := run(cfg); err != nil || !res.Correct {
		t.Fatalf("recording run: %v %+v", err, res)
	}
	data, err := os.ReadFile(cfg.record)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &cfg.table); err != nil {
		t.Fatal(err)
	}
	cfg.record = ""
	cfg.perturb = true
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("perturbed trace pass: correct=%v attempted=%d failed=%d, want every pass failed",
			res.Correct, res.Attempted, res.Failed)
	}

	cfg = tinyConfig(t, "magritte-artcd", false)
	cfg.perturb = true
	if res, err = run(cfg); err != nil {
		t.Fatal(err)
	}
	// Every job fails; the one other operation, the corpus digest check,
	// has no recorded digest to fail against here.
	if res.Correct || res.Failed != res.Attempted-1 {
		t.Errorf("perturbed artcd jobs: correct=%v attempted=%d failed=%d, want every job failed",
			res.Correct, res.Attempted, res.Failed)
	}
}

// TestGeneratorStability checks that other seeds give each workload the
// same shape at the benchmark's size: records within the stated band
// and the same component count.
func TestGeneratorStability(t *testing.T) {
	if testing.Short() {
		t.Skip("generates full-size inputs")
	}
	for name, w := range workloads {
		for _, seed := range []int64{2, 3} {
			in, err := w.gen(seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			comps, err := components(in)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkShape(name, in.records, comps); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
	}
}

// components counts the resource-closure components of every input
// trace, summed.
func components(in *inputs) (int, error) {
	n := 0
	for _, tr := range in.traces {
		parsed, err := trace.ParseStrace(bytes.NewReader(tr.raw))
		if err != nil {
			return 0, err
		}
		snap, err := decodeSnapshot(tr.snap)
		if err != nil {
			return 0, err
		}
		b, err := artc.Compile(parsed, snap, core.DefaultModes())
		if err != nil {
			return 0, err
		}
		n += shard.Partition(b.Analysis, b.Graph).Stats().Components
	}
	return n, nil
}
