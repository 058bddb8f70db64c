package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile mirrors the workload and metric lists of BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricListsMatchBenchmarkFile keeps the metric names and units the
// benchmark prints in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, declared []declaredMetric, printed []metric) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
			return
		}
		for i, m := range printed {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s[%d]: declared %s [%s], printed %s [%s]", kind, i,
					declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}

// tinyRun runs one workload at self-test scale.
func tinyRun(t *testing.T, workload string, seed int64, trace bool) *outcome {
	t.Helper()
	dir := t.TempDir()
	o, err := workloads[workload](config{seed: seed, budget: 1, trace: trace, tiny: true,
		work: dir, spans: filepath.Join(dir, "spans.jsonl"), log: io.Discard})
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	for _, p := range o.problems {
		t.Errorf("%s seed %d: check failed: %s", workload, seed, p)
	}
	if o.attempted == 0 || o.failed != 0 {
		t.Errorf("%s seed %d: %d of %d operations failed", workload, seed, o.failed, o.attempted)
	}
	if trace {
		if _, err := os.Stat(filepath.Join(dir, "spans.jsonl")); err != nil {
			t.Errorf("%s: traced run wrote no spans: %v", workload, err)
		}
	}
	return o
}

// TestWorkloadsTiny runs every workload at a tiny scale: the result line
// carries every metric with its unit, the correctness digest repeats for
// a repeated seed, and another seed generates other inputs.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range readBenchmarkFile(t).Workloads {
		t.Run(w.Name, func(t *testing.T) {
			a := tinyRun(t, w.Name, 1, false)
			b := tinyRun(t, w.Name, 1, false)
			c := tinyRun(t, w.Name, 2, false)
			if a.digest == "" || a.digest != b.digest {
				t.Errorf("seed 1 digests differ: %q vs %q", a.digest, b.digest)
			}
			if a.inputs == c.inputs {
				t.Errorf("seeds 1 and 2 generated the same inputs (%s)", a.inputs)
			}
			for _, traced := range []bool{false, true} {
				o := a
				if traced {
					o = tinyRun(t, w.Name, 1, true)
				}
				line, err := resultLine(o, traced, peakRSSMB())
				if err != nil {
					t.Fatal(err)
				}
				var res struct {
					Correct bool `json:"correct"`
					Metrics map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal(line, &res); err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if !res.Correct || len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: correct=%v with %d metrics, want %d", traced, res.Correct, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Value == nil || got.Unit != m.unit {
						t.Errorf("traced=%v: metric %s missing or without unit %s", traced, m.name, m.unit)
					}
				}
			}
		})
	}
}
