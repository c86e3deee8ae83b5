package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"slices"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkFile(t)
	// Every declared workload runs; variational_bind runs but is not
	// declared (see README.md).
	for _, w := range b.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not one the benchmark runs %v", w.Name, workloadNames)
		}
	}
	var e2e []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, c := range []struct {
		kind            string
		declared, coded []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.declared) != len(c.coded) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", c.kind, len(c.declared), len(c.coded))
			continue
		}
		for i, d := range c.declared {
			if d != c.coded[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, benchmark %+v", c.kind, i, d, c.coded[i])
			}
			if !metricName.MatchString(d.Name) {
				t.Errorf("%s: metric name %q does not match %s", c.kind, d.Name, metricName)
			}
		}
	}
}

// TestEveryDeclaredMetricPrints runs every workload for one second in
// both modes and requires exactly the declared metrics, with their
// units, and a correct result.
func TestEveryDeclaredMetricPrints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload in both modes")
	}
	for _, w := range workloadNames {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			cfg := config{workload: w, seed: 3, seconds: 1, trace: trace, clients: 2, root: ".."}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics printed, %d declared", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s printed as %+v, declared in %s", w, trace, d.Name, m, d.Unit)
				}
			}
		}
	}
}
