package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the metrics the runs print in step
// with the names and units BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		printed  []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEndMetrics}, {"per_layer", bench.PerLayer, perLayerMetrics()}} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the runs print %d", c.kind, len(c.declared), len(c.printed))
			continue
		}
		for i, d := range c.declared {
			if p := c.printed[i]; d.Name != p.name || d.Unit != p.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), printed %s (%s)", c.kind, i, d.Name, d.Unit, p.name, p.unit)
			}
		}
	}
	listed := map[string]bool{"serve-mixed": true} // run by hand only
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
		listed[w.Name] = true
	}
	for name := range workloads {
		if !listed[name] {
			t.Errorf("workload %s is neither in BENCHMARK.json nor run by hand", name)
		}
	}
}

// TestReferenceCoversWorkloads checks that every workload has an untraced
// reference median for the traced run to print beside its own.
func TestReferenceCoversWorkloads(t *testing.T) {
	for name := range workloads {
		if err := printOverhead(io.Discard, name, 1); err != nil {
			t.Error(err)
		}
	}
}
