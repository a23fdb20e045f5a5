package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json is what the driver and later changes read; the names,
// units and workloads in it must be the ones this package reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
	}
	check := func(kind string, specs []metricSpec, names [][2]string, bounded bool) {
		if len(specs) != len(names) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(specs), len(names))
			return
		}
		for i, nu := range names {
			s := specs[i]
			if s.Name != nu[0] || s.Unit != nu[1] {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], code has %s [%s]", kind, i, s.Name, s.Unit, nu[0], nu[1])
			}
			if s.Better != "lower" && s.Better != "higher" {
				t.Errorf("%s: better = %q", s.Name, s.Better)
			}
			if bounded && (s.Bound <= 0 || s.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
			}
		}
	}
	check("end-to-end", file.EndToEnd, endToEndNames, true)
	check("per-layer", file.PerLayer, perLayerNames, false)
}
