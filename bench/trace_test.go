package main

import "testing"

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping counted once", []span{{Start: 110, End: 150}, {Start: 130, End: 170}}, 40},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"unsorted", []span{{Start: 160, End: 180}, {Start: 110, End: 120}}, 70},
		{"overhang clipped", []span{{Start: 50, End: 110}, {Start: 190, End: 400}}, 80},
		{"outside", []span{{Start: 10, End: 20}, {Start: 300, End: 400}}, 100},
		{"covering", []span{{Start: 0, End: 500}}, 0},
		{"touching", []span{{Start: 100, End: 150}, {Start: 150, End: 200}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSeriesLabelAndDelta(t *testing.T) {
	before := scrape{
		`asdf_module_run_seconds_sum{instance="cluster"}`: 1,
		`asdf_module_run_seconds_sum{instance="nn"}`:      2,
		`asdf_module_run_seconds_summary`:                 100,
	}
	after := scrape{
		`asdf_module_run_seconds_sum{instance="cluster"}`: 4,
		`asdf_module_run_seconds_sum{instance="nn"}`:      2.5,
		`asdf_module_run_seconds_sum{instance="new"}`:     7,
		`asdf_module_run_seconds_summary`:                 900,
	}
	got := deltaBy(before, after, "asdf_module_run_seconds_sum", "instance")
	want := map[string]float64{"cluster": 3, "nn": 0.5, "new": 7}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: got %v, want %v", k, got[k], v)
		}
	}
	if l := seriesLabel(`x{addr="127.0.0.1:9",le="0.5"}`, "addr"); l != "127.0.0.1:9" {
		t.Errorf("label = %q", l)
	}
}
