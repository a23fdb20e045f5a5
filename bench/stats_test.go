package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(200)
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.50, 100}, {0.95, 190}, {0.99, 198}, {0.005, 1}, {1, 200}} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
}

func TestSamplesBeyondRule(t *testing.T) {
	// p95 of 200 samples sits at rank 190: exactly ten samples beyond it.
	if got := samplesBeyond(200, 0.95); got != 10 {
		t.Errorf("samplesBeyond(200, .95) = %d, want 10", got)
	}
	if !supported(200, 0.95) || supported(199, 0.95) {
		t.Errorf("p95 must be supported from 200 samples on: 200 -> %v, 199 -> %v",
			supported(200, 0.95), supported(199, 0.95))
	}
	if supported(200, 0.99) || !supported(1100, 0.99) {
		t.Errorf("p99 needs about 1000 samples")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

// The spread must be what Python's statistics.quantiles(values, n=4) gives:
// for 1..10 the quartiles are 2.75, 5.5 and 8.25.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	sp, ok := quartileSpread(seq(10))
	if !ok || math.Abs(sp-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %v, %v", sp, ok)
	}
	// quantiles([3, 1, 4, 1, 5, 9, 2, 6]) = [1.25, 3.5, 5.75]
	sp, ok = quartileSpread([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if !ok || math.Abs(sp-(5.75-1.25)/3.5) > 1e-12 {
		t.Errorf("spread = %v, %v", sp, ok)
	}
	if _, ok := quartileSpread([]float64{1}); ok {
		t.Errorf("one value has no spread")
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "tick_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "node_ticks_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"within bound", lower, []float64{10}, []float64{10.9}, "ok"},
		{"slower", lower, []float64{10}, []float64{11.5}, "worse"},
		{"faster", lower, []float64{10}, []float64{5}, "ok"},
		{"throughput down", higher, []float64{100}, []float64{85}, "worse"},
		{"throughput up", higher, []float64{100}, []float64{150}, "ok"},
		{"noisy side", lower, []float64{8, 9, 10, 11, 12, 13}, []float64{20, 20, 20, 20, 20, 20}, "unresolved"},
		{"zero base", lower, []float64{0}, []float64{1}, "unresolved"},
	} {
		if _, got := judge(tc.spec, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, got, tc.want)
		}
	}
}
