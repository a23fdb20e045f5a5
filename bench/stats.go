package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile for it
// to be trusted (choosing-metrics guide: "the highest percentile that has at
// least ten samples beyond it").
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule: the smallest value with at least q of the samples at or
// below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// samplesBeyond reports how many of n samples lie strictly above the
// nearest-rank q-quantile position.
func samplesBeyond(n int, q float64) int {
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return n - 1 - rank
}

// supported reports whether the q-quantile of n samples has at least
// minBeyond samples beyond it.
func supported(n int, q float64) bool { return samplesBeyond(n, q) >= minBeyond }

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the two middle values for
// even lengths), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
