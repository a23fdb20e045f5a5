package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestFanOut pins the pool's contract: every index runs exactly once, and the
// number of calls in flight reaches min(width, n) and never exceeds it.
func TestFanOut(t *testing.T) {
	for _, tc := range []struct{ n, width, pool int }{
		{0, 4, 0},
		{1, 1, 1},
		{7, 1, 1},
		{7, 0, 1}, // a width below 1 is the serial loop
		{40, 4, 4},
		{3, 16, 3}, // width > n: no idle workers
		{64, 64, 64},
	} {
		t.Run(fmt.Sprintf("n=%d/width=%d", tc.n, tc.width), func(t *testing.T) {
			runs := make([]atomic.Int32, tc.n)
			var running, peak, arrivals atomic.Int32
			full := make(chan struct{})
			FanOut(tc.n, tc.width, func(i int) {
				runs[i].Add(1)
				now := running.Add(1)
				for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
				}
				// The first calls hold until the pool is full, so a pool
				// narrower than asked for fails instead of passing by luck.
				if int(arrivals.Add(1)) == tc.pool {
					close(full)
				}
				select {
				case <-full:
				case <-time.After(5 * time.Second):
					t.Errorf("index %d: the pool never had %d calls in flight", i, tc.pool)
				}
				runtime.Gosched()
				running.Add(-1)
			})
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("index %d ran %d times, want 1", i, got)
				}
			}
			if got := int(peak.Load()); got != tc.pool {
				t.Errorf("peak of %d calls in flight, want %d", got, tc.pool)
			}
		})
	}
}
