package core

import (
	"sync"
	"sync/atomic"
)

// FanoutCap bounds per-node call concurrency: the collect phase's width,
// and the default width of a multi-node collector's sweep (min(16, nodes)
// workers). The cap keeps a large cluster from opening hundreds of
// simultaneous RPCs from one control node while still collapsing per-tick
// latency from O(nodes) round trips to O(nodes/16).
const FanoutCap = 16

// FanOut invokes fn(i) for every i in [0, n), running up to width calls
// concurrently, and returns once all have completed. Workers pull indexes
// from a shared counter, so a slow call delays only its own slot, not the
// whole sweep. Callers store results by index, which keeps downstream
// processing deterministic (merged by position, not arrival order). With
// n <= 0 it starts no goroutine; with width <= 1 or n == 1 it runs fn on
// the calling goroutine.
func FanOut(n, width int, fn func(int)) {
	if n <= 0 {
		return
	}
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
