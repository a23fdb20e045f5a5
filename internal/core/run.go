package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tick advances the engine's virtual clock to now (step mode): every
// periodic module whose deadline has passed runs, and input-triggered
// modules run — in topological order — until no more triggers are pending.
// With WithParallelism(1) (the default) Tick is strictly single-threaded;
// with a wider wavefront, due instances at the same topological depth run
// concurrently, with output byte-identical to the serial schedule. Tick is
// deterministic either way; it must not be mixed with Run.
func (e *Engine) Tick(now time.Time) error {
	if e.realtim {
		return fmt.Errorf("core: Tick called on an engine running in real-time mode")
	}
	e.started = true
	e.tickNum.Add(1)
	var start time.Time
	if e.mTick != nil {
		start = time.Now()
	}
	if e.parallelism > 1 {
		e.tickPeriodicParallel(now)
	} else {
		for _, inst := range e.instances {
			e.firePeriodic(inst, now)
		}
	}
	e.drainTriggers(now)
	if e.mTick != nil {
		e.mTick.Observe(time.Since(start).Seconds())
	}
	return nil
}

// firePeriodic runs one instance's due periodic fires (including catch-up
// after a clock jump) and advances its deadline.
func (e *Engine) firePeriodic(inst *instanceState, now time.Time) {
	if inst.period <= 0 {
		return
	}
	if inst.nextDue.IsZero() {
		inst.nextDue = now // first tick fires immediately
	}
	for !now.Before(inst.nextDue) {
		e.runModule(inst, RunPeriodic, now)
		inst.nextDue = inst.nextDue.Add(inst.period)
	}
}

// tickPeriodicParallel fires due periodic instances wavefront by wavefront:
// all due instances at one topological depth run concurrently (each
// instance's own catch-up fires stay serial within its goroutine), and
// depths run in ascending order, mirroring the serial topological sweep.
func (e *Engine) tickPeriodicParallel(now time.Time) {
	byDepth := make(map[int][]*instanceState)
	maxDepth := 0
	for _, inst := range e.instances {
		if inst.period <= 0 {
			continue
		}
		byDepth[inst.depth] = append(byDepth[inst.depth], inst)
		if inst.depth > maxDepth {
			maxDepth = inst.depth
		}
	}
	for d := 0; d <= maxDepth; d++ {
		front := byDepth[d]
		if len(front) == 0 {
			continue
		}
		e.waveNum.Add(1)
		e.timedFront(front, func(inst *instanceState) { e.firePeriodic(inst, now) })
	}
}

// timedFront is runFront with the per-wavefront duration histogram around
// it; the nil check keeps uninstrumented engines clear of the clock reads.
func (e *Engine) timedFront(front []*instanceState, fn func(*instanceState)) {
	if e.mWave == nil {
		e.runFront(front, fn)
		return
	}
	start := time.Now()
	e.runFront(front, fn)
	e.mWave.Observe(time.Since(start).Seconds())
}

// runFront executes fn for every instance of one wavefront on up to
// e.parallelism goroutines and waits for all of them.
func (e *Engine) runFront(front []*instanceState, fn func(*instanceState)) {
	if len(front) == 1 || e.parallelism <= 1 {
		for _, inst := range front {
			fn(inst)
		}
		return
	}
	workers := e.parallelism
	if workers > len(front) {
		workers = len(front)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(front) {
					return
				}
				fn(front[i])
			}
		}()
	}
	wg.Wait()
}

// Flush runs every module once with RunFlush (in topological order) and
// drains resulting triggers, letting windowed analyses emit their final
// results. Call after the last Tick of an offline run.
func (e *Engine) Flush(now time.Time) error {
	if e.realtim {
		return fmt.Errorf("core: Flush called on an engine running in real-time mode")
	}
	for _, inst := range e.instances {
		e.runModule(inst, RunFlush, now)
		e.drainTriggers(now)
	}
	return nil
}

// drainTriggers runs dirty instances until quiescence. Serially it always
// picks the lowest topological order; in wavefront mode it extracts every
// dirty instance at the minimum depth and runs them concurrently. The two
// schedules deliver identical per-port sample sequences: an instance runs
// only after all its dirty ancestors (which have strictly smaller order and
// depth) have run, so trigger batching — and therefore module run counts,
// queue drops, and sink output — cannot differ.
func (e *Engine) drainTriggers(now time.Time) {
	serial := e.parallelism <= 1
	for {
		e.lock()
		if len(e.dirty) == 0 {
			e.unlock()
			return
		}
		var front []*instanceState
		if serial {
			e.front1[0] = e.popDirty()
			front = e.front1[:]
		} else {
			// The wavefront is every instance at the minimum depth, not the
			// lowest order alone, so this mode keeps a plain list (see
			// pushDirty) and sorts and filters it here.
			sort.Slice(e.dirty, func(i, j int) bool { return e.dirty[i].order < e.dirty[j].order })
			// Instances at the minimum depth form the wavefront: no edge
			// connects two of them, so they are safe to run concurrently,
			// and nothing shallower can be triggered by running them.
			minDepth := e.dirty[0].depth
			for _, inst := range e.dirty[1:] {
				if inst.depth < minDepth {
					minDepth = inst.depth
				}
			}
			rest := e.dirty[:0]
			for _, inst := range e.dirty {
				if inst.depth == minDepth {
					front = append(front, inst)
				} else {
					rest = append(rest, inst)
				}
			}
			e.dirty = rest
		}
		for _, inst := range front {
			inst.queued = false
		}
		e.mQueueDepth.Set(float64(len(e.dirty)))
		e.unlock()

		e.waveNum.Add(1)
		e.timedFront(front, func(inst *instanceState) { e.runModule(inst, RunInputs, now) })
	}
}

// pushDirty adds inst to the dirty list: for the serial scheduler a binary
// min-heap on topological order, so its next instance is always at the root;
// in wavefront mode, which sorts the list itself, a plain append. The caller
// holds the notification lock.
func (e *Engine) pushDirty(inst *instanceState) {
	h := append(e.dirty, inst)
	if e.parallelism > 1 {
		e.dirty = h
		return
	}
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent].order <= h[i].order {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	e.dirty = h
}

// popDirty removes and returns the dirty instance with the lowest
// topological order. The caller holds the notification lock and has checked
// that the list is not empty.
func (e *Engine) popDirty() *instanceState {
	h := e.dirty
	top := h[0]
	last := len(h) - 1
	h[0], h[last] = h[last], nil
	h = h[:last]
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < last; c++ {
			if h[c].order < h[least].order {
				least = c
			}
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	e.dirty = h
	return top
}

// Run executes the engine in real-time mode until ctx is cancelled: one
// worker goroutine per module instance, fed by wall-clock tickers (periodic
// modules) and input notifications (§3.1: the fpt-core scheduler
// "dispatches events to the various modules"). On cancellation each module
// receives a final RunFlush, and Run returns after all workers exit.
func (e *Engine) Run(ctx context.Context) error {
	if e.started {
		return fmt.Errorf("core: Run called on an engine already driven by Tick")
	}
	e.realtim = true
	defer func() { e.realtim = false }()

	var wg sync.WaitGroup
	for _, inst := range e.instances {
		inst.mailbox = make(chan RunReason, 1)
	}

	for _, inst := range e.instances {
		wg.Add(1)
		go func(inst *instanceState) {
			defer wg.Done()
			e.worker(ctx, inst)
		}(inst)
		if inst.period > 0 {
			wg.Add(1)
			go func(inst *instanceState) {
				defer wg.Done()
				ticker := time.NewTicker(inst.period)
				defer ticker.Stop()
				for {
					select {
					case <-ctx.Done():
						return
					case <-ticker.C:
						select {
						case inst.mailbox <- RunPeriodic:
						default: // previous run still pending; coalesce
						}
					}
				}
			}(inst)
		}
	}
	wg.Wait()
	return ctx.Err()
}

// worker is the per-instance run loop in real-time mode.
func (e *Engine) worker(ctx context.Context, inst *instanceState) {
	for {
		select {
		case <-ctx.Done():
			e.runModule(inst, RunFlush, time.Now())
			return
		case reason := <-inst.mailbox:
			e.runModule(inst, reason, time.Now())
		}
	}
}
