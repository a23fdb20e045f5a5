package core

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Tick advances the engine's virtual clock to now (step mode): every
// periodic module whose deadline has passed runs, and input-triggered
// modules run — in topological order — until no more triggers are pending.
// The Runs are the paper's serial multiplexer: one at a time, in a
// deterministic order. Before them, the collect phase fetches for every due
// instance that registered a collect function, concurrently. Tick must not
// be mixed with Run.
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
	e.collectPhase(now)
	for _, inst := range e.instances {
		e.firePeriodic(inst, now)
	}
	e.drainTriggers(now)
	if e.mTick != nil {
		e.mTick.Observe(time.Since(start).Seconds())
	}
	return nil
}

// collectPhase calls the collect function of every joined instance due to
// fire at now, at most FanoutCap at a time, and returns once all have
// returned: no worker outlives the phase, and the serial Runs that follow
// see every result. A Tick without a joined instance starts no goroutine
// and allocates nothing.
func (e *Engine) collectPhase(now time.Time) {
	if len(e.collectors) == 0 {
		return
	}
	due := e.due[:0]
	for _, inst := range e.collectors {
		if inst.nextDue.IsZero() || !now.Before(inst.nextDue) {
			due = append(due, inst)
		}
	}
	e.due = due
	FanOut(len(due), FanoutCap, func(i int) { due[i].collectRecovered() })
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

// drainTriggers runs dirty instances until quiescence, always the one with
// the lowest topological order next. An instance therefore runs only after
// all its dirty ancestors (which have strictly smaller order) have run, so
// each run sees every update its upstreams produced this tick.
func (e *Engine) drainTriggers(now time.Time) {
	for {
		e.lock()
		if len(e.dirty) == 0 {
			e.unlock()
			return
		}
		inst := e.popDirty()
		inst.queued = false
		e.mQueueDepth.Set(float64(len(e.dirty)))
		e.unlock()

		e.runModule(inst, RunInputs, now)
	}
}

// pushDirty adds inst to the dirty list, a binary min-heap on topological
// order, so the next instance to run is always at the root. The caller holds
// the notification lock.
func (e *Engine) pushDirty(inst *instanceState) {
	h := append(e.dirty, inst)
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
