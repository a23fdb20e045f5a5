package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/telemetry"
)

// Engine is an fpt-core instance: a DAG of module instances plus a
// scheduler. Construct with NewEngine, then drive it either with Tick/Flush
// (step mode) or Run (real-time mode); the two modes must not be mixed on
// one Engine.
type Engine struct {
	logger Logger
	onErr  func(instanceID string, err error)

	instances []*instanceState // in initialization (topological) order
	byID      map[string]*instanceState

	// Engine-level supervision defaults; per-instance configuration
	// parameters (run_timeout, quarantine_threshold, quarantine_cooldown,
	// degrade) override them.
	watchdogDefault   time.Duration
	quarThresholdDflt int
	quarCooldownDflt  time.Duration
	degradeDefault    DegradePolicy
	degradeResolver   func() DegradePolicy

	// step-mode state; also reused as the notification lock in
	// real-time mode.
	stepMu  chan struct{}    // binary semaphore guarding dirty/pending
	dirty   []*instanceState // min-heap on order (pushDirty / popDirty)
	started bool
	realtim bool

	// The collect phase (RegisterCollect): the instances that joined it, in
	// topological order, and the reused list of those due this Tick.
	collectors []*instanceState
	due        []*instanceState

	// tickNum tags error-handler output with the step-mode tick it
	// belongs to.
	tickNum atomic.Uint64
	errMu   sync.Mutex // serializes the default error handler's log lines

	// Telemetry (nil without WithTelemetry; every handle is nil-safe, so
	// the schedulers never branch on whether metrics are wired).
	metrics     *telemetry.Registry
	mTick       *telemetry.Histogram // step-mode Tick wall time
	mQueueDepth *telemetry.Gauge     // step-mode dirty-list length
}

// instanceState is the engine-side representation of one module instance:
// a vertex of the DAG.
type instanceState struct {
	id     string
	cfg    *config.Instance
	module Module
	engine *Engine

	inputs  []*InputPort
	outputs []*OutputPort

	// scheduling
	period  time.Duration // >0: periodic
	trigger int           // >0: run after this many input updates
	pending int           // accumulated input updates (guarded by stepMu)
	queued  bool          // already on the dirty list (guarded by stepMu)
	nextDue time.Time     // step mode: next periodic deadline

	order   int            // topological index
	mailbox chan RunReason // real-time mode

	// collect is the function the instance registered for the collect
	// phase (nil if none); collectPanic is a panic the phase recovered from
	// it, which the instance's next periodic Run reports.
	collect      func()
	collectPanic *panicError

	sup *supervisor // per-instance supervised runtime

	// mRunSeconds observes supervised Run latency (nil without telemetry;
	// non-nil also gates the per-dispatch clock reads).
	mRunSeconds *telemetry.Histogram
}

// Option customizes engine construction.
type Option func(*Engine)

// WithLogger sets the diagnostic logger.
func WithLogger(l Logger) Option {
	return func(e *Engine) { e.logger = l }
}

// WithErrorHandler sets the callback invoked when a module's Run returns an
// error. The default logs and continues, matching the paper's
// keep-monitoring-despite-module-errors behaviour. In real-time mode the
// handler may be invoked concurrently from several instance goroutines; the
// default handler serializes its log lines.
func WithErrorHandler(f func(instanceID string, err error)) Option {
	return func(e *Engine) { e.onErr = f }
}

// WithWatchdog sets the default per-run watchdog deadline: a module Run
// exceeding it is abandoned (the instance stays flagged until the leaked
// goroutine returns, so it is never double-run) and counted as a timeout
// failure. 0 (the default) disables the watchdog. The per-instance
// run_timeout configuration parameter overrides this. The deadline is
// wall-clock even in step mode: a wedged module does not advance virtual
// time.
func WithWatchdog(d time.Duration) Option {
	return func(e *Engine) { e.watchdogDefault = d }
}

// WithQuarantine sets the default failure budget: after threshold
// consecutive failures (error, panic, or timeout) an instance is
// quarantined — skipped, its outputs gap-filled per its degrade policy —
// until a half-open probe after cooldown re-admits it. threshold 0 (the
// default) disables quarantine; cooldown 0 selects 10s. The per-instance
// quarantine_threshold / quarantine_cooldown parameters override this.
func WithQuarantine(threshold int, cooldown time.Duration) Option {
	return func(e *Engine) {
		e.quarThresholdDflt = threshold
		e.quarCooldownDflt = cooldown
	}
}

// WithDegrade sets the default degrade policy applied to quarantined
// instances' outputs; the per-instance degrade parameter overrides it.
func WithDegrade(p DegradePolicy) Option {
	return func(e *Engine) { e.degradeDefault = p }
}

// WithDegradeResolver supplies the effective policy for instances configured
// with degrade = auto: the resolver is consulted on each quarantined-instance
// dispatch (never on the healthy hot path) so an adaptive controller can
// tighten gap-filling while the collection plane is degraded and relax it
// back. f must be safe for concurrent use and must return a concrete policy
// (skip, hold, or zero); without a resolver, auto behaves as skip.
func WithDegradeResolver(f func() DegradePolicy) Option {
	return func(e *Engine) { e.degradeResolver = f }
}

// WithTelemetry registers the engine's runtime metrics — per-instance run
// latency histograms, tick durations, queue depth, and the
// supervisor's transition counters — on reg, for exposition on a /metrics
// endpoint. nil (the default) disables instrumentation entirely: the hot
// path then performs no clock reads and no atomic operations for telemetry.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(e *Engine) { e.metrics = reg }
}

// NewEngine builds the module DAG from the parsed configuration, following
// the paper's four-step construction (§3.3): create a vertex per instance,
// count unsatisfied inputs, initialize instances whose inputs are satisfied
// (their new outputs satisfying downstream inputs), and repeat to fixpoint.
// Failure to reach the fixpoint — a dangling reference, a missing module, or
// a dependency cycle — is a configuration error.
func NewEngine(reg *Registry, file *config.File, opts ...Option) (*Engine, error) {
	if reg == nil || file == nil {
		return nil, fmt.Errorf("core: NewEngine requires a registry and a configuration")
	}
	e := &Engine{
		byID:   make(map[string]*instanceState),
		stepMu: make(chan struct{}, 1),
	}
	e.stepMu <- struct{}{}
	for _, o := range opts {
		o(e)
	}
	if e.metrics != nil {
		e.mTick = e.metrics.Histogram("asdf_engine_tick_seconds",
			"Wall-clock duration of one step-mode Tick, periodic fires and trigger drain included.", nil)
		e.mQueueDepth = e.metrics.Gauge("asdf_engine_queue_depth",
			"Step-mode scheduler queue: instances currently triggered and waiting to run.")
	}
	if e.onErr == nil {
		// Real-time instance goroutines may fail at the same moment; the
		// lock keeps their log lines whole.
		e.onErr = func(id string, err error) {
			e.errMu.Lock()
			defer e.errMu.Unlock()
			// err is an *InstanceError carrying the failure kind and tick.
			e.logf("module %s: %v", id, err)
		}
	}

	// Step 1: a vertex per configured instance.
	all := make([]*instanceState, 0, len(file.Instances))
	for _, ci := range file.Instances {
		if _, ok := reg.Lookup(ci.Module); !ok {
			return nil, fmt.Errorf("core: instance %q: unknown module %q (line %d)", ci.ID, ci.Module, ci.Line)
		}
		inst := &instanceState{id: ci.ID, cfg: ci, engine: e}
		all = append(all, inst)
		e.byID[ci.ID] = inst
	}

	// Step 2: count unsatisfied upstream dependencies.
	unsat := make(map[*instanceState]map[string]bool)
	dependents := make(map[string][]*instanceState)
	for _, inst := range all {
		deps := make(map[string]bool)
		for _, ref := range inst.cfg.Inputs {
			up, ok := e.byID[ref.Instance]
			if !ok {
				return nil, fmt.Errorf("core: instance %q: input[%s] references unknown instance %q",
					inst.id, ref.Name, ref.Instance)
			}
			if up == inst {
				return nil, fmt.Errorf("core: instance %q: input[%s] references itself", inst.id, ref.Name)
			}
			deps[ref.Instance] = true
		}
		unsat[inst] = deps
		for d := range deps {
			dependents[d] = append(dependents[d], inst)
		}
	}

	// Steps 3–4: initialize in dependency order.
	var queue []*instanceState
	for _, inst := range all {
		if len(unsat[inst]) == 0 {
			queue = append(queue, inst)
		}
	}
	initialized := 0
	for len(queue) > 0 {
		inst := queue[0]
		queue = queue[1:]
		if err := e.initInstance(reg, inst); err != nil {
			return nil, err
		}
		inst.order = initialized
		initialized++
		e.instances = append(e.instances, inst)
		for _, down := range dependents[inst.id] {
			delete(unsat[down], inst.id)
			if len(unsat[down]) == 0 {
				queue = append(queue, down)
			}
		}
	}
	if initialized != len(all) {
		var blocked []string
		for _, inst := range all {
			if len(unsat[inst]) > 0 {
				blocked = append(blocked, inst.id)
			}
		}
		sort.Strings(blocked)
		return nil, fmt.Errorf("core: could not satisfy inputs of instances %s (dependency cycle or missing outputs)",
			strings.Join(blocked, ", "))
	}
	return e, nil
}

// initInstance creates the module, wires its input ports to upstream
// outputs, and calls its Init.
func (e *Engine) initInstance(reg *Registry, inst *instanceState) error {
	factory, _ := reg.Lookup(inst.cfg.Module)
	inst.module = factory()
	if err := e.initSupervisor(inst); err != nil {
		return err
	}

	for _, ref := range inst.cfg.Inputs {
		up := e.byID[ref.Instance]
		if ref.All {
			if len(up.outputs) == 0 {
				return fmt.Errorf("core: instance %q: input[%s] = @%s but %q created no outputs",
					inst.id, ref.Name, ref.Instance, ref.Instance)
			}
			for _, o := range up.outputs {
				e.wire(inst, ref.Name, o)
			}
			continue
		}
		var found *OutputPort
		for _, o := range up.outputs {
			if o.name == ref.Output {
				found = o
				break
			}
		}
		if found == nil {
			return fmt.Errorf("core: instance %q: input[%s] references missing output %s.%s",
				inst.id, ref.Name, ref.Instance, ref.Output)
		}
		e.wire(inst, ref.Name, found)
	}

	ictx := &InitContext{inst: inst, engine: e}
	if err := inst.module.Init(ictx); err != nil {
		return fmt.Errorf("core: instance %q: init: %w", inst.id, err)
	}
	if len(inst.inputs) > 0 && inst.trigger == 0 {
		inst.trigger = 1
	}
	if inst.period == 0 && len(inst.inputs) == 0 {
		return fmt.Errorf("core: instance %q has no inputs and no periodic schedule; it would never run", inst.id)
	}
	// A watchdog or a quarantine budget must see the fetch, so a supervised
	// instance keeps collecting inside its Run.
	if inst.collect != nil && inst.period > 0 && inst.sup.runTimeout <= 0 && inst.sup.threshold <= 0 {
		e.collectors = append(e.collectors, inst)
	}
	return nil
}

func (e *Engine) wire(inst *instanceState, inputName string, from *OutputPort) {
	port := &InputPort{name: inputName, source: from, owner: inst}
	inst.inputs = append(inst.inputs, port)
	from.subscribe(port)
}

// Instances returns the instance ids in initialization (topological) order.
func (e *Engine) Instances() []string {
	out := make([]string, len(e.instances))
	for i, inst := range e.instances {
		out[i] = inst.id
	}
	return out
}

// OutputPortsOf returns the output ports of the named instance, for
// inspection by tests and tooling.
func (e *Engine) OutputPortsOf(id string) []*OutputPort {
	inst, ok := e.byID[id]
	if !ok {
		return nil
	}
	out := make([]*OutputPort, len(inst.outputs))
	copy(out, inst.outputs)
	return out
}

// InputPortsOf returns the input ports of the named instance.
func (e *Engine) InputPortsOf(id string) []*InputPort {
	inst, ok := e.byID[id]
	if !ok {
		return nil
	}
	out := make([]*InputPort, len(inst.inputs))
	copy(out, inst.inputs)
	return out
}

// ModuleOf returns the module implementation behind the named instance,
// allowing callers (e.g. the evaluation harness) to read results off
// concrete module types.
func (e *Engine) ModuleOf(id string) (Module, bool) {
	inst, ok := e.byID[id]
	if !ok {
		return nil, false
	}
	return inst.module, true
}

func (e *Engine) logf(format string, args ...any) {
	if e.logger != nil {
		e.logger.Printf(format, args...)
	}
}

// lock acquires the engine's notification lock.
func (e *Engine) lock() { <-e.stepMu }

// unlock releases the engine's notification lock.
func (e *Engine) unlock() { e.stepMu <- struct{}{} }

// notifyInput records an input update and schedules the owning instance
// when its trigger threshold is reached.
func (e *Engine) notifyInput(in *InputPort) {
	inst := in.owner
	e.lock()
	inst.pending++
	ready := inst.trigger > 0 && inst.pending >= inst.trigger
	if ready {
		inst.pending = 0
	}
	enqueue := ready && !inst.queued && !e.realtim
	if enqueue {
		inst.queued = true
		e.pushDirty(inst)
		e.mQueueDepth.Set(float64(len(e.dirty)))
	}
	e.unlock()

	if ready && e.realtim {
		select {
		case inst.mailbox <- RunInputs:
		default: // coalesce: a run is already pending
		}
	}
}

// initSupervisor builds the instance's supervisor from its configuration
// parameters layered over the engine's option-level defaults.
func (e *Engine) initSupervisor(inst *instanceState) error {
	sp, err := inst.cfg.SupervisorParams()
	if err != nil {
		return err
	}
	sup := &supervisor{inst: inst}
	sup.runTimeout = sp.RunTimeout
	if sup.runTimeout == 0 {
		sup.runTimeout = e.watchdogDefault
	}
	sup.threshold = sp.QuarantineThreshold
	if sup.threshold < 0 {
		sup.threshold = e.quarThresholdDflt
	}
	sup.cooldown = sp.QuarantineCooldown
	if sup.cooldown == 0 {
		sup.cooldown = e.quarCooldownDflt
	}
	if sup.cooldown == 0 {
		sup.cooldown = defaultQuarantineCooldown
	}
	if sp.Degrade == "" {
		sup.degrade = e.degradeDefault
	} else if sup.degrade, err = ParseDegradePolicy(sp.Degrade); err != nil {
		return fmt.Errorf("core: instance %q: %w", inst.id, err)
	}
	if sup.degrade == DegradeAuto {
		sup.resolve = e.degradeResolver
	}
	if reg := e.metrics; reg != nil {
		il := telemetry.L("instance", inst.id)
		const failHelp = "Supervised module-run failures by instance and kind (error, panic, timeout)."
		sup.mErrors = reg.Counter("asdf_supervisor_failures_total", failHelp,
			il, telemetry.L("kind", FailureError.String()))
		sup.mPanics = reg.Counter("asdf_supervisor_failures_total", failHelp,
			il, telemetry.L("kind", FailurePanic.String()))
		sup.mTimeouts = reg.Counter("asdf_supervisor_failures_total", failHelp,
			il, telemetry.L("kind", FailureTimeout.String()))
		sup.mQuarantines = reg.Counter("asdf_supervisor_quarantines_total",
			"Entries into the quarantined state (failure budget exhausted or failed probe).", il)
		sup.mReadmissions = reg.Counter("asdf_supervisor_readmissions_total",
			"Successful half-open probes re-admitting a quarantined instance.", il)
		sup.mLateReturns = reg.Counter("asdf_supervisor_late_returns_total",
			"Watchdog-abandoned runs that eventually returned.", il)
		sup.mGapFills = reg.Counter("asdf_supervisor_gap_fills_total",
			"Degrade-policy publishes while quarantined.", il)
		sup.mState = reg.Gauge("asdf_supervisor_state",
			"Quarantine lifecycle position: 0 healthy, 1 quarantined, 2 probing.", il)
		inst.mRunSeconds = reg.Histogram("asdf_module_run_seconds",
			"Wall-clock latency of supervised module runs.", nil, il)
	}
	inst.sup = sup
	return nil
}

// runModule dispatches one Run through the instance's supervisor: panics
// become structured InstanceErrors, a configured watchdog abandons wedged
// runs, and a quarantined instance is skipped with its outputs gap-filled
// per its degrade policy. Failures route to the error handler, never up.
func (e *Engine) runModule(inst *instanceState, reason RunReason, now time.Time) {
	switch inst.sup.admit(reason, now) {
	case admitRun:
		if inst.mRunSeconds != nil {
			// The non-nil histogram gates the clock reads too, keeping the
			// uninstrumented dispatch path free of telemetry cost.
			start := time.Now()
			err := e.invoke(inst, reason, now)
			inst.mRunSeconds.Observe(time.Since(start).Seconds())
			e.settle(inst, err, reason, now)
			return
		}
		e.settle(inst, e.invoke(inst, reason, now), reason, now)
	case admitSkip:
		inst.sup.gapFill(now)
	case admitWedged:
		// The previous Run is still in flight: refuse to double-run, and
		// count the lost dispatch as a timeout failure so a permanently
		// wedged instance exhausts its failure budget.
		e.settle(inst, &wedgeError{stillRunning: true}, reason, now)
	case admitDrop:
	}
}

// settle records the dispatch outcome and routes any failure to the error
// handler as a structured InstanceError.
func (e *Engine) settle(inst *instanceState, err error, reason RunReason, now time.Time) {
	ierr := inst.sup.settle(err, reason, now, e.tickNum.Load())
	if ierr != nil {
		e.onErr(inst.id, ierr)
	}
}
