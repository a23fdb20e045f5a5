package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"github.com/asdf-project/asdf/internal/telemetry"
)

// The supervised module runtime. ASDF's fingerpointing value depends on the
// fpt-core engine staying up while the system it watches misbehaves (§3.1:
// the DAG engine is the always-on multiplexer), so every module Run executes
// under a per-instance supervisor that
//
//   - converts panics into structured InstanceErrors routed through the
//     engine's error handler instead of crashing the process;
//   - optionally bounds each Run with a watchdog deadline (run_timeout /
//     WithWatchdog): a wedged Run is abandoned — its goroutine keeps the
//     instance flagged as wedged so a second dispatch never double-runs it —
//     and the tick proceeds for everyone else;
//   - tracks a failure budget: after quarantine_threshold consecutive
//     failures (error, panic, or timeout) the instance is quarantined and
//     skipped, with its outputs gap-filled per the degrade policy, until a
//     half-open re-probe after quarantine_cooldown re-admits it — exactly
//     paralleling the collection plane's per-node circuit breaker.
//
// The default configuration (no watchdog, no quarantine) only adds panic
// recovery and failure accounting to the hot path.

// defaultQuarantineCooldown applies when quarantine is enabled but no
// cooldown was configured at either the engine or the instance level.
const defaultQuarantineCooldown = 10 * time.Second

// FailureKind classifies one module-run failure.
type FailureKind int

// Failure kinds.
const (
	// FailureError is a plain error returned by Run.
	FailureError FailureKind = iota + 1
	// FailurePanic is a panic recovered inside Run.
	FailurePanic
	// FailureTimeout is a Run abandoned by the watchdog (or a dispatch
	// skipped because an abandoned Run is still in flight).
	FailureTimeout
)

// String renders the kind for diagnostics.
func (k FailureKind) String() string {
	switch k {
	case FailureError:
		return "error"
	case FailurePanic:
		return "panic"
	case FailureTimeout:
		return "timeout"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the kind as its string form.
func (k FailureKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// InstanceError is the structured failure record the supervisor routes to
// the engine's error handler: which instance failed, at which scheduling
// point, and how.
type InstanceError struct {
	// ID is the failing instance.
	ID string
	// Tick is the engine's step-mode tick counter at failure time (0 in
	// real-time mode, which has no tick structure).
	Tick uint64
	// Kind classifies the failure.
	Kind FailureKind
	// Err is the underlying failure: the module's error, the recovered
	// panic value, or the watchdog timeout.
	Err error
	// Stack is the goroutine stack at panic time (empty otherwise).
	Stack string
}

// Error renders the structured failure.
func (e *InstanceError) Error() string {
	return fmt.Sprintf("instance %s: %s (tick %d): %v", e.ID, e.Kind, e.Tick, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *InstanceError) Unwrap() error { return e.Err }

// panicError wraps a recovered panic value.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.val) }

// wedgeError reports a Run abandoned by the watchdog, or a dispatch skipped
// because a previously abandoned Run has not returned yet.
type wedgeError struct {
	timeout      time.Duration
	stillRunning bool
}

func (e *wedgeError) Error() string {
	if e.stillRunning {
		return "previous run still in flight (watchdog-abandoned goroutine has not returned)"
	}
	return fmt.Sprintf("run exceeded watchdog deadline %v; abandoned", e.timeout)
}

// SupervisorState is one instance's position in the quarantine lifecycle.
type SupervisorState int

// Supervisor states.
const (
	// SupervisorHealthy: the instance runs normally.
	SupervisorHealthy SupervisorState = iota
	// SupervisorQuarantined: the failure budget is exhausted; dispatches
	// are skipped (outputs gap-filled per the degrade policy) until the
	// cooldown expires.
	SupervisorQuarantined
	// SupervisorProbing: the cooldown expired and a single half-open probe
	// run is in flight; its outcome decides readmit vs re-quarantine.
	SupervisorProbing
)

// String renders the state for diagnostics.
func (s SupervisorState) String() string {
	switch s {
	case SupervisorHealthy:
		return "healthy"
	case SupervisorQuarantined:
		return "quarantined"
	case SupervisorProbing:
		return "probing"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the state as its string form.
func (s SupervisorState) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the string form, so InstanceHealth snapshots
// round-trip over the status RPC.
func (s *SupervisorState) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"healthy"`:
		*s = SupervisorHealthy
	case `"quarantined"`:
		*s = SupervisorQuarantined
	case `"probing"`:
		*s = SupervisorProbing
	default:
		return fmt.Errorf("core: unknown supervisor state %s", b)
	}
	return nil
}

// DegradePolicy says what a quarantined instance's outputs carry while it
// is skipped, mirroring the degraded-mode timestamp sync: downstream
// analyses either see a gap (skip), the last good value (hold), or zeros
// (zero). Gap-filled samples are marked Degraded.
type DegradePolicy int

// Degrade policies.
const (
	// DegradeSkip publishes nothing for a quarantined instance.
	DegradeSkip DegradePolicy = iota
	// DegradeHold republishes each output's last sample.
	DegradeHold
	// DegradeZero publishes a zero vector of each output's last width.
	DegradeZero
	// DegradeAuto defers the choice to the engine's degrade resolver
	// (WithDegradeResolver): the adaptive controller picks skip while the
	// collection plane is healthy and a gap-filling policy once the open-
	// breaker fraction crosses its tighten threshold. Without a resolver,
	// auto behaves as skip.
	DegradeAuto
)

// String renders the policy in configuration syntax.
func (p DegradePolicy) String() string {
	switch p {
	case DegradeSkip:
		return "skip"
	case DegradeHold:
		return "hold"
	case DegradeZero:
		return "zero"
	case DegradeAuto:
		return "auto"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the policy as its string form.
func (p DegradePolicy) MarshalJSON() ([]byte, error) {
	return []byte(`"` + p.String() + `"`), nil
}

// UnmarshalJSON parses the string form written by MarshalJSON.
func (p *DegradePolicy) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	parsed, err := ParseDegradePolicy(s)
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}

// ParseDegradePolicy parses the degrade configuration parameter; "" selects
// DegradeSkip.
func ParseDegradePolicy(s string) (DegradePolicy, error) {
	switch s {
	case "", "skip":
		return DegradeSkip, nil
	case "hold":
		return DegradeHold, nil
	case "zero":
		return DegradeZero, nil
	case "auto":
		return DegradeAuto, nil
	default:
		return DegradeSkip, fmt.Errorf("core: unknown degrade policy %q (want skip, hold, zero, or auto)", s)
	}
}

// InstanceHealth is a point-in-time snapshot of one instance's supervisor,
// suitable for the status endpoint, sinks, and tests.
type InstanceHealth struct {
	// ID is the instance id.
	ID string `json:"id"`
	// State is the quarantine lifecycle position.
	State SupervisorState `json:"state"`
	// Wedged reports a watchdog-abandoned Run still in flight.
	Wedged bool `json:"wedged,omitempty"`
	// ConsecutiveFailures counts failures since the last success.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// TotalFailures = Panics + Timeouts + Errors over the instance's life.
	TotalFailures uint64 `json:"total_failures,omitempty"`
	Panics        uint64 `json:"panics,omitempty"`
	Timeouts      uint64 `json:"timeouts,omitempty"`
	Errors        uint64 `json:"errors,omitempty"`
	// Quarantines counts entries into SupervisorQuarantined; Readmissions
	// counts successful half-open probes.
	Quarantines  uint64 `json:"quarantines,omitempty"`
	Readmissions uint64 `json:"readmissions,omitempty"`
	// LateReturns counts watchdog-abandoned Runs that eventually returned.
	LateReturns uint64 `json:"late_returns,omitempty"`
	// GapFills counts degrade-policy publishes while quarantined.
	GapFills uint64 `json:"gap_fills,omitempty"`
	// LastFailure describes the most recent failure, if any.
	LastFailure   string    `json:"last_failure,omitempty"`
	LastFailureAt time.Time `json:"last_failure_at,omitempty"`
	// ReopenAt is when a quarantined instance may run its half-open probe.
	ReopenAt time.Time `json:"reopen_at,omitempty"`
	// Effective supervision configuration.
	RunTimeout          time.Duration `json:"run_timeout,omitempty"`
	QuarantineThreshold int           `json:"quarantine_threshold,omitempty"`
	QuarantineCooldown  time.Duration `json:"quarantine_cooldown,omitempty"`
	Degrade             DegradePolicy `json:"degrade"`
}

// supervisor guards one instance: panic conversion, watchdog bookkeeping,
// and the quarantine state machine. All clocks are the engine's: virtual
// time in step mode, wall clock in real-time mode — except the watchdog
// deadline itself, which is necessarily wall-clock (a wedged module does
// not advance virtual time).
type supervisor struct {
	inst *instanceState

	runTimeout time.Duration // 0 = no watchdog
	threshold  int           // 0 = quarantine disabled
	cooldown   time.Duration
	degrade    DegradePolicy
	// resolve supplies the effective policy when degrade is DegradeAuto
	// (nil = auto behaves as skip). Set from the engine's WithDegradeResolver
	// at construction; called only on quarantined-instance dispatches, never
	// on the healthy hot path.
	resolve func() DegradePolicy

	mu          sync.Mutex
	state       SupervisorState
	wedged      bool
	consecutive int
	reopenAt    time.Time

	totalFailures, panics, timeouts, errs  uint64
	quarantines, readmissions, lateReturns uint64
	gapFills                               uint64
	lastFailure                            string
	lastFailureAt                          time.Time

	// Telemetry handles (nil without WithTelemetry; nil-safe). Incremented
	// at exactly the points the counters above change, under the same mutex,
	// so a /metrics scrape and a /status snapshot of a quiesced engine agree
	// value for value.
	mErrors, mPanics, mTimeouts *telemetry.Counter
	mQuarantines, mReadmissions *telemetry.Counter
	mLateReturns, mGapFills     *telemetry.Counter
	mState                      *telemetry.Gauge
}

// admitDecision is the outcome of supervisor.admit.
type admitDecision int

const (
	// admitRun: dispatch the module (includes half-open probes).
	admitRun admitDecision = iota
	// admitSkip: quarantined — skip and gap-fill per the degrade policy.
	admitSkip
	// admitWedged: a watchdog-abandoned Run is still in flight — skip and
	// count the dispatch as a timeout failure.
	admitWedged
	// admitDrop: skip silently (flush of a wedged instance).
	admitDrop
)

// admit decides whether a dispatch may run the module now. A flush runs
// even while quarantined (it is the engine's final drain) but never while a
// previous Run is still in flight.
func (s *supervisor) admit(reason RunReason, now time.Time) admitDecision {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wedged {
		if reason == RunFlush {
			return admitDrop
		}
		return admitWedged
	}
	if reason == RunFlush {
		return admitRun
	}
	switch s.state {
	case SupervisorQuarantined:
		if !now.Before(s.reopenAt) {
			s.state = SupervisorProbing
			s.mState.Set(float64(SupervisorProbing))
			return admitRun
		}
		return admitSkip
	case SupervisorProbing:
		// Only reachable if a probe is already in flight on another
		// dispatch path; never run two.
		return admitSkip
	}
	return admitRun
}

// settle records one dispatch outcome and returns the structured error to
// route to the handler (nil on success). Flush outcomes update the failure
// counters only: the engine's final drain runs even while quarantined, and
// a clean flush must not masquerade as a successful probe (nor a failed
// one as a budget strike).
func (s *supervisor) settle(err error, reason RunReason, now time.Time, tick uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		if reason == RunFlush {
			return nil
		}
		s.consecutive = 0
		if s.state != SupervisorHealthy {
			// A successful half-open probe re-admits the instance.
			s.state = SupervisorHealthy
			s.readmissions++
			s.mReadmissions.Inc()
			s.mState.Set(float64(SupervisorHealthy))
		}
		return nil
	}

	kind := FailureError
	var stack string
	var pe *panicError
	var we *wedgeError
	switch {
	case errors.As(err, &pe):
		kind = FailurePanic
		stack = string(pe.stack)
		s.panics++
		s.mPanics.Inc()
	case errors.As(err, &we):
		kind = FailureTimeout
		s.timeouts++
		s.mTimeouts.Inc()
	default:
		s.errs++
		s.mErrors.Inc()
	}
	s.totalFailures++
	s.lastFailure = err.Error()
	s.lastFailureAt = now
	if reason != RunFlush {
		s.consecutive++
		// A failed probe re-quarantines immediately; a healthy instance
		// quarantines once its failure budget is exhausted.
		if s.state == SupervisorProbing ||
			(s.state == SupervisorHealthy && s.threshold > 0 && s.consecutive >= s.threshold) {
			s.state = SupervisorQuarantined
			s.quarantines++
			s.mQuarantines.Inc()
			s.mState.Set(float64(SupervisorQuarantined))
			s.reopenAt = now.Add(s.cooldown)
		}
	}
	return &InstanceError{
		ID:    s.inst.id,
		Tick:  tick,
		Kind:  kind,
		Err:   err,
		Stack: stack,
	}
}

// abandon flags the instance as wedged and spawns a reaper that clears the
// flag once the abandoned Run finally returns. Until then every dispatch is
// refused (never double-run) and counted as a timeout failure.
func (s *supervisor) abandon(done <-chan error) {
	s.mu.Lock()
	s.wedged = true
	s.mu.Unlock()
	go func() {
		<-done // the abandoned Run returned (its result is discarded)
		s.mu.Lock()
		s.wedged = false
		s.lateReturns++
		s.mLateReturns.Inc()
		s.mu.Unlock()
	}()
}

// gapFill applies the degrade policy to a skipped (quarantined) dispatch:
// each output that has ever published republishes its last sample (hold) or
// a zero vector of the same width (zero), marked Degraded, so downstream
// trigger counts and analyses keep advancing through the outage.
func (s *supervisor) gapFill(now time.Time) {
	policy := s.degrade
	if policy == DegradeAuto {
		if s.resolve == nil {
			return
		}
		policy = s.resolve()
		if policy == DegradeSkip || policy == DegradeAuto {
			return
		}
	}
	if policy == DegradeSkip {
		return
	}
	filled := false
	for _, out := range s.inst.outputs {
		last, ok := out.Last()
		if !ok {
			continue
		}
		vals := last.Values
		if policy == DegradeZero {
			vals = make([]float64, len(last.Values))
		}
		out.Publish(Sample{Time: now, Values: vals, Degraded: true})
		filled = true
	}
	if filled {
		s.mu.Lock()
		s.gapFills++
		s.mGapFills.Inc()
		s.mu.Unlock()
	}
}

// snapshot returns a point-in-time copy of the supervisor's state.
func (s *supervisor) snapshot() InstanceHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	return InstanceHealth{
		ID:                  s.inst.id,
		State:               s.state,
		Wedged:              s.wedged,
		ConsecutiveFailures: s.consecutive,
		TotalFailures:       s.totalFailures,
		Panics:              s.panics,
		Timeouts:            s.timeouts,
		Errors:              s.errs,
		Quarantines:         s.quarantines,
		Readmissions:        s.readmissions,
		LateReturns:         s.lateReturns,
		GapFills:            s.gapFills,
		LastFailure:         s.lastFailure,
		LastFailureAt:       s.lastFailureAt,
		ReopenAt:            s.reopenAt,
		RunTimeout:          s.runTimeout,
		QuarantineThreshold: s.threshold,
		QuarantineCooldown:  s.cooldown,
		Degrade:             s.degrade,
	}
}

// SupervisorSnapshots reports every instance's supervisor state in
// initialization (topological) order.
func (e *Engine) SupervisorSnapshots() []InstanceHealth {
	out := make([]InstanceHealth, len(e.instances))
	for i, inst := range e.instances {
		out[i] = inst.sup.snapshot()
	}
	return out
}

// RestoreSupervisors reloads persisted supervisor state (a prior process's
// SupervisorSnapshots) into this engine's instances, matching by instance id.
// It returns how many instances accepted state. Restore before the first
// dispatch: it resumes lineage counters and — when the instance has a
// quarantine budget configured — the quarantine lifecycle itself, so a
// control-node restart does not reset cooldown clocks.
func (e *Engine) RestoreSupervisors(snaps []InstanceHealth) int {
	restored := 0
	for _, h := range snaps {
		inst, ok := e.byID[h.ID]
		if !ok {
			continue
		}
		if inst.sup.restore(h) {
			restored++
		}
	}
	return restored
}

// restore loads one persisted snapshot into the supervisor. Counters are
// mirrored into telemetry so a post-restart /metrics scrape still agrees
// with /status. A snapshot that was Quarantined or Probing resumes as
// Quarantined with its original absolute ReopenAt deadline (a probe's
// outcome died with the old process, so the conservative read is "still
// quarantined"; the next admit at or past ReopenAt re-probes). Wedged is
// never restored: the abandoned goroutine did not survive the restart.
func (s *supervisor) restore(h InstanceHealth) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.consecutive = h.ConsecutiveFailures
	s.totalFailures = h.TotalFailures
	s.panics = h.Panics
	s.timeouts = h.Timeouts
	s.errs = h.Errors
	s.quarantines = h.Quarantines
	s.readmissions = h.Readmissions
	s.lateReturns = h.LateReturns
	s.gapFills = h.GapFills
	s.lastFailure = h.LastFailure
	s.lastFailureAt = h.LastFailureAt
	s.mErrors.Add(h.Errors)
	s.mPanics.Add(h.Panics)
	s.mTimeouts.Add(h.Timeouts)
	s.mQuarantines.Add(h.Quarantines)
	s.mReadmissions.Add(h.Readmissions)
	s.mLateReturns.Add(h.LateReturns)
	s.mGapFills.Add(h.GapFills)
	if s.threshold > 0 && (h.State == SupervisorQuarantined || h.State == SupervisorProbing) {
		s.state = SupervisorQuarantined
		s.reopenAt = h.ReopenAt
		s.mState.Set(float64(SupervisorQuarantined))
	}
	return true
}

// InstanceHealthOf reports the named instance's supervisor state.
func (e *Engine) InstanceHealthOf(id string) (InstanceHealth, bool) {
	inst, ok := e.byID[id]
	if !ok {
		return InstanceHealth{}, false
	}
	return inst.sup.snapshot(), true
}

// invoke runs the module once under the supervisor's protections: panic
// recovery always, and — when a watchdog deadline is configured — dispatch
// on a goroutine abandoned at the deadline.
func (e *Engine) invoke(inst *instanceState, reason RunReason, now time.Time) error {
	if inst.sup.runTimeout <= 0 {
		return e.callRecovered(inst, reason, now)
	}
	done := make(chan error, 1)
	go func() { done <- e.callRecovered(inst, reason, now) }()
	timer := time.NewTimer(inst.sup.runTimeout)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		inst.sup.abandon(done)
		return &wedgeError{timeout: inst.sup.runTimeout}
	}
}

// callRecovered invokes Run with panics converted to errors. A panic the
// collect phase recovered for this fire is the periodic Run's outcome: Run
// is not called on the scratch the panicking collect left behind.
func (e *Engine) callRecovered(inst *instanceState, reason RunReason, now time.Time) (err error) {
	if reason == RunPeriodic && inst.collectPanic != nil {
		pe := inst.collectPanic
		inst.collectPanic = nil
		return pe
	}
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r, stack: debug.Stack()}
		}
	}()
	rctx := &RunContext{inst: inst, engine: e, Reason: reason, Now: now}
	return inst.module.Run(rctx)
}

// collectRecovered runs the instance's collect function on a collect-phase
// worker, keeping a panic for the instance's next periodic Run to report.
func (inst *instanceState) collectRecovered() {
	defer func() {
		if r := recover(); r != nil {
			inst.collectPanic = &panicError{val: r, stack: debug.Stack()}
		}
	}()
	inst.collect()
}
