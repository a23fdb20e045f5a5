package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// faulty is a configurable passthrough used by the supervisor tests: it can
// panic, return an error, or wedge (sleep) on selected runs, and otherwise
// republishes its inputs (or, with no inputs, emits its run count).
type faulty struct {
	out *OutputPort

	mu       sync.Mutex
	runs     int
	panicOn  func(run int) bool
	errorOn  func(run int) bool
	wedgeOn  func(run int) bool
	wedgeFor time.Duration
}

func (m *faulty) Init(ctx *InitContext) error {
	var err error
	if m.out, err = ctx.NewOutput("output0", Origin{Source: "faulty"}); err != nil {
		return err
	}
	period, err := ctx.Config().DurationParam("period", 0)
	if err != nil {
		return err
	}
	if period > 0 {
		return ctx.SchedulePeriodic(period)
	}
	return nil
}

func (m *faulty) Run(ctx *RunContext) error {
	if ctx.Reason == RunFlush {
		return nil
	}
	m.mu.Lock()
	m.runs++
	run := m.runs
	panicNow := m.panicOn != nil && m.panicOn(run)
	errorNow := m.errorOn != nil && m.errorOn(run)
	wedgeNow := m.wedgeOn != nil && m.wedgeOn(run)
	wedgeFor := m.wedgeFor
	m.mu.Unlock()

	if panicNow {
		panic(fmt.Sprintf("injected panic on run %d", run))
	}
	if errorNow {
		return fmt.Errorf("injected error on run %d", run)
	}
	if wedgeNow {
		time.Sleep(wedgeFor)
	}
	for _, in := range ctx.Inputs() {
		for _, s := range in.Read() {
			m.out.Publish(s)
		}
	}
	if len(ctx.Inputs()) == 0 {
		m.out.Publish(NewScalar(ctx.Now, float64(run)))
	}
	return nil
}

func (m *faulty) runCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runs
}

// errCollector is a thread-safe error-handler sink.
type errCollector struct {
	mu   sync.Mutex
	errs []error
	ids  []string
}

func (c *errCollector) handler() func(string, error) {
	return func(id string, err error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.ids = append(c.ids, id)
		c.errs = append(c.errs, err)
	}
}

func (c *errCollector) all() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]error, len(c.errs))
	copy(out, c.errs)
	return out
}

func (c *errCollector) kinds() map[FailureKind]int {
	out := make(map[FailureKind]int)
	for _, err := range c.all() {
		var ie *InstanceError
		if errors.As(err, &ie) {
			out[ie.Kind]++
		}
	}
	return out
}

// fanConfig builds a DAG with one periodic source, n same-depth "faulty"
// siblings, and a recorder sink joining them all.
func fanConfig(n int, extra string) string {
	var sb strings.Builder
	sb.WriteString("[counter]\nid = src\nperiod = 1\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "[faulty]\nid = w%d\ninput[in] = src.output0\n%s", i, extra)
	}
	sb.WriteString("[recorder]\nid = sink\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "input[i%d] = w%d.output0\n", i, i)
	}
	return sb.String()
}

func supervisorRegistry() *Registry {
	reg := testRegistry()
	reg.Register("faulty", func() Module { return &faulty{} })
	return reg
}

// TestPanicIsolatedFromSiblings: a panic in one instance must not prevent
// its siblings from completing their tick — the panic is converted to an
// InstanceError, never a crash.
func TestPanicIsolatedFromSiblings(t *testing.T) {
	const siblings = 4
	reg := supervisorRegistry()
	cfg := mustParse(t, fanConfig(siblings, ""))
	var ec errCollector
	e, err := NewEngine(reg, cfg, WithErrorHandler(ec.handler()))
	if err != nil {
		t.Fatal(err)
	}
	// w1 panics on every run.
	mod, _ := e.ModuleOf("w1")
	mod.(*faulty).panicOn = func(int) bool { return true }

	const ticks = 5
	for i := 0; i < ticks; i++ {
		if err := e.Tick(t0().Add(time.Duration(i) * time.Second)); err != nil {
			t.Fatal(err)
		}
	}

	// Every sibling except the panicker delivered all its ticks.
	sink, _ := e.ModuleOf("sink")
	if got, want := len(sink.(*recorder).all()), (siblings-1)*ticks; got != want {
		t.Errorf("sink received %d samples, want %d from the healthy siblings", got, want)
	}
	// The panic surfaced as a structured error, once per tick.
	errs := ec.all()
	if len(errs) != ticks {
		t.Fatalf("error handler invoked %d times, want %d", len(errs), ticks)
	}
	var ie *InstanceError
	if !errors.As(errs[0], &ie) {
		t.Fatalf("error %T is not an *InstanceError", errs[0])
	}
	if ie.ID != "w1" || ie.Kind != FailurePanic {
		t.Errorf("InstanceError = {ID:%s Kind:%s}, want {w1 panic}", ie.ID, ie.Kind)
	}
	if ie.Tick == 0 {
		t.Error("InstanceError.Tick not stamped")
	}
	if ie.Stack == "" {
		t.Error("InstanceError.Stack empty for a panic")
	}
	if !strings.Contains(ie.Error(), "injected panic") {
		t.Errorf("error text %q does not carry the panic value", ie.Error())
	}
	// The supervisor counted the panics.
	ih, ok := e.InstanceHealthOf("w1")
	if !ok || ih.Panics != ticks {
		t.Errorf("w1 health = %+v, want %d panics", ih, ticks)
	}
}

// TestQuarantineLifecycle walks the full state machine: healthy →
// quarantined after the failure budget → half-open probe after cooldown →
// readmit on success, or re-quarantine on a failed probe.
func TestQuarantineLifecycle(t *testing.T) {
	reg := supervisorRegistry()
	cfg := mustParse(t, fanConfig(3, "quarantine_threshold = 3\nquarantine_cooldown = 5\n"))
	var ec errCollector
	e, err := NewEngine(reg, cfg, WithErrorHandler(ec.handler()))
	if err != nil {
		t.Fatal(err)
	}
	mod, _ := e.ModuleOf("w0")
	w0 := mod.(*faulty)
	// Fail runs 1..4; recover afterwards. Run 4 is the first failed
	// probe (re-quarantine); the next probe succeeds (readmit).
	w0.errorOn = func(run int) bool { return run <= 4 }

	tick := func(i int) {
		t.Helper()
		if err := e.Tick(t0().Add(time.Duration(i) * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	state := func() SupervisorState {
		ih, _ := e.InstanceHealthOf("w0")
		return ih.State
	}

	// Ticks 0,1: failures 1,2 — still healthy.
	tick(0)
	tick(1)
	if got := state(); got != SupervisorHealthy {
		t.Fatalf("after 2 failures state = %s, want healthy", got)
	}
	// Tick 2: third consecutive failure trips quarantine.
	tick(2)
	if got := state(); got != SupervisorQuarantined {
		t.Fatalf("after 3 failures state = %s, want quarantined", got)
	}
	// Ticks 3..6: inside the 5s cooldown — skipped, no new failures.
	failuresAtQuarantine := len(ec.all())
	for i := 3; i <= 6; i++ {
		tick(i)
	}
	if got := state(); got != SupervisorQuarantined {
		t.Fatalf("inside cooldown state = %s, want quarantined", got)
	}
	if got := len(ec.all()); got != failuresAtQuarantine {
		t.Errorf("%d new failures while quarantined, want 0", got-failuresAtQuarantine)
	}
	if w0.runCount() != 3 {
		t.Errorf("w0 ran %d times, want 3 (quarantine must skip dispatches)", w0.runCount())
	}
	// Tick 7 (t=2+5): cooldown over — the probe runs and fails →
	// re-quarantined with a fresh cooldown.
	tick(7)
	if got := state(); got != SupervisorQuarantined {
		t.Fatalf("after failed probe state = %s, want quarantined", got)
	}
	if w0.runCount() != 4 {
		t.Errorf("w0 ran %d times, want 4 (exactly one probe)", w0.runCount())
	}
	// Ticks 8..11: fresh cooldown. Tick 12 (t=7+5): probe succeeds →
	// readmitted.
	for i := 8; i <= 11; i++ {
		tick(i)
	}
	tick(12)
	if got := state(); got != SupervisorHealthy {
		t.Fatalf("after successful probe state = %s, want healthy", got)
	}
	// Healthy again: later ticks run normally.
	tick(13)
	ih, _ := e.InstanceHealthOf("w0")
	if ih.Quarantines != 2 || ih.Readmissions != 1 {
		t.Errorf("quarantines=%d readmissions=%d, want 2 and 1", ih.Quarantines, ih.Readmissions)
	}
	if ih.ConsecutiveFailures != 0 {
		t.Errorf("consecutive failures = %d after readmission, want 0", ih.ConsecutiveFailures)
	}
	if kinds := ec.kinds(); kinds[FailureError] != 4 {
		t.Errorf("recorded %v, want 4 error-kind failures", kinds)
	}
}

// TestQuarantineDegradePolicies checks the gap-fill behaviour of hold and
// zero (and the silence of skip) while an instance is quarantined.
func TestQuarantineDegradePolicies(t *testing.T) {
	for _, tc := range []struct {
		policy string
		want   func(last float64, s Sample) bool
	}{
		{"skip", nil},
		{"hold", func(last float64, s Sample) bool { return s.Scalar() == last && s.Degraded }},
		{"zero", func(last float64, s Sample) bool { return s.Scalar() == 0 && s.Degraded }},
	} {
		t.Run(tc.policy, func(t *testing.T) {
			reg := supervisorRegistry()
			cfg := mustParse(t, fmt.Sprintf(`
[faulty]
id = f
period = 1
quarantine_threshold = 2
quarantine_cooldown = 100
degrade = %s
[recorder]
id = sink
input[in] = f.output0
`, tc.policy))
			e, err := NewEngine(reg, cfg, WithErrorHandler(func(string, error) {}))
			if err != nil {
				t.Fatal(err)
			}
			mod, _ := e.ModuleOf("f")
			f := mod.(*faulty)
			// Two good runs (publishing 1, 2), then permanent failure.
			f.errorOn = func(run int) bool { return run > 2 }

			for i := 0; i < 8; i++ {
				if err := e.Tick(t0().Add(time.Duration(i) * time.Second)); err != nil {
					t.Fatal(err)
				}
			}
			ih, _ := e.InstanceHealthOf("f")
			if ih.State != SupervisorQuarantined {
				t.Fatalf("state = %s, want quarantined", ih.State)
			}
			sink, _ := e.ModuleOf("sink")
			samples := sink.(*recorder).all()
			// 2 real samples (values 1, 2), then ticks 4..7 are quarantined
			// dispatches: gap-filled under hold/zero, silent under skip.
			if tc.policy == "skip" {
				if len(samples) != 2 {
					t.Fatalf("skip: sink received %d samples, want 2 real ones", len(samples))
				}
				if ih.GapFills != 0 {
					t.Errorf("skip: %d gap fills recorded, want 0", ih.GapFills)
				}
				return
			}
			if len(samples) != 6 {
				t.Fatalf("%s: sink received %d samples, want 2 real + 4 gap-filled", tc.policy, len(samples))
			}
			for _, s := range samples[2:] {
				if !tc.want(2, s) {
					t.Errorf("%s: gap-fill sample = %+v", tc.policy, s)
				}
			}
			if ih.GapFills != 4 {
				t.Errorf("%s: gap fills = %d, want 4", tc.policy, ih.GapFills)
			}
		})
	}
}

// TestWatchdogAbandonsWedgedRun checks that a Run exceeding run_timeout is
// abandoned without blocking the tick, that the instance is never
// double-run while the abandoned goroutine is in flight, and that the
// leaked goroutine's eventual return clears the wedge.
func TestWatchdogAbandonsWedgedRun(t *testing.T) {
	reg := supervisorRegistry()
	cfg := mustParse(t, `
[faulty]
id = f
period = 1
run_timeout = 30ms
[recorder]
id = sink
input[in] = f.output0
`)
	var ec errCollector
	e, err := NewEngine(reg, cfg, WithErrorHandler(ec.handler()))
	if err != nil {
		t.Fatal(err)
	}
	mod, _ := e.ModuleOf("f")
	f := mod.(*faulty)
	f.wedgeOn = func(run int) bool { return run == 1 }
	f.wedgeFor = 200 * time.Millisecond

	start := time.Now()
	if err := e.Tick(t0()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Errorf("tick blocked %v on a wedged module, want ~run_timeout", elapsed)
	}
	ih, _ := e.InstanceHealthOf("f")
	if !ih.Wedged || ih.Timeouts != 1 {
		t.Errorf("after abandon: wedged=%v timeouts=%d, want true/1", ih.Wedged, ih.Timeouts)
	}

	// While the abandoned goroutine sleeps, further dispatches are refused
	// and counted, never double-run.
	if err := e.Tick(t0().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if f.runCount() != 1 {
		t.Errorf("f ran %d times while wedged, want 1 (no double dispatch)", f.runCount())
	}

	// Once the goroutine returns the wedge clears and runs resume.
	deadline := time.Now().Add(2 * time.Second)
	for {
		ih, _ = e.InstanceHealthOf("f")
		if !ih.Wedged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("wedge never cleared after the abandoned run returned")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ih.LateReturns != 1 {
		t.Errorf("late returns = %d, want 1", ih.LateReturns)
	}
	if err := e.Tick(t0().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if f.runCount() != 2 {
		t.Errorf("f ran %d times after recovery, want 2", f.runCount())
	}
	if kinds := ec.kinds(); kinds[FailureTimeout] != 2 {
		t.Errorf("recorded %v, want 2 timeout failures (abandon + wedged skip)", kinds)
	}
}

// TestWatchdogStress races many watchdog-abandoned goroutines against the
// scheduler and concurrent snapshot readers; run with -race. A
// permanently wedging instance must end up quarantined, while healthy
// siblings keep completing every tick.
func TestWatchdogStress(t *testing.T) {
	const siblings = 6
	reg := supervisorRegistry()
	// Every instance runs under the watchdog, but only w0's deadline is
	// tight: a 2ms wall-clock deadline on the healthy siblings would also
	// abandon their runs whenever a loaded -race host stalls them.
	text := fanConfig(siblings, "quarantine_threshold = 5\nquarantine_cooldown = 1000\n")
	text = strings.Replace(text, "id = w0\n", "id = w0\nrun_timeout = 2ms\n", 1)
	cfg := mustParse(t, text)
	var errCount atomic.Int64
	e, err := NewEngine(reg, cfg, WithWatchdog(time.Second),
		WithErrorHandler(func(string, error) { errCount.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	mod, _ := e.ModuleOf("w0")
	w0 := mod.(*faulty)
	w0.wedgeOn = func(int) bool { return true }
	w0.wedgeFor = 10 * time.Millisecond

	// Concurrent snapshot readers, as a live /status endpoint would be.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					for _, ih := range e.SupervisorSnapshots() {
						_ = ih.State
					}
				}
			}
		}()
	}

	const ticks = 40
	for i := 0; i < ticks; i++ {
		if err := e.Tick(t0().Add(time.Duration(i) * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	sink, _ := e.ModuleOf("sink")
	got := len(sink.(*recorder).all())
	// Healthy siblings deliver every tick; w0 contributes only what it
	// managed before abandonment (its late publishes may or may not land).
	if got < (siblings-1)*ticks {
		t.Errorf("sink received %d samples, want >= %d from healthy siblings", got, (siblings-1)*ticks)
	}
	ih, _ := e.InstanceHealthOf("w0")
	if ih.State != SupervisorQuarantined {
		t.Errorf("w0 state = %s, want quarantined after persistent wedging", ih.State)
	}
	if ih.Timeouts == 0 {
		t.Error("no timeout failures recorded")
	}
	if errCount.Load() == 0 {
		t.Error("error handler never invoked")
	}
}

// TestSupervisorConfigErrors covers parameter validation paths.
func TestSupervisorConfigErrors(t *testing.T) {
	reg := supervisorRegistry()
	for _, bad := range []string{
		"[counter]\nid = c\nperiod = 1\ndegrade = sideways\n",
		"[counter]\nid = c\nperiod = 1\nrun_timeout = -1s\n",
		"[counter]\nid = c\nperiod = 1\nquarantine_cooldown = -2\n",
	} {
		cfg := mustParse(t, bad)
		if _, err := NewEngine(reg, cfg); err == nil {
			t.Errorf("config %q accepted, want error", bad)
		}
	}
}

// TestQuarantineDisabledByDefault: without a threshold an instance fails
// forever but is never quarantined — the seed behaviour.
func TestQuarantineDisabledByDefault(t *testing.T) {
	reg := supervisorRegistry()
	cfg := mustParse(t, "[faulty]\nid = f\nperiod = 1\n")
	var ec errCollector
	e, err := NewEngine(reg, cfg, WithErrorHandler(ec.handler()))
	if err != nil {
		t.Fatal(err)
	}
	mod, _ := e.ModuleOf("f")
	mod.(*faulty).errorOn = func(int) bool { return true }
	for i := 0; i < 10; i++ {
		if err := e.Tick(t0().Add(time.Duration(i) * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	ih, _ := e.InstanceHealthOf("f")
	if ih.State != SupervisorHealthy {
		t.Errorf("state = %s, want healthy (quarantine disabled)", ih.State)
	}
	if len(ec.all()) != 10 {
		t.Errorf("error handler invoked %d times, want every tick", len(ec.all()))
	}
	if ih.TotalFailures != 10 || ih.Errors != 10 {
		t.Errorf("counted %d/%d failures/errors, want 10/10", ih.TotalFailures, ih.Errors)
	}
}

// TestFlushDoesNotReadmit: Flush runs a quarantined instance (it is the
// engine's final drain), but a clean flush must not masquerade as a
// successful half-open probe and re-admit it — the post-run report would
// show the offender healthy.
func TestFlushDoesNotReadmit(t *testing.T) {
	reg := supervisorRegistry()
	cfg := mustParse(t, "[faulty]\nid = f\nperiod = 1\nquarantine_threshold = 2\nquarantine_cooldown = 100\n")
	e, err := NewEngine(reg, cfg, WithErrorHandler(func(string, error) {}))
	if err != nil {
		t.Fatal(err)
	}
	mod, _ := e.ModuleOf("f")
	mod.(*faulty).errorOn = func(int) bool { return true }
	for i := 0; i < 4; i++ {
		if err := e.Tick(t0().Add(time.Duration(i) * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if ih, _ := e.InstanceHealthOf("f"); ih.State != SupervisorQuarantined {
		t.Fatalf("state = %s before flush, want quarantined", ih.State)
	}
	if err := e.Flush(t0().Add(4 * time.Second)); err != nil {
		t.Fatal(err)
	}
	ih, _ := e.InstanceHealthOf("f")
	if ih.State != SupervisorQuarantined {
		t.Errorf("state = %s after flush, want still quarantined", ih.State)
	}
	if ih.Readmissions != 0 {
		t.Errorf("flush counted as a readmission (%d)", ih.Readmissions)
	}
}

// TestEngineQuarantineOptionDefaults: WithQuarantine applies to instances
// with no explicit parameters, and an explicit quarantine_threshold = 0
// opts a single instance out.
func TestEngineQuarantineOptionDefaults(t *testing.T) {
	reg := supervisorRegistry()
	cfg := mustParse(t, `
[faulty]
id = budget
period = 1
[faulty]
id = optout
period = 1
quarantine_threshold = 0
`)
	e, err := NewEngine(reg, cfg,
		WithQuarantine(2, 60*time.Second),
		WithErrorHandler(func(string, error) {}))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"budget", "optout"} {
		mod, _ := e.ModuleOf(id)
		mod.(*faulty).errorOn = func(int) bool { return true }
	}
	for i := 0; i < 6; i++ {
		if err := e.Tick(t0().Add(time.Duration(i) * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if ih, _ := e.InstanceHealthOf("budget"); ih.State != SupervisorQuarantined {
		t.Errorf("budget state = %s, want quarantined via engine default", ih.State)
	}
	if ih, _ := e.InstanceHealthOf("optout"); ih.State != SupervisorHealthy {
		t.Errorf("optout state = %s, want healthy (explicit opt-out)", ih.State)
	}
}
