package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// phaseSource is a periodic source that joins the collect phase the way the
// single-node rpc sadc does: its collect function fetches into the
// module's scratch, and Run publishes that fetch or fetches inline when the
// phase fetched nothing for this fire.
type phaseSource struct {
	out *OutputPort

	// fetch, when set, stands in for the daemon round trip; it runs on a
	// phase worker or inside Run.
	fetch     func()
	panicky   bool // the collect function panics
	failRun   bool // Run fails after its fetch
	collected bool

	phase  atomic.Int64 // fetches made by the collect phase
	inline int          // fetches made inside Run
	runs   int          // periodic Runs
}

func (m *phaseSource) Init(ctx *InitContext) error {
	var err error
	if m.out, err = ctx.NewOutput("output0", Origin{Source: "phase"}); err != nil {
		return err
	}
	if m.panicky, err = ctx.Config().BoolParam("panicky", false); err != nil {
		return err
	}
	if m.failRun, err = ctx.Config().BoolParam("fail_run", false); err != nil {
		return err
	}
	ctx.RegisterCollect(m.collect)
	return ctx.SchedulePeriodic(time.Second)
}

func (m *phaseSource) collect() {
	if m.panicky {
		panic("injected collect panic")
	}
	if m.fetch != nil {
		m.fetch()
	}
	m.phase.Add(1)
	m.collected = true
}

func (m *phaseSource) Run(ctx *RunContext) error {
	if ctx.Reason != RunPeriodic {
		return nil
	}
	m.runs++
	if m.collected {
		m.collected = false
	} else {
		if m.fetch != nil {
			m.fetch()
		}
		m.inline++
	}
	if m.failRun {
		return errors.New("injected fetch failure")
	}
	m.out.Publish(NewScalar(ctx.Now, float64(m.runs)))
	return nil
}

func phaseRegistry() *Registry {
	reg := testRegistry()
	reg.Register("phase", func() Module { return &phaseSource{} })
	return reg
}

// phaseConfig renders n phase sources, each with extra's parameters, feeding
// one recorder.
func phaseConfig(n int, extra string) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "[phase]\nid = p%d\n%s\n", i, extra)
	}
	b.WriteString("[recorder]\nid = sink\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "input[in%d] = p%d.output0\n", i, i)
	}
	return b.String()
}

func phaseModule(t *testing.T, e *Engine, id string) *phaseSource {
	t.Helper()
	mod, ok := e.ModuleOf(id)
	if !ok {
		t.Fatalf("no instance %s", id)
	}
	return mod.(*phaseSource)
}

// TestCollectPhaseWidth runs 40 collect functions that each wait a little:
// the phase overlaps them, never more than FanoutCap at a time, and every
// one has returned when Tick returns.
func TestCollectPhaseWidth(t *testing.T) {
	const n, ticks = 40, 3
	e, err := NewEngine(phaseRegistry(), mustParse(t, phaseConfig(n, "")))
	if err != nil {
		t.Fatal(err)
	}
	var running, peak, done atomic.Int64
	for i := 0; i < n; i++ {
		phaseModule(t, e, fmt.Sprintf("p%d", i)).fetch = func() {
			now := running.Add(1)
			for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
			}
			time.Sleep(2 * time.Millisecond)
			running.Add(-1)
			done.Add(1)
		}
	}
	for i := 0; i < ticks; i++ {
		if err := e.Tick(t0().Add(time.Duration(i) * time.Second)); err != nil {
			t.Fatal(err)
		}
		if got, want := done.Load(), int64((i+1)*n); got != want {
			t.Fatalf("tick %d: %d fetches returned by the end of Tick, want %d", i, got, want)
		}
	}
	if p := peak.Load(); p <= 1 || p > FanoutCap {
		t.Errorf("peak of %d collect calls in flight, want more than 1 and at most %d", p, FanoutCap)
	}
	for i := 0; i < n; i++ {
		m := phaseModule(t, e, fmt.Sprintf("p%d", i))
		if m.phase.Load() != ticks || m.inline != 0 {
			t.Errorf("p%d: %d phase fetches and %d inline, want %d and 0", i, m.phase.Load(), m.inline, ticks)
		}
	}
	sink, _ := e.ModuleOf("sink")
	if got, want := len(sink.(*recorder).all()), n*ticks; got != want {
		t.Errorf("sink received %d samples, want %d", got, want)
	}
}

// TestCollectPhasePanicIsTheRunsPanic makes one collect function panic: the
// panic is recovered on the phase worker and reported as that instance's
// Run panic, once per tick, while its sibling publishes as usual.
func TestCollectPhasePanicIsTheRunsPanic(t *testing.T) {
	const ticks = 3
	cfg := mustParse(t, "[phase]\nid = bad\npanicky = true\n\n[phase]\nid = good\n\n"+
		"[recorder]\nid = sink\ninput[a] = bad.output0\ninput[b] = good.output0\n")
	var ec errCollector
	e, err := NewEngine(phaseRegistry(), cfg, WithErrorHandler(ec.handler()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ticks; i++ {
		if err := e.Tick(t0().Add(time.Duration(i) * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	errs := ec.all()
	if len(errs) != ticks {
		t.Fatalf("%d errors, want %d: %v", len(errs), ticks, errs)
	}
	for _, err := range errs {
		var ie *InstanceError
		if !errors.As(err, &ie) || ie.ID != "bad" || ie.Kind != FailurePanic {
			t.Fatalf("error %v, want a panic InstanceError for bad", err)
		}
		if ie.Stack == "" || !strings.Contains(ie.Error(), "injected collect panic") {
			t.Errorf("InstanceError %v lacks the panic's value or stack", ie)
		}
	}
	if bad := phaseModule(t, e, "bad"); bad.runs != 0 {
		t.Errorf("bad's Run was called %d times after its collect panicked, want 0", bad.runs)
	}
	if h, _ := e.InstanceHealthOf("bad"); h.Panics != ticks {
		t.Errorf("bad: %d panics counted, want %d", h.Panics, ticks)
	}
	if h, _ := e.InstanceHealthOf("good"); h.TotalFailures != 0 {
		t.Errorf("good: %d failures, want 0", h.TotalFailures)
	}
	sink, _ := e.ModuleOf("sink")
	if got := len(sink.(*recorder).all()); got != ticks {
		t.Errorf("sink received %d samples, want good's %d", got, ticks)
	}
}

// TestCollectPhaseSkipsSupervised: an instance with a watchdog or a
// quarantine threshold keeps fetching inside Run, under its supervisor.
func TestCollectPhaseSkipsSupervised(t *testing.T) {
	const ticks = 4
	for _, tc := range []struct {
		name, extra string
		phase       bool
	}{
		{"unsupervised", "", true},
		{"run_timeout", "run_timeout = 1\n", false},
		{"quarantine_threshold", "quarantine_threshold = 3\n", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(phaseRegistry(), mustParse(t, phaseConfig(2, tc.extra)))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < ticks; i++ {
				if err := e.Tick(t0().Add(time.Duration(i) * time.Second)); err != nil {
					t.Fatal(err)
				}
			}
			wantPhase, wantInline := int64(ticks), 0
			if !tc.phase {
				wantPhase, wantInline = 0, ticks
			}
			for _, id := range []string{"p0", "p1"} {
				m := phaseModule(t, e, id)
				if m.phase.Load() != wantPhase || m.inline != wantInline {
					t.Errorf("%s: %d phase and %d inline fetches, want %d and %d",
						id, m.phase.Load(), m.inline, wantPhase, wantInline)
				}
			}
		})
	}
}

// TestCollectPhaseNeverCallsQuarantined quarantines an instance after one
// failed fetch: through its cooldown nothing fetches for it, the phase
// included.
func TestCollectPhaseNeverCallsQuarantined(t *testing.T) {
	cfg := mustParse(t, phaseConfig(1, "fail_run = true\nquarantine_threshold = 1\nquarantine_cooldown = 3600\n"))
	e, err := NewEngine(phaseRegistry(), cfg, WithErrorHandler(func(string, error) {}))
	if err != nil {
		t.Fatal(err)
	}
	m := phaseModule(t, e, "p0")
	var fetches atomic.Int64
	m.fetch = func() { fetches.Add(1) }
	for i := 0; i < 6; i++ {
		if err := e.Tick(t0().Add(time.Duration(i) * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if h, _ := e.InstanceHealthOf("p0"); h.State != SupervisorQuarantined {
		t.Fatalf("p0 is %s, want quarantined", h.State)
	}
	if got := fetches.Load(); got != 1 || m.phase.Load() != 0 {
		t.Errorf("%d fetches (%d by the phase) for a node quarantined after its first, want 1 (0)",
			got, m.phase.Load())
	}
}

// TestCollectPhaseClockJump: a jump that fires an instance several times in
// one Tick fetches once per fire — the phase for the first, Run inline for
// the catch-up fires.
func TestCollectPhaseClockJump(t *testing.T) {
	e, err := NewEngine(phaseRegistry(), mustParse(t, phaseConfig(1, "")))
	if err != nil {
		t.Fatal(err)
	}
	m := phaseModule(t, e, "p0")
	if err := e.Tick(t0()); err != nil {
		t.Fatal(err)
	}
	if err := e.Tick(t0().Add(2 * time.Second)); err != nil { // fires at +1s and +2s
		t.Fatal(err)
	}
	if m.runs != 3 || m.phase.Load() != 2 || m.inline != 1 {
		t.Errorf("runs/phase/inline = %d/%d/%d, want 3/2/1", m.runs, m.phase.Load(), m.inline)
	}
	if err := e.Tick(t0().Add(2500 * time.Millisecond)); err != nil { // not due
		t.Fatal(err)
	}
	if m.runs != 3 || m.phase.Load() != 2 {
		t.Errorf("an instance that is not due was collected: runs/phase = %d/%d", m.runs, m.phase.Load())
	}
}

// TestCollectPhaseNotInRealTime: Engine.Run never calls a collect function;
// every fire fetches inside Run.
func TestCollectPhaseNotInRealTime(t *testing.T) {
	e, err := NewEngine(phaseRegistry(), mustParse(t, phaseConfig(1, "")))
	if err != nil {
		t.Fatal(err)
	}
	m := phaseModule(t, e, "p0")
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	_ = e.Run(ctx)
	if m.phase.Load() != 0 || m.inline == 0 || m.inline != m.runs {
		t.Errorf("real-time: %d phase and %d inline fetches over %d runs, want 0 and all",
			m.phase.Load(), m.inline, m.runs)
	}
}
