package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/telemetry"
)

// BenchmarkSupervisorOverhead guards the no-fault hot path: a zero-work
// fan DAG (the supervisor's per-dispatch cost is the whole signal) ticked
// under each supervision layer. sup=recover is the mandatory baseline
// (panic recovery + failure accounting), sup=quarantine arms a failure
// budget that never trips, sup=watchdog adds the goroutine-per-dispatch
// deadline — the one layer with real cost, which is why it is opt-in —
// and sup=telemetry attaches a metrics registry, which must stay within
// noise of the baseline (atomic increments plus one clock read per run).
// The sup=... sub-names deliberately match none of the CI benchstat greps
// (mode=..., client=...); this benchmark tracks the recover/quarantine
// layers staying within noise of each other, not serial vs parallel.
func BenchmarkSupervisorOverhead(b *testing.B) {
	const stages = 8
	reg := testRegistry()

	var sb strings.Builder
	sb.WriteString("[counter]\nid = src\nperiod = 1s\n")
	for i := 0; i < stages; i++ {
		fmt.Fprintf(&sb, "[doubler]\nid = w%d\ninput[in] = src.output0\n", i)
	}
	sb.WriteString("[recorder]\nid = sink\n")
	for i := 0; i < stages; i++ {
		fmt.Fprintf(&sb, "input[i%d] = w%d.output0\n", i, i)
	}
	file, err := config.ParseString(sb.String())
	if err != nil {
		b.Fatal(err)
	}

	for _, sup := range []struct {
		name string
		opts []Option
	}{
		{"recover", nil},
		{"quarantine", []Option{WithQuarantine(5, 10*time.Second)}},
		{"watchdog", []Option{WithWatchdog(time.Second)}},
		{"telemetry", []Option{WithTelemetry(telemetry.NewRegistry())}},
	} {
		b.Run("sup="+sup.name, func(b *testing.B) {
			eng, err := NewEngine(reg, file, sup.opts...)
			if err != nil {
				b.Fatal(err)
			}
			start := time.Unix(1_700_000_000, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Tick(start.Add(time.Duration(i+1) * time.Second)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// drainSink reads and drops its inputs: the cheapest module an input can
// trigger, so a tick's cost is the scheduler's.
type drainSink struct{ scratch []Sample }

func (m *drainSink) Init(*InitContext) error { return nil }

func (m *drainSink) Run(ctx *RunContext) error {
	for _, in := range ctx.Inputs() {
		m.scratch = in.ReadAppend(m.scratch[:0])
	}
	return nil
}

// BenchmarkDrainTriggers measures the serial scheduler's cost per dispatch
// with a wide dirty list: one source publishes to `dirty` zero-work
// instances, so each tick queues and then dispatches that many — the shape
// of a fleet configured with one analysis chain per node.
func BenchmarkDrainTriggers(b *testing.B) {
	for _, dirty := range []int{768, 4096} {
		b.Run(fmt.Sprintf("dirty=%d", dirty), func(b *testing.B) {
			reg := testRegistry()
			reg.Register("drain", func() Module { return &drainSink{} })
			var sb strings.Builder
			sb.WriteString("[counter]\nid = src\nperiod = 1s\n")
			for i := 0; i < dirty; i++ {
				fmt.Fprintf(&sb, "[drain]\nid = d%d\ninput[in] = src.output0\n", i)
			}
			file, err := config.ParseString(sb.String())
			if err != nil {
				b.Fatal(err)
			}
			eng, err := NewEngine(reg, file)
			if err != nil {
				b.Fatal(err)
			}
			start := time.Unix(1_700_000_000, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Tick(start.Add(time.Duration(i+1) * time.Second)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
