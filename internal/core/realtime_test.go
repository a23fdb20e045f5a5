package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

// fanInConfig wires n periodic counters through doublers into a single
// fan-in recorder that triggers once n input updates have arrived.
func fanInConfig(n int, period string) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "[counter]\nid = c%d\nnode = n%d\nperiod = %s\n\n", i, i, period)
		fmt.Fprintf(&b, "[doubler]\nid = d%d\ninput[in] = c%d.output0\n\n", i, i)
	}
	fmt.Fprintf(&b, "[recorder]\nid = sink\ntrigger = %d\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "input[i%d] = d%d.output0\n", i, i)
	}
	return b.String()
}

// TestRealTimeFanInStress hammers a fan-in module with 8 concurrent
// upstream chains in real-time mode, one goroutine per instance; under
// -race (CI runs it so) it proves port delivery and trigger counting are
// data-race-free. After Run returns, every sample the doublers published
// must have reached the sink exactly once: consumed by one of its runs or
// still queued on its ports (a doubler may flush after the sink did).
func TestRealTimeFanInStress(t *testing.T) {
	const upstreams = 8
	// 100ms of 2ms ticks stays under defaultQueueCap per port, so no
	// sample can be dropped even if the sink never runs before its flush.
	cfg := mustParse(t, fanInConfig(upstreams, "2ms"))
	e, err := NewEngine(testRegistry(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := e.Run(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Run = %v, want deadline exceeded", err)
	}

	// Each doubler publishes 0, 2, 4, ... in order, so the published
	// multiset follows from the per-doubler counts.
	want := map[float64]int{}
	var published uint64
	for i := 0; i < upstreams; i++ {
		n := e.OutputPortsOf(fmt.Sprintf("d%d", i))[0].Published()
		published += n
		for k := uint64(0); k < n; k++ {
			want[float64(2*k)]++
		}
	}
	if published == 0 {
		t.Fatal("no doubler published in real-time mode")
	}

	mod, _ := e.ModuleOf("sink")
	got := mod.(*recorder).all()
	for _, p := range e.InputPortsOf("sink") {
		if p.Dropped() != 0 {
			t.Fatalf("port %s dropped %d samples", p.Name(), p.Dropped())
		}
		got = append(got, p.Read()...)
	}
	if uint64(len(got)) != published {
		t.Fatalf("sink received %d samples, doublers published %d", len(got), published)
	}
	for _, s := range got {
		want[s.Scalar()]--
	}
	var off []float64
	for v, n := range want {
		if n != 0 {
			off = append(off, v)
		}
	}
	sort.Float64s(off)
	if len(off) > 0 {
		t.Errorf("sample values delivered a wrong number of times: %v", off)
	}
}
