package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// tracer logs each of its runs and republishes on two of every three, so a
// random DAG of tracers re-dirties its instances in an irregular order.
type tracer struct {
	id   string
	log  *[]string
	runs int
	out  *OutputPort
}

// tracerPublishes is the rule the tracer and the model scheduler share.
func tracerPublishes(id string, run int) bool { return (run*7+len(id)*3+int(id[len(id)-1]))%3 != 0 }

func (m *tracer) Init(ctx *InitContext) error {
	m.id = ctx.ID()
	var err error
	m.out, err = ctx.NewOutput("output0", Origin{Source: "tracer"})
	return err
}

func (m *tracer) Run(ctx *RunContext) error {
	if ctx.Reason != RunInputs {
		return nil
	}
	for _, in := range ctx.Inputs() {
		in.Read()
	}
	*m.log = append(*m.log, m.id)
	m.runs++
	if tracerPublishes(m.id, m.runs) {
		m.out.Publish(NewScalar(ctx.Now, 1))
	}
	return nil
}

// TestSerialDispatchOrderMatchesSortedSlice: on random DAGs the serial
// scheduler, whose dirty list is a heap, runs instances in exactly the order
// of the model below, which re-sorts a plain slice by topological order
// before every dispatch and takes its head.
func TestSerialDispatchOrderMatchesSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		sources := rng.Intn(3) + 1
		tracers := rng.Intn(60) + 2
		consumers := map[string][]string{}
		var ids []string
		var b strings.Builder
		for s := 0; s < sources; s++ {
			id := fmt.Sprintf("c%d", s)
			ids = append(ids, id)
			fmt.Fprintf(&b, "[counter]\nid = %s\nperiod = 1\n\n", id)
		}
		for i := 0; i < tracers; i++ {
			id := fmt.Sprintf("t%d", i)
			fmt.Fprintf(&b, "[tracer]\nid = %s\n", id)
			// One to four distinct upstreams among everything declared so far.
			for k, j := range rng.Perm(len(ids))[:min(len(ids), rng.Intn(4)+1)] {
				fmt.Fprintf(&b, "input[i%d] = %s.output0\n", k, ids[j])
				consumers[ids[j]] = append(consumers[ids[j]], id)
			}
			b.WriteString("\n")
			ids = append(ids, id)
		}
		var got []string
		reg := testRegistry()
		reg.Register("tracer", func() Module { return &tracer{log: &got} })
		e, err := NewEngine(reg, mustParse(t, b.String()))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		var want, dirty []string
		queued := map[string]bool{}
		runs := map[string]int{}
		notify := func(from string) {
			for _, c := range consumers[from] {
				if !queued[c] {
					queued[c] = true
					dirty = append(dirty, c)
				}
			}
		}
		const ticks = 6
		for tick := 0; tick < ticks; tick++ {
			if err := e.Tick(t0().Add(time.Duration(tick) * time.Second)); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < sources; s++ {
				notify(fmt.Sprintf("c%d", s))
			}
			for len(dirty) > 0 {
				sort.Slice(dirty, func(i, j int) bool { return e.byID[dirty[i]].order < e.byID[dirty[j]].order })
				id := dirty[0]
				dirty = dirty[1:]
				queued[id] = false
				want = append(want, id)
				runs[id]++
				if tracerPublishes(id, runs[id]) {
					notify(id)
				}
			}
		}
		if len(want) < tracers {
			t.Fatalf("trial %d: the model dispatched %d runs over %d tracers: too few to order", trial, len(want), tracers)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("trial %d: dispatch order differs from the sorted-slice model\n got %v\nwant %v", trial, got, want)
		}
		if len(e.dirty) != 0 {
			t.Fatalf("trial %d: %d instances left dirty after the tick", trial, len(e.dirty))
		}
	}
}
