package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/hadoopsim"
	"github.com/asdf-project/asdf/internal/modules"
	"github.com/asdf-project/asdf/internal/sadc"
)

// recording holds what a small faulty simulator run published per second:
// the sadc node vector and the TaskTracker state vector of every node. The
// replay source tiles it over a larger virtual fleet.
type recording struct {
	sadc [][][]float64 // [second][node] raw 64-wide sadc vector
	tt   [][][]float64 // [second][node] TaskTracker state vector
}

func (r *recording) seconds() int { return len(r.sadc) }
func (r *recording) nodes() int   { return len(r.sadc[0]) }

// recordFleet runs a nodes-slave simulated cluster with a CPUHog on
// faultNode and records seconds seconds of collector output, through the
// same sadc.Collector and log-source code the collection modules use.
func recordFleet(seed int64, nodes, seconds, faultNode int) (*recording, error) {
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(nodes, seed))
	if err != nil {
		return nil, err
	}
	collectors := make([]*sadc.Collector, nodes)
	logs := make([]modules.LogSource, nodes)
	for i, n := range c.Slaves() {
		collectors[i] = sadc.NewCollector(n)
		if _, err := collectors[i].Collect(); err != nil { // rate baseline
			return nil, err
		}
		logs[i] = modules.NewBufferLogSource(hadooplog.KindTaskTracker, n.TaskTrackerLog())
	}
	if err := c.InjectFault(faultNode, hadoopsim.FaultCPUHog); err != nil {
		return nil, err
	}
	rec := &recording{}
	ttStreams := make([][][]float64, nodes)
	// The log parser finalizes a second only once the next one has begun,
	// so run a few seconds past the target and trim.
	for s := 0; s < seconds+3; s++ {
		c.Tick()
		row := make([][]float64, nodes)
		for i := range collectors {
			r, err := collectors[i].Collect()
			if err != nil {
				return nil, err
			}
			row[i] = r.Node
			vecs, err := logs[i].Fetch(c.Now())
			if err != nil {
				return nil, err
			}
			for _, v := range vecs {
				ttStreams[i] = append(ttStreams[i], v.Counts)
			}
		}
		if s < seconds {
			rec.sadc = append(rec.sadc, row)
		}
	}
	for i, st := range ttStreams {
		if len(st) < seconds {
			return nil, fmt.Errorf("replay: node %d yielded %d TaskTracker vectors, want %d", i, len(st), seconds)
		}
	}
	rec.tt = make([][][]float64, seconds)
	for s := range rec.tt {
		rec.tt[s] = make([][]float64, nodes)
		for i := range ttStreams {
			rec.tt[s][i] = ttStreams[i][s]
		}
	}
	return rec, nil
}

// replaySource is a source module registered from the benchmark through the
// public plug-in API. For each of nodes virtual nodes it publishes, every
// tick, one recorded sadc vector on output sadc<i> and one recorded
// TaskTracker vector on output tt<i>. Virtual node i replays recorded node
// i mod R at a seeded phase offset, so neighbours are out of step. Every
// published Values slice belongs to the recording and is never mutated.
type replaySource struct {
	rec    *recording
	nodes  int
	phase  []int
	tick   int
	sadcs  []*core.OutputPort
	tts    []*core.OutputPort
	period time.Duration
}

// newReplaySource derives the per-node phase offsets from seed.
func newReplaySource(rec *recording, nodes int, seed int64) *replaySource {
	rng := rand.New(rand.NewSource(seed))
	phase := make([]int, nodes)
	for i := range phase {
		phase[i] = rng.Intn(rec.seconds())
	}
	return &replaySource{rec: rec, nodes: nodes, phase: phase, period: time.Second}
}

// at returns what virtual node i publishes at tick t.
func (m *replaySource) at(t, i int) (sadcVec, ttVec []float64) {
	s := (t + m.phase[i]) % m.rec.seconds()
	n := i % m.rec.nodes()
	return m.rec.sadc[s][n], m.rec.tt[s][n]
}

func (m *replaySource) Init(ctx *core.InitContext) error {
	m.sadcs = make([]*core.OutputPort, m.nodes)
	m.tts = make([]*core.OutputPort, m.nodes)
	for i := 0; i < m.nodes; i++ {
		origin := core.Origin{Node: fmt.Sprintf("v%04d", i), Source: "replay"}
		var err error
		if m.sadcs[i], err = ctx.NewOutput(fmt.Sprintf("sadc%d", i), origin); err != nil {
			return err
		}
		if m.tts[i], err = ctx.NewOutput(fmt.Sprintf("tt%d", i), origin); err != nil {
			return err
		}
	}
	return ctx.SchedulePeriodic(m.period)
}

func (m *replaySource) Run(ctx *core.RunContext) error {
	if ctx.Reason != core.RunPeriodic {
		return nil
	}
	for i := 0; i < m.nodes; i++ {
		sv, tv := m.at(m.tick, i)
		m.sadcs[i].Publish(core.Sample{Time: ctx.Now, Values: sv})
		m.tts[i].Publish(core.Sample{Time: ctx.Now, Values: tv})
	}
	m.tick++
	return nil
}
