package modules

import (
	"fmt"
	"time"

	"github.com/asdf-project/asdf/internal/analysis"
	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/stats"
)

// This file implements the batched analysis plane: the multi-node forms of
// knn and mavgvec. Instead of N per-node module instances — ~2N tiny Runs
// per tick at fleet scale — one instance drains all N inputs, gathers the
// pending vectors into one flat row-major matrix, and processes every
// node's data in a single Run with bounded parallel workers over contiguous
// node blocks (analysis.BlockPool) and pooled scratch.
//
// The contract is byte-identity with the per-node configuration: the same
// arithmetic in the same per-port order, only batching and layout change.
// Workers therefore only *compute* (into per-row slots of pooled buffers,
// one owner per row, no contention); publication happens serially in node
// index order afterwards, and published Values are freshly allocated per
// sample exactly as the per-node modules do (a published Sample's Values
// live on in downstream queues).

// removedBatchParams are the knn/mavgvec parameters earlier versions
// accepted. No workload set them, and the default width beat a serial pass
// in 9 of 10 pairs on the 2048-node replay (EXPERIMENTS.md), so the width
// is fixed.
var removedBatchParams = []removedParam{
	{"fanout", "the batched pass always runs min(16, nodes) workers"},
	{"block", "the batched pass always splits nodes into blocks of 64"},
}

// batchParams parses nodes, the multi-node form switch, and returns the
// batched pass's worker count: min(16, nodes), over the BlockPool's default
// block.
func batchParams(cfg *config.Instance, module string) (nodes, workers int, err error) {
	if err = rejectRemoved(cfg, module, removedBatchParams); err != nil {
		return 0, 0, err
	}
	if nodes, err = cfg.IntParam("nodes", 0); err != nil {
		return 0, 0, err
	}
	if nodes < 0 {
		return 0, 0, fmt.Errorf("%s: nodes must be non-negative", module)
	}
	return nodes, resolveFanout(0, nodes), nil
}

// pendingGather drains every input into reusable per-node sample lists.
type pendingGather struct {
	pending [][]core.Sample
}

func newPendingGather(n int) *pendingGather {
	return &pendingGather{pending: make([][]core.Sample, n)}
}

// drain refills the per-node lists from the ports. The lists are reused
// across ticks (ReadAppend into the truncated previous backing array), so a
// steady-state drain does not allocate.
func (g *pendingGather) drain(inputs []*core.InputPort) (total int) {
	for i, in := range inputs {
		g.pending[i] = in.ReadAppend(g.pending[i][:0])
		total += len(g.pending[i])
	}
	return total
}

// release zeroes the drained lists so consumed Samples (and their Values)
// do not stay reachable through the reused backing arrays.
func (g *pendingGather) release() {
	for i := range g.pending {
		for j := range g.pending[i] {
			g.pending[i][j] = core.Sample{}
		}
		g.pending[i] = g.pending[i][:0]
	}
}

// knnBatch is the multi-node form of knn (nodes = N): input i is node i's
// raw vector stream, output<i> carries node i's 1-NN state index stream.
type knnBatch struct {
	model *analysis.Model
	bc    *analysis.BatchClassifier
	outs  []*core.OutputPort

	gather *pendingGather
	matrix []float64 // flat row-major gather, grown on demand
	states []int     // per-row classification results
	dim    int       // vector dimension, fixed by the first sample
}

func (m *knnBatch) init(ctx *core.InitContext, model *analysis.Model, nodes, workers int) error {
	inputs := ctx.Inputs()
	if len(inputs) != nodes {
		return fmt.Errorf("knn: nodes = %d but %d inputs are wired", nodes, len(inputs))
	}
	m.model = model
	m.bc = analysis.NewBatchClassifier(model, workers, 0)
	m.gather = newPendingGather(nodes)
	for i, in := range inputs {
		origin := in.Origin()
		origin.Source = "knn(" + origin.Source + ")"
		origin.Metric = "state"
		out, err := ctx.NewOutput(fmt.Sprintf("output%d", i), origin)
		if err != nil {
			return err
		}
		m.outs = append(m.outs, out)
	}
	return nil
}

func (m *knnBatch) run(ctx *core.RunContext) error {
	total := m.gather.drain(ctx.Inputs())
	if total > 0 {
		if err := m.classifyAndPublish(total); err != nil {
			return err
		}
	}
	m.gather.release()
	if ctx.Reason == core.RunFlush {
		m.bc.Close()
	}
	return nil
}

func (m *knnBatch) classifyAndPublish(total int) error {
	// Gather: node-major rows, each node's pending samples in arrival
	// order, so row order equals publish order.
	if m.dim == 0 {
		for _, ps := range m.gather.pending {
			if len(ps) > 0 {
				m.dim = len(ps[0].Values)
				break
			}
		}
	}
	if need := total * m.dim; cap(m.matrix) < need {
		m.matrix = make([]float64, need)
	}
	m.matrix = m.matrix[:total*m.dim]
	if cap(m.states) < total {
		m.states = make([]int, total)
	}
	m.states = m.states[:total]
	row := 0
	for i, ps := range m.gather.pending {
		for _, s := range ps {
			if len(s.Values) != m.dim {
				return fmt.Errorf("knn: node %d sample has %d values, want %d", i, len(s.Values), m.dim)
			}
			copy(m.matrix[row*m.dim:(row+1)*m.dim], s.Values)
			row++
		}
	}
	if err := m.bc.ClassifyMatrix(m.matrix, total, m.dim, m.states); err != nil {
		return fmt.Errorf("knn: %w", err)
	}
	// Serial publish in node index order: per-port sample order is exactly
	// the per-node module's.
	row = 0
	for i, ps := range m.gather.pending {
		for _, s := range ps {
			m.outs[i].Publish(core.NewScalar(s.Time, float64(m.states[row])))
			row++
		}
	}
	return nil
}

// batchSmoother is the compute kernel of the multi-node mavgvec: per-node
// sliding vector windows pushed and reduced in parallel over node blocks,
// with emissions written to pooled flat row-major buffers. After warm-up a
// smooth pass performs zero allocations; publication (which must allocate
// fresh Values per emitted sample, like the per-node module) is the
// caller's serial job.
type batchSmoother struct {
	windowSize int
	slide      int
	dim        int

	win       []*stats.VectorWindow
	sinceEmit []int

	pool        *analysis.BlockPool
	meanScratch [][]float64 // per-worker variance scratch
	errs        []error     // per-worker first error

	// per-tick kernel state, owned one node per worker.
	pending  [][]core.Sample
	base     []int       // emission slot base per node (prefix sums)
	emitN    []int       // emissions produced per node this tick
	emitMean []float64   // flat rows at base[i]..base[i]+emitN[i]
	emitVar  []float64   // flat rows, parallel to emitMean
	emitTime []time.Time // triggering sample times, parallel rows
}

func newBatchSmoother(nodes, window, slide, workers, block int) *batchSmoother {
	b := &batchSmoother{
		windowSize: window,
		slide:      slide,
		win:        make([]*stats.VectorWindow, nodes),
		sinceEmit:  make([]int, nodes),
		base:       make([]int, nodes),
		emitN:      make([]int, nodes),
	}
	b.pool = analysis.NewBlockPool(workers, block, b.smoothBlock)
	b.meanScratch = make([][]float64, b.pool.Workers())
	b.errs = make([]error, b.pool.Workers())
	return b
}

func (b *batchSmoother) smoothBlock(w, lo, hi int) {
	for i := lo; i < hi; i++ {
		if b.errs[w] != nil {
			return
		}
		b.errs[w] = b.smoothNode(w, i)
	}
}

func (b *batchSmoother) smoothNode(w, node int) error {
	emit := 0
	for _, s := range b.pending[node] {
		if b.win[node] == nil {
			b.win[node] = stats.NewVectorWindow(b.windowSize, b.dim)
		}
		if len(s.Values) != b.dim {
			return fmt.Errorf("mavgvec: node %d sample has %d values, want %d", node, len(s.Values), b.dim)
		}
		if err := b.win[node].Push(s.Values); err != nil {
			return fmt.Errorf("mavgvec: %w", err)
		}
		b.sinceEmit[node]++
		if b.win[node].Full() && b.sinceEmit[node] >= b.slide {
			b.sinceEmit[node] = 0
			slot := b.base[node] + emit
			if len(b.meanScratch[w]) < b.dim {
				b.meanScratch[w] = make([]float64, b.dim)
			}
			b.win[node].MeanInto(b.emitMean[slot*b.dim : (slot+1)*b.dim])
			b.win[node].VarianceInto(b.emitVar[slot*b.dim:(slot+1)*b.dim], b.meanScratch[w])
			b.emitTime[slot] = s.Time
			emit++
		}
	}
	b.emitN[node] = emit
	return nil
}

// smooth runs the kernel over the drained per-node sample lists. pending
// must have one entry per node. The emission buffers are valid until the
// next call.
func (b *batchSmoother) smooth(pending [][]core.Sample) error {
	if b.dim == 0 {
		for _, ps := range pending {
			if len(ps) > 0 {
				b.dim = len(ps[0].Values)
				break
			}
		}
		if b.dim == 0 {
			return nil
		}
	}
	// Emission slots: at most one emission per pending sample, node-major.
	slots := 0
	for i, ps := range pending {
		b.base[i] = slots
		b.emitN[i] = 0
		slots += len(ps)
	}
	if need := slots * b.dim; cap(b.emitMean) < need {
		b.emitMean = make([]float64, need)
		b.emitVar = make([]float64, need)
	}
	b.emitMean = b.emitMean[:slots*b.dim]
	b.emitVar = b.emitVar[:slots*b.dim]
	if cap(b.emitTime) < slots {
		b.emitTime = make([]time.Time, slots)
	}
	b.emitTime = b.emitTime[:slots]
	b.pending = pending
	b.pool.Run(len(pending))
	b.pending = nil
	var first error
	for w, err := range b.errs {
		if err != nil && first == nil {
			first = err
		}
		b.errs[w] = nil
	}
	return first
}

// mavgvecBatch is the multi-node form of mavgvec (nodes = N): input i is
// node i's vector stream, outputs mean<i> and var<i> carry its window mean
// and variance streams.
type mavgvecBatch struct {
	sm       *batchSmoother
	gather   *pendingGather
	meanOuts []*core.OutputPort
	varOuts  []*core.OutputPort
}

func (m *mavgvecBatch) init(ctx *core.InitContext, nodes, window, slide, workers int) error {
	inputs := ctx.Inputs()
	if len(inputs) != nodes {
		return fmt.Errorf("mavgvec: nodes = %d but %d inputs are wired", nodes, len(inputs))
	}
	m.sm = newBatchSmoother(nodes, window, slide, workers, 0)
	m.gather = newPendingGather(nodes)
	for i, in := range inputs {
		origin := in.Origin()
		origin.Source = "mavgvec(" + origin.Source + ")"
		meanOut, err := ctx.NewOutput(fmt.Sprintf("mean%d", i), origin)
		if err != nil {
			return err
		}
		varOut, err := ctx.NewOutput(fmt.Sprintf("var%d", i), origin)
		if err != nil {
			return err
		}
		m.meanOuts = append(m.meanOuts, meanOut)
		m.varOuts = append(m.varOuts, varOut)
	}
	return nil
}

func (m *mavgvecBatch) run(ctx *core.RunContext) error {
	total := m.gather.drain(ctx.Inputs())
	if total > 0 {
		if err := m.sm.smooth(m.gather.pending); err != nil {
			m.gather.release()
			return err
		}
		// Serial publish in node index order. Fresh Values per sample, as
		// the per-node module publishes — downstream queues retain them.
		dim := m.sm.dim
		for i := range m.gather.pending {
			for e := 0; e < m.sm.emitN[i]; e++ {
				slot := m.sm.base[i] + e
				mean := make([]float64, dim)
				copy(mean, m.sm.emitMean[slot*dim:(slot+1)*dim])
				m.meanOuts[i].Publish(core.Sample{Time: m.sm.emitTime[slot], Values: mean})
				variance := make([]float64, dim)
				copy(variance, m.sm.emitVar[slot*dim:(slot+1)*dim])
				m.varOuts[i].Publish(core.Sample{Time: m.sm.emitTime[slot], Values: variance})
			}
		}
	}
	m.gather.release()
	if ctx.Reason == core.RunFlush {
		m.sm.pool.Close()
	}
	return nil
}
