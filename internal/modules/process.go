package modules

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/asdf-project/asdf/internal/analysis"
	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/stats"
	"github.com/asdf-project/asdf/internal/telemetry"
)

// mavgvecModule computes the arithmetic mean and variance of a moving
// window of vector samples (§3.6): output0 is the window mean, output1 the
// window variance.
//
// Parameters:
//
//	window = <samples>   (required)
//	slide  = <samples>   (default 1: emit on every new sample once full)
//	nodes  = <count>     (multi-node form: one instance smooths count input
//	                      streams batched per tick; outputs mean0..N-1 and
//	                      var0..N-1 instead of output0/output1;
//	                      min(16, N) workers over 64-node blocks)
type mavgvecModule struct {
	window     *stats.VectorWindow
	windowSize int
	slide      int
	sinceEmit  int
	meanOut    *core.OutputPort
	varOut     *core.OutputPort
	in         *core.InputPort
	drained    []core.Sample // reused ReadAppend buffer, cleared after each run

	// multi is set in the multi-node (nodes =) form, which batches all
	// nodes' smoothing into one flat-matrix pass per tick (batch.go).
	multi *mavgvecBatch

	// meanScratch is the reusable intermediate for the variance pass.
	// Published mean/variance slices must stay freshly allocated: a
	// published Sample's Values live on in downstream port queues, so
	// reusing those buffers would corrupt queued samples.
	meanScratch []float64
}

func (m *mavgvecModule) Init(ctx *core.InitContext) error {
	cfg := ctx.Config()
	var err error
	if m.windowSize, err = cfg.IntParam("window", 0); err != nil {
		return err
	}
	if m.windowSize <= 0 {
		return fmt.Errorf("mavgvec: window must be positive")
	}
	if m.slide, err = cfg.IntParam("slide", 1); err != nil {
		return err
	}
	if m.slide <= 0 {
		return fmt.Errorf("mavgvec: slide must be positive")
	}
	nodes, workers, err := batchParams(cfg, "mavgvec")
	if err != nil {
		return err
	}
	if nodes > 0 {
		m.multi = &mavgvecBatch{}
		return m.multi.init(ctx, nodes, m.windowSize, m.slide, workers)
	}
	inputs := ctx.Inputs()
	if len(inputs) != 1 {
		return fmt.Errorf("mavgvec: want exactly 1 input, got %d", len(inputs))
	}
	m.in = inputs[0]
	origin := m.in.Origin()
	origin.Source = "mavgvec(" + origin.Source + ")"
	if m.meanOut, err = ctx.NewOutput("output0", origin); err != nil {
		return err
	}
	if m.varOut, err = ctx.NewOutput("output1", origin); err != nil {
		return err
	}
	return nil
}

func (m *mavgvecModule) Run(ctx *core.RunContext) error {
	if m.multi != nil {
		return m.multi.run(ctx)
	}
	m.drained = m.in.ReadAppend(m.drained[:0])
	defer clear(m.drained)
	for _, s := range m.drained {
		if m.window == nil {
			m.window = stats.NewVectorWindow(m.windowSize, len(s.Values))
			m.meanScratch = make([]float64, len(s.Values))
		}
		if err := m.window.Push(s.Values); err != nil {
			return fmt.Errorf("mavgvec: %w", err)
		}
		m.sinceEmit++
		if m.window.Full() && m.sinceEmit >= m.slide {
			m.sinceEmit = 0
			mean := m.window.MeanInto(make([]float64, m.window.Dim()))
			m.meanOut.Publish(core.Sample{Time: s.Time, Values: mean})
			variance := m.window.VarianceInto(make([]float64, m.window.Dim()), m.meanScratch)
			m.varOut.Publish(core.Sample{Time: s.Time, Values: variance})
		}
	}
	return nil
}

var _ core.Module = (*mavgvecModule)(nil)

// knnModule classifies each input vector to its nearest trained centroid
// after log scaling (§3.6; with k=1 this is the onenn instance of the
// paper's configuration). output0 carries the state index.
//
// Parameters:
//
//	model_file = <path>                 (JSON model from analysis.TrainModel)
//	sigma      = s1,s2,...              (inline alternative to model_file)
//	centroids  = c11,c12;c21,c22;...    (inline alternative)
//	nodes      = <count>                (multi-node form: one instance
//	                                     classifies count input streams as a
//	                                     batched flat matrix per tick;
//	                                     outputs output0..N-1; min(16, N)
//	                                     workers over 64-node blocks)
type knnModule struct {
	model   *analysis.Model
	in      *core.InputPort
	out     *core.OutputPort
	scratch []float64     // classify scratch: projection/scaling workspace
	drained []core.Sample // reused ReadAppend buffer, cleared after each run

	// multi is set in the multi-node (nodes =) form, which batches all
	// nodes' classification into one flat-matrix pass per tick (batch.go).
	multi *knnBatch
}

// parseKNNModel loads the instance's model from model_file or the inline
// sigma/centroids parameters.
func parseKNNModel(cfg *config.Instance) (*analysis.Model, error) {
	if path := cfg.StringParam("model_file", ""); path != "" {
		return analysis.LoadModel(path)
	}
	sigma, err := cfg.FloatListParam("sigma", nil)
	if err != nil {
		return nil, err
	}
	centStr, ok := cfg.Param("centroids")
	if sigma == nil || !ok {
		return nil, fmt.Errorf("knn: need model_file, or inline sigma and centroids")
	}
	var centroids [][]float64
	for _, row := range strings.Split(centStr, ";") {
		row = strings.TrimSpace(row)
		if row == "" {
			continue
		}
		var vec []float64
		for _, f := range strings.Split(row, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("knn: centroids: %w", err)
			}
			vec = append(vec, v)
		}
		centroids = append(centroids, vec)
	}
	model := &analysis.Model{Sigma: sigma, Centroids: centroids}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return model, nil
}

func (m *knnModule) Init(ctx *core.InitContext) error {
	cfg := ctx.Config()
	model, err := parseKNNModel(cfg)
	if err != nil {
		return err
	}
	m.model = model
	nodes, workers, err := batchParams(cfg, "knn")
	if err != nil {
		return err
	}
	if nodes > 0 {
		m.multi = &knnBatch{}
		return m.multi.init(ctx, m.model, nodes, workers)
	}
	inputs := ctx.Inputs()
	if len(inputs) != 1 {
		return fmt.Errorf("knn: want exactly 1 input, got %d", len(inputs))
	}
	m.in = inputs[0]
	origin := m.in.Origin()
	origin.Source = "knn(" + origin.Source + ")"
	origin.Metric = "state"
	m.out, err = ctx.NewOutput("output0", origin)
	return err
}

func (m *knnModule) Run(ctx *core.RunContext) error {
	if m.multi != nil {
		return m.multi.run(ctx)
	}
	m.drained = m.in.ReadAppend(m.drained[:0])
	defer clear(m.drained)
	for _, s := range m.drained {
		if need := m.model.ScratchLen(s.Values); len(m.scratch) < need {
			m.scratch = make([]float64, need)
		}
		state, err := m.model.ClassifyInto(s.Values, m.scratch)
		if err != nil {
			return fmt.Errorf("knn: %w", err)
		}
		m.out.Publish(core.NewScalar(s.Time, float64(state)))
	}
	return nil
}

var _ core.Module = (*knnModule)(nil)

// ibufferModule absorbs the rate mismatch between fast collectors and slow
// analyses (§3.7): it buffers up to size samples and forwards them in
// order, so a slow downstream module sees a batch rather than dropping
// samples from its own (shorter) input queue.
//
// Parameters:
//
//	size = <samples>   (default 10, as in the paper's Figure 3)
//
// Overflow drops are operator-visible: the running count is exported as
// asdf_ibuffer_dropped_total{instance=...} and as the IBUFFER section of
// the status report — a buffer that drops is the first sign an analysis is
// falling behind its collectors.
type ibufferModule struct {
	env       *Env
	size      int
	pending   []core.Sample // reused ReadAppend buffer, cleared after each run
	dropped   uint64
	forwarded uint64
	in        *core.InputPort
	out       *core.OutputPort

	mDropped *telemetry.Counter
}

func (m *ibufferModule) Init(ctx *core.InitContext) error {
	var err error
	if m.size, err = ctx.Config().IntParam("size", 10); err != nil {
		return err
	}
	if m.size <= 0 {
		return fmt.Errorf("ibuffer: size must be positive")
	}
	inputs := ctx.Inputs()
	if len(inputs) != 1 {
		return fmt.Errorf("ibuffer: want exactly 1 input, got %d", len(inputs))
	}
	if m.env != nil && m.env.Metrics != nil {
		m.mDropped = m.env.Metrics.Counter("asdf_ibuffer_dropped_total",
			"Samples dropped by ibuffer overflow.", telemetry.L("instance", ctx.ID()))
	}
	m.in = inputs[0]
	m.out, err = ctx.NewOutput("output0", m.in.Origin())
	return err
}

func (m *ibufferModule) Run(ctx *core.RunContext) error {
	m.pending = m.in.ReadAppend(m.pending[:0])
	keep := m.pending
	if over := len(keep) - m.size; over > 0 {
		// Overflow: only the newest size samples are forwarded.
		keep = keep[over:]
		m.dropped += uint64(over)
		m.mDropped.Add(uint64(over))
	}
	for _, s := range keep {
		m.out.Publish(s)
	}
	m.forwarded += uint64(len(keep))
	clear(m.pending)
	return nil
}

// IbufferStatus reports the module's drop accounting (DropReporter).
func (m *ibufferModule) IbufferStatus() IbufferStatus {
	return IbufferStatus{Size: m.size, Dropped: m.dropped, Forwarded: m.forwarded}
}

var _ core.Module = (*ibufferModule)(nil)
var _ DropReporter = (*ibufferModule)(nil)
