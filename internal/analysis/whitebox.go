package analysis

import (
	"fmt"
	"math"

	"github.com/asdf-project/asdf/internal/stats"
)

// WhiteBoxConfig parameterizes the white-box fingerpointer (§4.4).
type WhiteBoxConfig struct {
	// Nodes is the number of peer slave nodes.
	Nodes int
	// Metrics is the dimension of each node's state vector.
	Metrics int
	// WindowSize is the number of per-second samples per window (60 in
	// the paper).
	WindowSize int
	// WindowSlide defaults to WindowSize (non-overlapping) when zero.
	WindowSlide int
	// K scales the threshold max(1, K*sigma_median) (swept 0..5 in
	// Figure 6(b); the paper picks 3).
	K float64
}

// WhiteBox implements the white-box analysis: for each state metric, each
// node's window mean is compared against the median of the means across
// nodes; the node is flagged when the difference exceeds
// max(1, K*sigma_median), where sigma_median is the median across nodes of
// the per-node window standard deviation. The max(1, ...) floor protects
// against the common case of a metric that is constant on most nodes
// (zero sigma) and differs by as little as 1 on one node (§4.4).
type WhiteBox struct {
	cfg WhiteBoxConfig
	// ring is the window, node-major: node n's metric m at window slot i is
	// ring[(n*WindowSize+i)*Metrics+m], so one node's whole window is one
	// contiguous run and evaluate streams it once.
	ring        []float64
	filled      int
	next        int
	samples     int
	sinceWindow int

	// pooled per-evaluation buffers: a new evaluation fires every
	// WindowSlide samples, so the per-node mean/sd matrices and the median
	// scratch are reused rather than reallocated each time. Only the
	// returned WindowResult (which escapes to the caller) is fresh.
	means      []float64 // [n*Metrics+m] window means
	sds        []float64 // [n*Metrics+m] window standard deviations
	medScratch []float64 // Nodes; one metric's column, permuted by quickselect
}

// NewWhiteBox creates the analyzer.
func NewWhiteBox(cfg WhiteBoxConfig) (*WhiteBox, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("analysis: whitebox: Nodes must be positive")
	}
	if cfg.Metrics <= 0 {
		return nil, fmt.Errorf("analysis: whitebox: Metrics must be positive")
	}
	if cfg.WindowSize <= 0 {
		return nil, fmt.Errorf("analysis: whitebox: WindowSize must be positive")
	}
	if cfg.WindowSlide <= 0 {
		cfg.WindowSlide = cfg.WindowSize
	}
	if cfg.WindowSlide > cfg.WindowSize {
		return nil, fmt.Errorf("analysis: whitebox: WindowSlide %d exceeds WindowSize %d",
			cfg.WindowSlide, cfg.WindowSize)
	}
	if cfg.K < 0 {
		return nil, fmt.Errorf("analysis: whitebox: K must be non-negative")
	}
	return &WhiteBox{
		cfg:        cfg,
		ring:       make([]float64, cfg.Nodes*cfg.WindowSize*cfg.Metrics),
		means:      make([]float64, cfg.Nodes*cfg.Metrics),
		sds:        make([]float64, cfg.Nodes*cfg.Metrics),
		medScratch: make([]float64, cfg.Nodes),
	}, nil
}

// Config returns the analyzer's configuration.
func (w *WhiteBox) Config() WhiteBoxConfig { return w.cfg }

// Observe records one per-second round of state vectors (vectors[n] is
// node n's white-box metric vector) and returns a WindowResult when a
// window completes, nil otherwise.
func (w *WhiteBox) Observe(vectors [][]float64) (*WindowResult, error) {
	if len(vectors) != w.cfg.Nodes {
		return nil, fmt.Errorf("analysis: whitebox: got %d vectors, want %d", len(vectors), w.cfg.Nodes)
	}
	M, stride := w.cfg.Metrics, w.cfg.WindowSize*w.cfg.Metrics
	for n, v := range vectors {
		if len(v) != M {
			return nil, fmt.Errorf("analysis: whitebox: node %d vector has %d metrics, want %d",
				n, len(v), M)
		}
		copy(w.ring[n*stride+w.next*M:], v)
	}
	w.next = (w.next + 1) % w.cfg.WindowSize
	if w.filled < w.cfg.WindowSize {
		w.filled++
	}
	w.samples++
	w.sinceWindow++
	if w.filled < w.cfg.WindowSize || w.sinceWindow < w.cfg.WindowSlide {
		return nil, nil
	}
	w.sinceWindow = 0
	return w.evaluate(), nil
}

// evaluate runs the peer comparison over the current full window.
func (w *WhiteBox) evaluate() *WindowResult {
	res := &WindowResult{
		EndIndex: w.samples - 1,
		Scores:   make([]float64, w.cfg.Nodes),
		Flagged:  make([]bool, w.cfg.Nodes),
	}
	w.windowStats()
	N, M := w.cfg.Nodes, w.cfg.Metrics
	for m := 0; m < M; m++ {
		medianMean := w.columnMedian(w.means, m)
		sigmaMedian := w.columnMedian(w.sds, m)
		threshold := math.Max(1, w.cfg.K*sigmaMedian)
		for n := 0; n < N; n++ {
			dev := math.Abs(w.means[n*M+m] - medianMean)
			// Score in threshold units, maximized over metrics.
			if score := dev / threshold; score > res.Scores[n] {
				res.Scores[n] = score
			}
			if dev > threshold {
				res.Flagged[n] = true
			}
		}
	}
	return res
}

// windowStats fills means and sds in one pass over each node's window, one
// Welford accumulator per metric (independent division chains the CPU can
// overlap). Each accumulator is fed in ring slot order, not time order:
// Welford's rounding depends on the order of its inputs, and slot 0 to
// WindowSize-1 is the order of the plain per-metric triple loop (the oracle
// in analysis_test.go), so every mean and sigma equals that loop's bit for
// bit.
func (w *WhiteBox) windowStats() {
	M := w.cfg.Metrics
	stride := w.cfg.WindowSize * M
	acc := make([]stats.Welford, M)
	for n := 0; n < w.cfg.Nodes; n++ {
		clear(acc)
		window := w.ring[n*stride : (n+1)*stride]
		for len(window) > 0 {
			for m, x := range window[:M] {
				acc[m].Add(x)
			}
			window = window[M:]
		}
		for m := range acc {
			w.means[n*M+m] = acc[m].Mean()
			w.sds[n*M+m] = acc[m].StdDev()
		}
	}
}

// columnMedian computes the median across nodes of metric m in a
// [n*Metrics+m] matrix by quickselect over the pooled scratch; bit-identical
// to the sort-based stats.MustMedian.
func (w *WhiteBox) columnMedian(mat []float64, m int) float64 {
	for n := range w.medScratch {
		w.medScratch[n] = mat[n*w.cfg.Metrics+m]
	}
	med, err := stats.QuickMedianInPlace(w.medScratch)
	if err != nil {
		// Unreachable: Nodes is validated positive by the constructor.
		panic(err)
	}
	return med
}

// Combine merges black-box and white-box verdicts for the same window by
// union: a node is flagged when either approach flags it (the paper's
// "combined" analysis, §4.9).
func Combine(a, b *WindowResult) (*WindowResult, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("analysis: Combine requires two results")
	}
	if len(a.Flagged) != len(b.Flagged) {
		return nil, fmt.Errorf("analysis: Combine node counts differ: %d vs %d",
			len(a.Flagged), len(b.Flagged))
	}
	out := &WindowResult{
		EndIndex: a.EndIndex,
		Scores:   make([]float64, len(a.Scores)),
		Flagged:  make([]bool, len(a.Flagged)),
	}
	for i := range a.Flagged {
		out.Flagged[i] = a.Flagged[i] || b.Flagged[i]
		out.Scores[i] = math.Max(a.Scores[i], b.Scores[i])
	}
	return out, nil
}
