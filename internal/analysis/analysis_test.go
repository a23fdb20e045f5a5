package analysis

import (
	"math"
	"math/rand"
	"testing"

	"github.com/asdf-project/asdf/internal/stats"
)

func TestTrainScalerAndApply(t *testing.T) {
	points := [][]float64{
		{0, 100},
		{math.E - 1, 200},
		{math.E*math.E - 1, 300},
	}
	s, err := TrainScaler(points)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Sigma) != 2 {
		t.Fatalf("Sigma = %v", s.Sigma)
	}
	// log1p of column 0 is {0, 1, 2} -> population sd = sqrt(2/3).
	want := math.Sqrt(2.0 / 3.0)
	if math.Abs(s.Sigma[0]-want) > 1e-9 {
		t.Errorf("Sigma[0] = %v, want %v", s.Sigma[0], want)
	}
	out, err := s.Apply([]float64{math.E - 1, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-1/want) > 1e-9 {
		t.Errorf("Apply = %v", out)
	}
	batch, err := s.ApplyAll(points)
	if err != nil || len(batch) != 3 {
		t.Errorf("ApplyAll = %v, %v", batch, err)
	}
}

func TestTrainScalerErrors(t *testing.T) {
	if _, err := TrainScaler(nil); err == nil {
		t.Error("empty training set should error")
	}
	if _, err := TrainScaler([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged training set should error")
	}
}

func TestKMeansSeparatesObviousClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var points [][]float64
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	for i := 0; i < 300; i++ {
		c := centers[i%3]
		points = append(points, []float64{
			c[0] + rng.NormFloat64()*0.5,
			c[1] + rng.NormFloat64()*0.5,
		})
	}
	got, err := KMeans(points, 3, 7, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d centroids", len(got))
	}
	// Every true center should have a learned centroid within 1.0.
	for _, c := range centers {
		best := math.Inf(1)
		for _, g := range got {
			d := math.Hypot(g[0]-c[0], g[1]-c[1])
			if d < best {
				best = d
			}
		}
		if best > 1.0 {
			t.Errorf("no centroid near %v (closest at distance %v)", c, best)
		}
	}
}

func TestKMeansDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var points [][]float64
	for i := 0; i < 100; i++ {
		points = append(points, []float64{rng.Float64() * 100, rng.Float64() * 100})
	}
	a, err := KMeans(points, 5, 42, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(points, 5, 42, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				t.Fatalf("same seed diverged at centroid %d dim %d", i, d)
			}
		}
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if _, err := KMeans(nil, 3, 1, 10); err == nil {
		t.Error("no points should error")
	}
	if _, err := KMeans([][]float64{{1}}, 0, 1, 10); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := KMeans([][]float64{{1}, {1, 2}}, 1, 1, 10); err == nil {
		t.Error("ragged points should error")
	}
	// k > len(points) clamps.
	got, err := KMeans([][]float64{{1, 1}, {2, 2}}, 10, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("got %d centroids, want clamped 2", len(got))
	}
	// Identical points converge without dividing by zero.
	same := [][]float64{{5, 5}, {5, 5}, {5, 5}}
	got, err = KMeans(same, 2, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range got {
		if c[0] != 5 || c[1] != 5 {
			t.Errorf("centroid = %v, want (5,5)", c)
		}
	}
}

func TestNearestCentroid(t *testing.T) {
	cents := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	idx, err := NearestCentroid([]float64{7, 1}, cents)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Errorf("NearestCentroid = %d, want 1", idx)
	}
	if _, err := NearestCentroid([]float64{1}, cents); err == nil {
		t.Error("dimension mismatch should error")
	}
	if _, err := NearestCentroid([]float64{1}, nil); err == nil {
		t.Error("no centroids should error")
	}
}

func TestBlackBoxFlagsDivergentNode(t *testing.T) {
	bb, err := NewBlackBox(BlackBoxConfig{
		Nodes: 5, NumStates: 3, WindowSize: 10, Threshold: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var res *WindowResult
	for i := 0; i < 10; i++ {
		// Nodes 0-3 cycle between states 0 and 1; node 4 is stuck in 2.
		s := i % 2
		states := []int{s, s, s, s, 2}
		r, err := bb.Observe(states)
		if err != nil {
			t.Fatal(err)
		}
		if r != nil {
			res = r
		}
	}
	if res == nil {
		t.Fatal("no window produced after WindowSize samples")
	}
	for n := 0; n < 4; n++ {
		if res.Flagged[n] {
			t.Errorf("healthy node %d flagged (score %v)", n, res.Scores[n])
		}
	}
	if !res.Flagged[4] {
		t.Errorf("divergent node not flagged (score %v)", res.Scores[4])
	}
	// Node 4's StateVector is (0,0,10) vs median (5,5,0): L1 = 20.
	if res.Scores[4] != 20 {
		t.Errorf("score = %v, want 20", res.Scores[4])
	}
	if !res.AnyFlagged() {
		t.Error("AnyFlagged should be true")
	}
}

func TestBlackBoxNoFalsePositiveWhenHomogeneous(t *testing.T) {
	bb, err := NewBlackBox(BlackBoxConfig{
		Nodes: 4, NumStates: 4, WindowSize: 20, Threshold: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		// All nodes draw from the same distribution.
		states := make([]int, 4)
		base := rng.Intn(4)
		for n := range states {
			states[n] = base
			if rng.Float64() < 0.2 {
				states[n] = rng.Intn(4)
			}
		}
		r, err := bb.Observe(states)
		if err != nil {
			t.Fatal(err)
		}
		if r != nil && r.AnyFlagged() {
			t.Errorf("false positive: %v", r.Scores)
		}
	}
}

func TestBlackBoxWindowSlide(t *testing.T) {
	bb, err := NewBlackBox(BlackBoxConfig{
		Nodes: 2, NumStates: 2, WindowSize: 10, WindowSlide: 5, Threshold: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	var windows []int
	for i := 0; i < 30; i++ {
		r, err := bb.Observe([]int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if r != nil {
			windows = append(windows, r.EndIndex)
		}
	}
	// Windows complete at samples 10, 15, 20, 25, 30 -> EndIndex 9,14,19,24,29.
	want := []int{9, 14, 19, 24, 29}
	if len(windows) != len(want) {
		t.Fatalf("windows at %v, want %v", windows, want)
	}
	for i := range want {
		if windows[i] != want[i] {
			t.Errorf("window %d ends at %d, want %d", i, windows[i], want[i])
		}
	}
}

func TestBlackBoxValidation(t *testing.T) {
	if _, err := NewBlackBox(BlackBoxConfig{Nodes: 0, NumStates: 1, WindowSize: 1}); err == nil {
		t.Error("zero nodes should error")
	}
	if _, err := NewBlackBox(BlackBoxConfig{Nodes: 1, NumStates: 1, WindowSize: 5, WindowSlide: 6}); err == nil {
		t.Error("slide > size should error")
	}
	bb, err := NewBlackBox(BlackBoxConfig{Nodes: 2, NumStates: 2, WindowSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bb.Observe([]int{0}); err == nil {
		t.Error("wrong node count should error")
	}
	if _, err := bb.Observe([]int{0, 5}); err == nil {
		t.Error("out-of-range state should error")
	}
}

func TestWhiteBoxFlagsDeviantMean(t *testing.T) {
	wb, err := NewWhiteBox(WhiteBoxConfig{
		Nodes: 5, Metrics: 2, WindowSize: 10, K: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var res *WindowResult
	for i := 0; i < 10; i++ {
		vectors := make([][]float64, 5)
		for n := range vectors {
			base := 4 + rng.NormFloat64()*0.3
			vectors[n] = []float64{base, 2}
		}
		// Node 2's MapTask count is way off (e.g. hung maps piling up).
		vectors[2][0] = 12
		r, err := wb.Observe(vectors)
		if err != nil {
			t.Fatal(err)
		}
		if r != nil {
			res = r
		}
	}
	if res == nil {
		t.Fatal("no window produced")
	}
	if !res.Flagged[2] {
		t.Errorf("deviant node not flagged: scores %v", res.Scores)
	}
	for _, n := range []int{0, 1, 3, 4} {
		if res.Flagged[n] {
			t.Errorf("healthy node %d flagged: scores %v", n, res.Scores)
		}
	}
}

// TestWhiteBoxConstantMetricFloor exercises the max(1, k*sigma) rationale
// from §4.4: a metric constant on most nodes (sigma_median = 0) that varies
// by exactly 1 on one node must NOT be flagged.
func TestWhiteBoxConstantMetricFloor(t *testing.T) {
	wb, err := NewWhiteBox(WhiteBoxConfig{
		Nodes: 5, Metrics: 1, WindowSize: 4, K: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var res *WindowResult
	for i := 0; i < 4; i++ {
		vectors := [][]float64{{2}, {2}, {2}, {2}, {3}} // node 4 differs by 1
		r, err := wb.Observe(vectors)
		if err != nil {
			t.Fatal(err)
		}
		if r != nil {
			res = r
		}
	}
	if res == nil {
		t.Fatal("no window")
	}
	if res.Flagged[4] {
		t.Error("difference of exactly 1 on a constant metric must not be flagged (threshold floor)")
	}
	// But a difference of 3 must be.
	wb2, err := NewWhiteBox(WhiteBoxConfig{Nodes: 5, Metrics: 1, WindowSize: 4, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		vectors := [][]float64{{2}, {2}, {2}, {2}, {5}}
		r, err := wb2.Observe(vectors)
		if err != nil {
			t.Fatal(err)
		}
		if r != nil {
			res = r
		}
	}
	if !res.Flagged[4] {
		t.Error("difference of 3 on a constant metric should be flagged")
	}
}

func TestWhiteBoxValidation(t *testing.T) {
	if _, err := NewWhiteBox(WhiteBoxConfig{Nodes: 1, Metrics: 0, WindowSize: 1}); err == nil {
		t.Error("zero metrics should error")
	}
	if _, err := NewWhiteBox(WhiteBoxConfig{Nodes: 1, Metrics: 1, WindowSize: 1, K: -1}); err == nil {
		t.Error("negative K should error")
	}
	wb, err := NewWhiteBox(WhiteBoxConfig{Nodes: 2, Metrics: 2, WindowSize: 2, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wb.Observe([][]float64{{1, 2}}); err == nil {
		t.Error("wrong node count should error")
	}
	if _, err := wb.Observe([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("wrong metric count should error")
	}
}

func TestCombine(t *testing.T) {
	a := &WindowResult{EndIndex: 9, Scores: []float64{1, 5}, Flagged: []bool{false, true}}
	b := &WindowResult{EndIndex: 9, Scores: []float64{3, 2}, Flagged: []bool{true, false}}
	c, err := Combine(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Flagged[0] || !c.Flagged[1] {
		t.Errorf("Combine flags = %v, want both true", c.Flagged)
	}
	if c.Scores[0] != 3 || c.Scores[1] != 5 {
		t.Errorf("Combine scores = %v", c.Scores)
	}
	if _, err := Combine(a, nil); err == nil {
		t.Error("nil result should error")
	}
	if _, err := Combine(a, &WindowResult{Flagged: []bool{true}}); err == nil {
		t.Error("mismatched node counts should error")
	}
}

// oracleWhiteBox is §4.4 as the plain triple loop: a nested ring indexed
// [slot][node][metric] and, per window, metric by metric, node by node, one
// Welford accumulator fed slot 0 to WindowSize-1. WhiteBox must equal it bit
// for bit whatever its ring layout or pass order.
type oracleWhiteBox struct {
	cfg                          WhiteBoxConfig
	ring                         [][][]float64
	next, filled, samples, since int
}

func newOracleWhiteBox(cfg WhiteBoxConfig) *oracleWhiteBox {
	o := &oracleWhiteBox{cfg: cfg, ring: make([][][]float64, cfg.WindowSize)}
	for i := range o.ring {
		o.ring[i] = make([][]float64, cfg.Nodes)
		for n := range o.ring[i] {
			o.ring[i][n] = make([]float64, cfg.Metrics)
		}
	}
	return o
}

func (o *oracleWhiteBox) observe(vectors [][]float64) *WindowResult {
	for n, v := range vectors {
		copy(o.ring[o.next][n], v)
	}
	o.next = (o.next + 1) % o.cfg.WindowSize
	if o.filled < o.cfg.WindowSize {
		o.filled++
	}
	o.samples++
	o.since++
	if o.filled < o.cfg.WindowSize || o.since < o.cfg.WindowSlide {
		return nil
	}
	o.since = 0
	res := &WindowResult{
		EndIndex: o.samples - 1,
		Scores:   make([]float64, o.cfg.Nodes),
		Flagged:  make([]bool, o.cfg.Nodes),
	}
	means := make([]float64, o.cfg.Nodes)
	sds := make([]float64, o.cfg.Nodes)
	median := func(xs []float64) float64 {
		// The median is not what the layout changes; NaN columns have no
		// defined order, so both sides select the same way.
		m, _ := stats.QuickMedianInPlace(append([]float64(nil), xs...))
		return m
	}
	for m := 0; m < o.cfg.Metrics; m++ {
		for n := 0; n < o.cfg.Nodes; n++ {
			var acc stats.Welford
			for i := 0; i < o.cfg.WindowSize; i++ {
				acc.Add(o.ring[i][n][m])
			}
			means[n], sds[n] = acc.Mean(), acc.StdDev()
		}
		medianMean := median(means)
		threshold := math.Max(1, o.cfg.K*median(sds))
		for n := range means {
			dev := math.Abs(means[n] - medianMean)
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

// TestWhiteBoxMatchesOracle feeds the same samples — enough to wrap the ring
// three times — to WhiteBox and to the oracle, across node counts from 2 to
// fleet width, and requires bit-equal scores and equal flags at every window.
func TestWhiteBoxMatchesOracle(t *testing.T) {
	type shape struct {
		nodes, metrics, window, slide int
		nonFinite                     bool
	}
	var shapes []shape
	for _, nodes := range []int{2, 255, 256, 513, 2048} {
		for _, metrics := range []int{1, 7} {
			for _, ws := range [][2]int{{60, 15}, {5, 1}, {4, 4}} {
				shapes = append(shapes, shape{nodes, metrics, ws[0], ws[1], false})
			}
		}
	}
	shapes = append(shapes, shape{513, 7, 5, 1, true})
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}

	for _, sh := range shapes {
		cfg := WhiteBoxConfig{Nodes: sh.nodes, Metrics: sh.metrics, WindowSize: sh.window, WindowSlide: sh.slide, K: 3}
		rng := rand.New(rand.NewSource(int64(sh.nodes*1000 + sh.metrics*100 + sh.window)))
		rounds := make([][][]float64, 3*sh.window+sh.slide)
		for r := range rounds {
			rounds[r] = make([][]float64, sh.nodes)
			for n := range rounds[r] {
				v := make([]float64, sh.metrics)
				for m := range v {
					// Small integers with noise: tied columns, zero sigmas
					// and a few deviant nodes all occur.
					v[m] = float64(rng.Intn(4)) + float64(rng.Intn(3))*rng.Float64()
					if n%97 == 3 {
						v[m] += 9
					}
					if sh.nonFinite && rng.Intn(50) == 0 {
						v[m] = odd[rng.Intn(len(odd))]
					}
				}
				rounds[r][n] = v
			}
		}
		oracle := newOracleWhiteBox(cfg)
		want := make([]*WindowResult, len(rounds))
		windows, flagged := 0, 0
		for r, vectors := range rounds {
			if want[r] = oracle.observe(vectors); want[r] != nil {
				windows++
				for _, f := range want[r].Flagged {
					if f {
						flagged++
					}
				}
			}
		}
		if windows < 3 || (flagged == 0 && sh.nodes > 3) {
			t.Fatalf("%+v: oracle closed %d windows and flagged %d nodes: the comparison would be trivial", sh, windows, flagged)
		}
		wb, err := NewWhiteBox(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r, vectors := range rounds {
			got, err := wb.Observe(vectors)
			if err != nil {
				t.Fatal(err)
			}
			if (got == nil) != (want[r] == nil) {
				t.Fatalf("%+v round %d: window closed = %v, oracle %v", sh, r, got != nil, want[r] != nil)
			}
			if got == nil {
				continue
			}
			if got.EndIndex != want[r].EndIndex {
				t.Fatalf("%+v round %d: EndIndex %d, oracle %d", sh, r, got.EndIndex, want[r].EndIndex)
			}
			for n := range got.Scores {
				if math.Float64bits(got.Scores[n]) != math.Float64bits(want[r].Scores[n]) || got.Flagged[n] != want[r].Flagged[n] {
					t.Fatalf("%+v round %d node %d: score %v flagged %v, oracle %v %v",
						sh, r, n, got.Scores[n], got.Flagged[n], want[r].Scores[n], want[r].Flagged[n])
				}
			}
		}
	}
}
