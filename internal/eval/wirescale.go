package eval

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"github.com/asdf-project/asdf/internal/rpc"
)

// WireScaleConfig sizes the wire-format measurement: per-node metric
// vectors that drift sparsely between ticks — the steady-state shape of OS
// counter collection — serialized per tick over the JSON request/response
// path and over the columnar delta stream. The measurement is codec-level
// (no sockets), so it isolates bytes-on-the-wire and serialization cost
// from scheduling.
type WireScaleConfig struct {
	// NodeCounts are the simulated cluster sizes to measure.
	NodeCounts []int
	// Columns is the per-node metric vector width (sadc's node group is 64).
	Columns int
	// ChangedPerTick is how many of those columns drift each tick; the rest
	// repeat their previous value, as most OS counters do at steady state.
	ChangedPerTick int
	// Ticks is how many collection ticks to serialize per configuration.
	Ticks int
	// Seed drives the deterministic metric walk.
	Seed int64
}

// DefaultWireScaleConfig mirrors the CI wire suite: 128 to 1024 nodes, the
// sadc node-vector width, ~10% of columns moving per tick.
func DefaultWireScaleConfig() WireScaleConfig {
	return WireScaleConfig{
		NodeCounts:     []int{128, 512, 1024},
		Columns:        64,
		ChangedPerTick: 6,
		Ticks:          200,
		Seed:           42,
	}
}

// WireScalePoint is one measured (nodes, wire) cell.
type WireScalePoint struct {
	Nodes int    `json:"nodes"`
	Wire  string `json:"wire"`
	// BytesPerTick is the full-cluster wire cost of one collection tick:
	// request and response bodies plus the 4-byte frame headers.
	BytesPerTick float64 `json:"bytes_per_tick"`
	// NsPerMetric is the serialize+deserialize cost per metric value.
	NsPerMetric float64 `json:"ns_per_metric"`
	// ReductionVsJSON is the JSON cell's bytes-per-tick over this cell's;
	// 1.0 for the JSON cells themselves.
	ReductionVsJSON float64 `json:"reduction_vs_json"`
}

// wireWorkload generates the deterministic per-node metric walk both
// formats serialize, so the comparison sees identical data.
type wireWorkload struct {
	vals    [][]float64
	rng     *rand.Rand
	changed int
}

func newWireWorkload(nodes, cols, changed int, seed int64) *wireWorkload {
	w := &wireWorkload{
		vals:    make([][]float64, nodes),
		rng:     rand.New(rand.NewSource(seed)),
		changed: changed,
	}
	for i := range w.vals {
		v := make([]float64, cols)
		for j := range v {
			v[j] = w.rng.Float64() * 1000
		}
		w.vals[i] = v
	}
	return w
}

// tick drifts each node's vector in place.
func (w *wireWorkload) tick() {
	for _, v := range w.vals {
		for c := 0; c < w.changed; c++ {
			j := w.rng.Intn(len(v))
			v[j] += w.rng.Float64() - 0.5
		}
	}
}

// Wire shapes of the JSON measurement, mirroring the production sadc
// request/response envelopes.
type wireScaleRequest struct {
	ID     uint64 `json:"id"`
	Method string `json:"method"`
}

type wireScaleRecord struct {
	Warmup bool      `json:"warmup,omitempty"`
	Node   []float64 `json:"node"`
}

type wireScaleResponse struct {
	ID     uint64          `json:"id"`
	Result wireScaleRecord `json:"result"`
}

type wireScalePullParams struct {
	S uint64 `json:"s"`
}

type wireScalePullRequest struct {
	ID     uint64              `json:"id"`
	Method string              `json:"method"`
	Params wireScalePullParams `json:"params"`
}

// MeasureWireScaling serializes cfg.Ticks collection ticks at each node
// count over both wire formats and reports bytes per tick and
// serialization cost per metric, JSON cell first.
func MeasureWireScaling(cfg WireScaleConfig) ([]WireScalePoint, error) {
	if cfg.Ticks <= 0 || cfg.Columns <= 0 {
		return nil, fmt.Errorf("wirescale: ticks and columns must be positive")
	}
	if cfg.ChangedPerTick > cfg.Columns {
		return nil, fmt.Errorf("wirescale: changed-per-tick %d exceeds %d columns", cfg.ChangedPerTick, cfg.Columns)
	}
	var points []WireScalePoint
	for _, nodes := range cfg.NodeCounts {
		jsonBytes, jsonNs, err := measureJSONWire(nodes, cfg)
		if err != nil {
			return nil, err
		}
		colBytes, colNs, err := measureColumnarWire(nodes, cfg)
		if err != nil {
			return nil, err
		}
		metrics := float64(cfg.Ticks) * float64(nodes) * float64(cfg.Columns)
		reduction := 0.0
		if colBytes > 0 {
			reduction = float64(jsonBytes) / float64(colBytes)
		}
		points = append(points,
			WireScalePoint{Nodes: nodes, Wire: "json",
				BytesPerTick:    float64(jsonBytes) / float64(cfg.Ticks),
				NsPerMetric:     float64(jsonNs.Nanoseconds()) / metrics,
				ReductionVsJSON: 1},
			WireScalePoint{Nodes: nodes, Wire: "columnar",
				BytesPerTick:    float64(colBytes) / float64(cfg.Ticks),
				NsPerMetric:     float64(colNs.Nanoseconds()) / metrics,
				ReductionVsJSON: reduction})
	}
	return points, nil
}

// measureJSONWire round-trips every node's vector through the JSON
// request/response envelopes once per tick.
func measureJSONWire(nodes int, cfg WireScaleConfig) (bytes int64, elapsed time.Duration, err error) {
	w := newWireWorkload(nodes, cfg.Columns, cfg.ChangedPerTick, cfg.Seed)
	var req wireScaleRequest
	var resp wireScaleResponse
	start := time.Now()
	for t := 0; t < cfg.Ticks; t++ {
		w.tick()
		for n := 0; n < nodes; n++ {
			reqBody, merr := json.Marshal(wireScaleRequest{ID: uint64(t + 1), Method: "sadc.collect"})
			if merr != nil {
				return 0, 0, merr
			}
			respBody, merr := json.Marshal(wireScaleResponse{ID: uint64(t + 1),
				Result: wireScaleRecord{Node: w.vals[n]}})
			if merr != nil {
				return 0, 0, merr
			}
			if uerr := json.Unmarshal(reqBody, &req); uerr != nil {
				return 0, 0, uerr
			}
			resp.Result.Node = resp.Result.Node[:0]
			if uerr := json.Unmarshal(respBody, &resp); uerr != nil {
				return 0, 0, uerr
			}
			bytes += int64(4 + len(reqBody) + 4 + len(respBody))
		}
	}
	return bytes, time.Since(start), nil
}

// measureColumnarWire pulls every node's delta frame once per tick through
// a per-node encoder/decoder pair, the per-connection state of the stream
// protocol.
func measureColumnarWire(nodes int, cfg WireScaleConfig) (bytes int64, elapsed time.Duration, err error) {
	w := newWireWorkload(nodes, cfg.Columns, cfg.ChangedPerTick, cfg.Seed)
	cols := make([]string, cfg.Columns)
	for i := range cols {
		cols[i] = fmt.Sprintf("metric_%02d", i)
	}
	encs := make([]*rpc.ColumnarEncoder, nodes)
	decs := make([]*rpc.ColumnarDecoder, nodes)
	for n := range encs {
		encs[n] = rpc.NewColumnarEncoder(rpc.StreamSchema{
			Method: "sadc.metrics",
			Node:   fmt.Sprintf("n%04d", n),
			Groups: []rpc.ColumnGroup{{Name: "node", Columns: cols}},
		})
		decs[n] = rpc.NewColumnarDecoder()
	}
	start := time.Now()
	for t := 0; t < cfg.Ticks; t++ {
		w.tick()
		for n := 0; n < nodes; n++ {
			reqBody, merr := json.Marshal(wireScalePullRequest{ID: uint64(t + 1),
				Method: "rpc.stream.pull", Params: wireScalePullParams{S: 1}})
			if merr != nil {
				return 0, 0, merr
			}
			encs[n].Begin()
			if aerr := encs[n].AppendRow(int64(t+1)*int64(time.Second), false, nil, w.vals[n]); aerr != nil {
				return 0, 0, aerr
			}
			frame := encs[n].Finish()
			if derr := decs[n].Decode(frame); derr != nil {
				return 0, 0, derr
			}
			if rows := decs[n].Rows(); len(rows) != 1 {
				return 0, 0, fmt.Errorf("wirescale: %d rows decoded, want 1", len(rows))
			}
			bytes += int64(4 + len(reqBody) + 4 + len(frame))
		}
	}
	return bytes, time.Since(start), nil
}
