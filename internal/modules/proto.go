package modules

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/procfs"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/sadc"
)

// RPC method names served by the per-node collection daemons (§3.1: each
// data-collection module abc has an abc_rpcd counterpart on the remote
// node).
const (
	// MethodSadcCollect returns one sadc.Record.
	MethodSadcCollect = "sadc.collect"
	// MethodSadcNode returns only the node-level vector — the metric-group
	// methods below exist for rpc.Batch clients, which fetch exactly the
	// groups they publish instead of the full Record per tick.
	MethodSadcNode = "sadc.node"
	// MethodSadcNet returns per-interface vectors for the requested ifaces.
	MethodSadcNet = "sadc.net"
	// MethodSadcProc returns per-process vectors for the requested pids.
	MethodSadcProc = "sadc.proc"
	// MethodHadoopLogVectors returns newly finalized state vectors.
	MethodHadoopLogVectors = "hadoop_log.vectors"
)

// Service names announced in the RPC hello.
const (
	ServiceSadc      = "sadc_rpcd"
	ServiceHadoopLog = "hadoop_log_rpcd"
)

// stateVectorWire is the JSON encoding of a hadooplog.StateVector.
type stateVectorWire struct {
	Time   time.Time `json:"t"`
	Counts []float64 `json:"c"`
}

// vectorsRequest selects which daemon log to read.
type vectorsRequest struct {
	Kind string `json:"kind"` // "tasktracker" or "datanode"
}

// vectorsResponse carries newly finalized per-second vectors.
type vectorsResponse struct {
	Vectors []stateVectorWire `json:"vectors"`
}

// nodeMetricsResponse is the sadc.node reply: the node-level vector only.
type nodeMetricsResponse struct {
	Warmup bool      `json:"warmup,omitempty"`
	Node   []float64 `json:"node,omitempty"`
}

// netMetricsRequest selects the interfaces sadc.net should report.
type netMetricsRequest struct {
	Ifaces []string `json:"ifaces"`
}

// netMetricsResponse carries per-interface vectors for the requested
// interfaces (absent interfaces are simply missing from the map).
type netMetricsResponse struct {
	Warmup bool                 `json:"warmup,omitempty"`
	Net    map[string][]float64 `json:"net,omitempty"`
}

// procMetricsRequest selects the pids sadc.proc should report.
type procMetricsRequest struct {
	Pids []int `json:"pids"`
}

// procMetricsResponse carries per-process vectors for the requested pids.
type procMetricsResponse struct {
	Warmup bool              `json:"warmup,omitempty"`
	Proc   map[int][]float64 `json:"proc,omitempty"`
}

// RegisterSadcServer exposes a sadc collector for one node over RPC.
// Collection state (the previous snapshot for rate conversion) lives in the
// daemon, as with the paper's sadc_rpcd. Besides the full-record
// sadc.collect, the server offers per-metric-group methods (sadc.node,
// sadc.net, sadc.proc) sized for batched clients: each group is backed by
// its own collector — so each method's rates are computed against its own
// previous snapshot and stay self-consistent whatever subset a client
// batches — which computes that group alone, and each reply carries only
// the vectors the client asked for, instead of every interface and process
// on the node.
//
// The server also offers the columnar stream counterpart (sadc.metrics) for
// wire = columnar clients; each stream open gets its own collector, so its
// rate baseline is as isolated as the per-group collectors below.
func RegisterSadcServer(srv *rpc.Server, provider procfs.Provider) {
	registerSadcStream(srv, provider)
	registerSadcJSON(srv, provider)
}

// registerSadcJSON registers the JSON request/response methods alone — the
// full surface of a pre-columnar daemon, which tests use to prove the
// client-side fallback.
func registerSadcJSON(srv *rpc.Server, provider procfs.Provider) {
	collector := sadc.NewCollector(provider)
	srv.Handle(MethodSadcCollect, func(json.RawMessage) (any, error) {
		return collector.Collect()
	})
	nodeC := sadc.NewGroupCollector(provider, sadc.Groups{Node: true})
	srv.Handle(MethodSadcNode, func(json.RawMessage) (any, error) {
		rec, err := nodeC.Collect()
		if err != nil {
			return nil, err
		}
		return nodeMetricsResponse{Warmup: rec.Warmup, Node: rec.Node}, nil
	})
	netC := sadc.NewGroupCollector(provider, sadc.Groups{AllIfaces: true})
	srv.Handle(MethodSadcNet, func(params json.RawMessage) (any, error) {
		var req netMetricsRequest
		if err := json.Unmarshal(params, &req); err != nil {
			return nil, err
		}
		rec, err := netC.Collect()
		if err != nil {
			return nil, err
		}
		resp := netMetricsResponse{Warmup: rec.Warmup}
		for _, iface := range req.Ifaces {
			if v, ok := rec.Net[iface]; ok {
				if resp.Net == nil {
					resp.Net = make(map[string][]float64, len(req.Ifaces))
				}
				resp.Net[iface] = v
			}
		}
		return resp, nil
	})
	procC := sadc.NewGroupCollector(provider, sadc.Groups{AllPids: true})
	srv.Handle(MethodSadcProc, func(params json.RawMessage) (any, error) {
		var req procMetricsRequest
		if err := json.Unmarshal(params, &req); err != nil {
			return nil, err
		}
		rec, err := procC.Collect()
		if err != nil {
			return nil, err
		}
		resp := procMetricsResponse{Warmup: rec.Warmup}
		for _, pid := range req.Pids {
			if v, ok := rec.Proc[pid]; ok {
				if resp.Proc == nil {
					resp.Proc = make(map[int][]float64, len(req.Pids))
				}
				resp.Proc[pid] = v
			}
		}
		return resp, nil
	})
}

// LogSource yields newly finalized state vectors from one node's log of one
// kind. Implementations exist for local buffers and for remote daemons.
type LogSource interface {
	Fetch(now time.Time) ([]hadooplog.StateVector, error)
}

// bufferLogSource parses a hadooplog.Buffer incrementally.
type bufferLogSource struct {
	buf    *hadooplog.Buffer
	parser *hadooplog.Parser
	cursor uint64
}

// NewBufferLogSource creates a LogSource reading from an in-process log
// buffer (local collection mode, and the guts of hadoop_log_rpcd).
func NewBufferLogSource(kind hadooplog.Kind, buf *hadooplog.Buffer) LogSource {
	return &bufferLogSource{buf: buf, parser: hadooplog.NewParser(kind)}
}

func (s *bufferLogSource) Fetch(now time.Time) ([]hadooplog.StateVector, error) {
	lines, next := s.buf.ReadFrom(s.cursor)
	s.cursor = next
	for _, l := range lines {
		if err := s.parser.ParseLine(l); err != nil {
			return nil, err
		}
	}
	s.parser.Flush(now)
	return s.parser.Drain(), nil
}

// RegisterHadoopLogServer exposes the node's TaskTracker and DataNode log
// parsers over RPC. now supplies the flush horizon (virtual time in
// simulation, wall clock in deployment).
func RegisterHadoopLogServer(srv *rpc.Server, tt, dn *hadooplog.Buffer, now func() time.Time) {
	registerHadoopLogStream(srv, tt, dn, now)
	registerHadoopLogJSON(srv, tt, dn, now)
}

// registerHadoopLogJSON registers the JSON vectors method alone — the full
// surface of a pre-columnar daemon, which tests use to prove the
// client-side fallback.
func registerHadoopLogJSON(srv *rpc.Server, tt, dn *hadooplog.Buffer, now func() time.Time) {
	sources := map[string]LogSource{
		hadooplog.KindTaskTracker.String(): NewBufferLogSource(hadooplog.KindTaskTracker, tt),
		hadooplog.KindDataNode.String():    NewBufferLogSource(hadooplog.KindDataNode, dn),
	}
	srv.Handle(MethodHadoopLogVectors, func(params json.RawMessage) (any, error) {
		var req vectorsRequest
		if err := json.Unmarshal(params, &req); err != nil {
			return nil, err
		}
		src, ok := sources[req.Kind]
		if !ok {
			return nil, fmt.Errorf("unknown log kind %q", req.Kind)
		}
		vecs, err := src.Fetch(now())
		if err != nil {
			return nil, err
		}
		resp := vectorsResponse{Vectors: make([]stateVectorWire, len(vecs))}
		for i, v := range vecs {
			resp.Vectors[i] = stateVectorWire{Time: v.Time, Counts: v.Counts}
		}
		return resp, nil
	})
}

// healthReporter is implemented by supervised clients (rpc.ManagedClient);
// sources forward it so modules can expose per-node connection health.
type healthReporter interface {
	Health() rpc.Health
}

// sourceHealth extracts connection health from a source's client, if the
// client is supervised.
func sourceHealth(client rpc.Caller) (rpc.Health, bool) {
	hr, ok := client.(healthReporter)
	if !ok {
		return rpc.Health{}, false
	}
	return hr.Health(), true
}

// rpcLogSource fetches vectors from a remote hadoop_log_rpcd.
type rpcLogSource struct {
	client rpc.Caller
	kind   hadooplog.Kind
}

// NewRPCLogSource creates a LogSource backed by a remote daemon.
func NewRPCLogSource(client rpc.Caller, kind hadooplog.Kind) LogSource {
	return &rpcLogSource{client: client, kind: kind}
}

func (s *rpcLogSource) Fetch(time.Time) ([]hadooplog.StateVector, error) {
	var resp vectorsResponse
	err := s.client.Call(MethodHadoopLogVectors, vectorsRequest{Kind: s.kind.String()}, &resp)
	if err != nil {
		return nil, err
	}
	out := make([]hadooplog.StateVector, len(resp.Vectors))
	for i, v := range resp.Vectors {
		out[i] = hadooplog.StateVector{Time: v.Time, Counts: v.Counts}
	}
	return out, nil
}

// MetricSource yields one sadc record per collection iteration.
type MetricSource interface {
	Collect() (*sadc.Record, error)
}

// rpcMetricSource polls a remote sadc_rpcd.
type rpcMetricSource struct {
	client rpc.Caller
}

// NewRPCMetricSource creates a MetricSource backed by a remote sadc_rpcd.
func NewRPCMetricSource(client rpc.Caller) MetricSource {
	return &rpcMetricSource{client: client}
}

func (s *rpcMetricSource) Collect() (*sadc.Record, error) {
	var rec sadc.Record
	if err := s.client.Call(MethodSadcCollect, nil, &rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

// batchedMetricSource polls a remote sadc_rpcd with one rpc.Batch frame
// per tick, carrying only the metric-group methods the instance publishes
// (sadc.node always; sadc.net / sadc.proc when interfaces or pids are
// configured). The call list and its parameters are built once; per tick
// only the response holders are reset, so the request path allocates
// nothing beyond the pooled encode scratch inside CallBatch.
type batchedMetricSource struct {
	client rpc.BatchCaller
	calls  []rpc.BatchCall

	node nodeMetricsResponse
	net  netMetricsResponse
	proc procMetricsResponse
}

// NewBatchedMetricSource creates a MetricSource that fetches the node
// group — plus net/proc groups for the given interfaces and pids — in a
// single batched request per collection.
func NewBatchedMetricSource(client rpc.BatchCaller, ifaces []string, pids []int) (MetricSource, error) {
	s := &batchedMetricSource{client: client}
	s.calls = append(s.calls, rpc.BatchCall{Method: MethodSadcNode, Result: &s.node})
	if len(ifaces) > 0 {
		params, err := json.Marshal(netMetricsRequest{Ifaces: ifaces})
		if err != nil {
			return nil, err
		}
		s.calls = append(s.calls, rpc.BatchCall{Method: MethodSadcNet, Params: params, Result: &s.net})
	}
	if len(pids) > 0 {
		params, err := json.Marshal(procMetricsRequest{Pids: pids})
		if err != nil {
			return nil, err
		}
		s.calls = append(s.calls, rpc.BatchCall{Method: MethodSadcProc, Params: params, Result: &s.proc})
	}
	return s, nil
}

func (s *batchedMetricSource) Collect() (*sadc.Record, error) {
	s.node = nodeMetricsResponse{}
	s.net = netMetricsResponse{}
	s.proc = procMetricsResponse{}
	if err := s.client.CallBatch(s.calls); err != nil {
		return nil, err
	}
	// All groups come from the same daemon over the same connection: any
	// per-item failure means this node's record is unusable this tick.
	for i := range s.calls {
		if err := s.calls[i].Err; err != nil {
			return nil, fmt.Errorf("%s: %w", s.calls[i].Method, err)
		}
	}
	return &sadc.Record{
		// Any group still priming its rate snapshot makes the whole record
		// a warmup, matching the single-collector first-tick behaviour.
		Warmup: s.node.Warmup || s.net.Warmup || s.proc.Warmup,
		Node:   s.node.Node,
		Net:    s.net.Net,
		Proc:   s.proc.Proc,
	}, nil
}
