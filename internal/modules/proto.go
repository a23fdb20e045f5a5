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

// RegisterSadcServer exposes a sadc collector for one node over RPC.
// Collection state (the previous snapshot for rate conversion) lives in the
// daemon, as with the paper's sadc_rpcd: sadc.collect returns the full
// record, and the columnar stream counterpart (sadc.metrics) serves wire =
// columnar clients, each stream open with a collector — and so a rate
// baseline — of its own.
func RegisterSadcServer(srv *rpc.Server, provider procfs.Provider) {
	registerSadcStream(srv, provider)
	registerSadcJSON(srv, provider)
}

// registerSadcJSON registers the JSON request/response method alone — the
// full surface of a pre-columnar daemon, which tests use to prove the
// client-side fallback.
func registerSadcJSON(srv *rpc.Server, provider procfs.Provider) {
	collector := sadc.NewCollector(provider)
	srv.Handle(MethodSadcCollect, func(json.RawMessage) (any, error) {
		return collector.Collect()
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
