package modules

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/procfs"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/sadc"
)

// Columnar stream methods served by the collection daemons. Each opens a
// per-connection metric stream carrying the same data as the JSON methods,
// delta-encoded so a steady-state tick costs a few bytes per column instead
// of a re-serialized JSON document.
const (
	// MethodSadcMetrics streams one row per tick: the node-level group plus
	// a group per requested interface and pid.
	MethodSadcMetrics = "sadc.metrics"
	// MethodHadoopLogStream streams newly finalized state vectors, one row
	// per per-second vector.
	MethodHadoopLogStream = "hadoop_log.stream"
)

// sadcStreamRequest configures a sadc.metrics stream open: which extra
// metric groups to carry, and the node name echoed into the schema so
// operators can attribute a stream from either end.
type sadcStreamRequest struct {
	Node   string   `json:"node,omitempty"`
	Ifaces []string `json:"ifaces,omitempty"`
	Pids   []int    `json:"pids,omitempty"`
}

// logStreamRequest configures a hadoop_log.stream open.
type logStreamRequest struct {
	Kind string `json:"kind"`
	Node string `json:"node,omitempty"`
}

// sadcStreamSource adapts a sadc collector to the columnar stream protocol.
// Each open gets its own collector, so the rate baseline lives with the
// stream exactly as the JSON methods keep theirs with the daemon: a
// reconnecting client re-opens the stream and re-primes with one warmup row.
type sadcStreamSource struct {
	collector *sadc.Collector
	schema    rpc.StreamSchema
	ifaces    []string
	pids      []int

	// Row scratch, reused every tick: values spans all schema columns,
	// present has one flag per group (an interface or pid missing from this
	// tick's record ships no cells and keeps its delta state untouched).
	values  []float64
	present []bool
}

func newSadcStreamSource(provider procfs.Provider, req sadcStreamRequest) *sadcStreamSource {
	groups := make([]rpc.ColumnGroup, 0, 1+len(req.Ifaces)+len(req.Pids))
	groups = append(groups, rpc.ColumnGroup{Name: "node", Columns: sadc.NodeMetricNames})
	for _, iface := range req.Ifaces {
		groups = append(groups, rpc.ColumnGroup{Name: "net:" + iface, Columns: sadc.NetMetricNames})
	}
	for _, pid := range req.Pids {
		groups = append(groups, rpc.ColumnGroup{Name: "proc:" + strconv.Itoa(pid), Columns: sadc.ProcMetricNames})
	}
	schema := rpc.StreamSchema{Method: MethodSadcMetrics, Node: req.Node, Groups: groups}
	ncols := len(sadc.NodeMetricNames) +
		len(req.Ifaces)*len(sadc.NetMetricNames) +
		len(req.Pids)*len(sadc.ProcMetricNames)
	return &sadcStreamSource{
		collector: sadc.NewGroupCollector(provider, sadc.Groups{Node: true, Ifaces: req.Ifaces, Pids: req.Pids}),
		schema:    schema,
		ifaces:    req.Ifaces,
		pids:      req.Pids,
		values:    make([]float64, ncols),
		present:   make([]bool, len(groups)),
	}
}

func (s *sadcStreamSource) Schema() rpc.StreamSchema { return s.schema }

func (s *sadcStreamSource) Collect(fw *rpc.FrameWriter) error {
	rec, err := s.collector.Collect()
	if err != nil {
		return err
	}
	copy(s.values[:len(sadc.NodeMetricNames)], rec.Node)
	s.present[0] = true
	off, gi := len(sadc.NodeMetricNames), 1
	for _, iface := range s.ifaces {
		v, ok := rec.Net[iface]
		s.present[gi] = ok
		if ok {
			copy(s.values[off:off+len(sadc.NetMetricNames)], v)
		}
		off += len(sadc.NetMetricNames)
		gi++
	}
	for _, pid := range s.pids {
		v, ok := rec.Proc[pid]
		s.present[gi] = ok
		if ok {
			copy(s.values[off:off+len(sadc.ProcMetricNames)], v)
		}
		off += len(sadc.ProcMetricNames)
		gi++
	}
	fw.AppendRow(rec.Time.UnixNano(), rec.Warmup, s.present, s.values)
	return nil
}

// logStreamSource adapts a log buffer to the columnar stream protocol: one
// row per finalized per-second state vector, zero rows on a quiet tick (the
// cheapest possible frame). Each open reads the buffer through its own
// cursor and parser, so a reconnecting client replays from the start and
// the module's re-served-history guard deduplicates, same as the JSON path
// after a daemon restart.
type logStreamSource struct {
	schema rpc.StreamSchema
	src    LogSource
	now    func() time.Time
}

func (s *logStreamSource) Schema() rpc.StreamSchema { return s.schema }

func (s *logStreamSource) Collect(fw *rpc.FrameWriter) error {
	vecs, err := s.src.Fetch(s.now())
	if err != nil {
		return err
	}
	for _, v := range vecs {
		fw.AppendRow(v.Time.UnixNano(), false, nil, v.Counts)
	}
	return nil
}

// registerSadcStream exposes the columnar counterpart of the sadc JSON
// methods on srv.
func registerSadcStream(srv *rpc.Server, provider procfs.Provider) {
	srv.HandleStream(MethodSadcMetrics, func(params json.RawMessage) (rpc.StreamSource, error) {
		var req sadcStreamRequest
		if len(params) > 0 {
			if err := json.Unmarshal(params, &req); err != nil {
				return nil, err
			}
		}
		return newSadcStreamSource(provider, req), nil
	})
}

// registerHadoopLogStream exposes the columnar counterpart of
// hadoop_log.vectors on srv.
func registerHadoopLogStream(srv *rpc.Server, tt, dn *hadooplog.Buffer, now func() time.Time) {
	srv.HandleStream(MethodHadoopLogStream, func(params json.RawMessage) (rpc.StreamSource, error) {
		var req logStreamRequest
		if err := json.Unmarshal(params, &req); err != nil {
			return nil, err
		}
		var kind hadooplog.Kind
		var buf *hadooplog.Buffer
		switch req.Kind {
		case hadooplog.KindTaskTracker.String():
			kind, buf = hadooplog.KindTaskTracker, tt
		case hadooplog.KindDataNode.String():
			kind, buf = hadooplog.KindDataNode, dn
		default:
			return nil, fmt.Errorf("unknown log kind %q", req.Kind)
		}
		return &logStreamSource{
			schema: rpc.StreamSchema{
				Method: MethodHadoopLogStream,
				Node:   req.Node,
				Groups: []rpc.ColumnGroup{{Name: "counts", Columns: hadooplog.MetricNamesFor(kind)}},
			},
			src: NewBufferLogSource(kind, buf),
			now: now,
		}, nil
	})
}

// streamOpener is the client surface wire = columnar needs; rpc.ManagedClient
// implements it. A custom Env.Dial hook returning a plain rpc.Caller keeps
// the JSON path.
type streamOpener interface {
	Stream(method string, params any) (*rpc.StreamClient, error)
	Subscribe(method string, params any, period time.Duration, window int) (*rpc.ManagedSubscription, error)
}

var _ streamOpener = (*rpc.ManagedClient)(nil)

// wireParams are the negotiated-upgrade knobs shared by the rpc-mode
// collection modules.
type wireParams struct {
	columnar   bool
	subscribe  bool
	pushPeriod time.Duration
	pushWindow int
}

// parseWireParams reads the wire / subscribe / push_period / push_window
// parameters for module (its config-error prefix). The env default applies
// only in rpc mode — an explicit wire = columnar on a local-mode instance
// is an error, but an environment-wide -wire columnar must not break local
// instances it cannot apply to.
func parseWireParams(cfg *config.Instance, env *Env, module, mode string) (wireParams, error) {
	var wp wireParams
	wire := cfg.StringParam("wire", "")
	explicit := wire != ""
	if !explicit {
		wire = env.DefaultWire
	}
	switch wire {
	case "", "json":
	case "columnar":
		if mode != "rpc" {
			if explicit {
				return wp, fmt.Errorf("%s: wire = columnar requires mode = rpc", module)
			}
		} else {
			wp.columnar = true
		}
	default:
		return wp, fmt.Errorf("%s: unknown wire %q (want json or columnar)", module, wire)
	}
	var err error
	if wp.subscribe, err = cfg.BoolParam("subscribe", false); err != nil {
		return wp, err
	}
	if wp.subscribe && !wp.columnar {
		return wp, fmt.Errorf("%s: subscribe = true requires wire = columnar (and mode = rpc)", module)
	}
	if wp.pushPeriod, err = cfg.DurationParam("push_period", 0); err != nil {
		return wp, err
	}
	if wp.pushWindow, err = cfg.IntParam("push_window", 1); err != nil {
		return wp, err
	}
	if (wp.pushPeriod != 0 || wp.pushWindow != 1) && !wp.subscribe {
		return wp, fmt.Errorf("%s: push_period / push_window require subscribe = true", module)
	}
	if wp.pushWindow < 1 {
		return wp, fmt.Errorf("%s: push_window must be >= 1", module)
	}
	return wp, nil
}

// open starts the stream (pull or push mode per the parameters) and returns
// the per-tick fetch function. Opening is lazy inside the managed client;
// no network happens here.
func (wp wireParams) open(client streamOpener, method string, params any) (func() ([]rpc.StreamRow, error), error) {
	if wp.subscribe {
		sub, err := client.Subscribe(method, params, wp.pushPeriod, wp.pushWindow)
		if err != nil {
			return nil, err
		}
		return sub.Fetch, nil
	}
	sc, err := client.Stream(method, params)
	if err != nil {
		return nil, err
	}
	return sc.Pull, nil
}

// columnarMetricSource reads sadc records from a columnar stream, falling
// back permanently to the JSON source the instance would otherwise use when
// the daemon predates the stream protocol. Decoded rows are copied into a
// fresh Record, since the decoder reuses row storage across ticks.
type columnarMetricSource struct {
	next     func() ([]rpc.StreamRow, error)
	fallback MetricSource
	fellBack bool
	ifaces   []string
	pids     []int
}

// newMetricSource builds the rpc-mode source stack for node's sadc daemon:
// the JSON request/response source, which under wire = columnar becomes the
// fallback of the sadc.metrics stream. A custom Dial hook without stream
// support keeps the JSON path outright.
func newMetricSource(client rpc.Caller, wp wireParams, node string, ifaces []string, pids []int) (MetricSource, error) {
	fallback := NewRPCMetricSource(client)
	so, ok := client.(streamOpener)
	if !wp.columnar || !ok {
		return fallback, nil
	}
	next, err := wp.open(so, MethodSadcMetrics, sadcStreamRequest{Node: node, Ifaces: ifaces, Pids: pids})
	if err != nil {
		return nil, err
	}
	return &columnarMetricSource{next: next, fallback: fallback, ifaces: ifaces, pids: pids}, nil
}

func (s *columnarMetricSource) Collect() (*sadc.Record, error) {
	if s.fellBack {
		return s.fallback.Collect()
	}
	rows, err := s.next()
	if err != nil {
		if rpc.IsStreamUnsupported(err) {
			s.fellBack = true
			return s.fallback.Collect()
		}
		return nil, err
	}
	if len(rows) != 1 {
		return nil, fmt.Errorf("sadc.metrics: %d rows per tick, want 1", len(rows))
	}
	row := rows[0]
	nNode, nNet, nProc := len(sadc.NodeMetricNames), len(sadc.NetMetricNames), len(sadc.ProcMetricNames)
	want := nNode + len(s.ifaces)*nNet + len(s.pids)*nProc
	if len(row.Values) != want || len(row.Present) != 1+len(s.ifaces)+len(s.pids) {
		return nil, fmt.Errorf("sadc.metrics: schema mismatch: %d columns / %d groups, want %d / %d",
			len(row.Values), len(row.Present), want, 1+len(s.ifaces)+len(s.pids))
	}
	rec := &sadc.Record{
		Time:   time.Unix(0, row.TimeNanos).UTC(),
		Warmup: row.Warmup,
		Node:   append([]float64(nil), row.Values[:nNode]...),
	}
	off, gi := nNode, 1
	for _, iface := range s.ifaces {
		if row.Present[gi] {
			if rec.Net == nil {
				rec.Net = make(map[string][]float64, len(s.ifaces))
			}
			rec.Net[iface] = append([]float64(nil), row.Values[off:off+nNet]...)
		}
		off += nNet
		gi++
	}
	for _, pid := range s.pids {
		if row.Present[gi] {
			if rec.Proc == nil {
				rec.Proc = make(map[int][]float64, len(s.pids))
			}
			rec.Proc[pid] = append([]float64(nil), row.Values[off:off+nProc]...)
		}
		off += nProc
		gi++
	}
	return rec, nil
}

// columnarLogSource reads state vectors from a columnar stream with the
// same permanent JSON fallback as columnarMetricSource.
type columnarLogSource struct {
	next     func() ([]rpc.StreamRow, error)
	fallback LogSource
	fellBack bool
	dims     int
}

// newLogSource is newMetricSource's hadoop_log counterpart: the JSON vectors
// source, wrapped as the fallback of the hadoop_log.stream stream under wire
// = columnar.
func newLogSource(client rpc.Caller, wp wireParams, node string, kind hadooplog.Kind) (LogSource, error) {
	fallback := NewRPCLogSource(client, kind)
	so, ok := client.(streamOpener)
	if !wp.columnar || !ok {
		return fallback, nil
	}
	next, err := wp.open(so, MethodHadoopLogStream, logStreamRequest{Kind: kind.String(), Node: node})
	if err != nil {
		return nil, err
	}
	return &columnarLogSource{next: next, fallback: fallback, dims: hadooplog.MetricDims(kind)}, nil
}

func (s *columnarLogSource) Fetch(now time.Time) ([]hadooplog.StateVector, error) {
	if s.fellBack {
		return s.fallback.Fetch(now)
	}
	rows, err := s.next()
	if err != nil {
		if rpc.IsStreamUnsupported(err) {
			s.fellBack = true
			return s.fallback.Fetch(now)
		}
		return nil, err
	}
	if len(rows) == 0 {
		return nil, nil
	}
	out := make([]hadooplog.StateVector, len(rows))
	for i, r := range rows {
		if len(r.Values) != s.dims {
			return nil, fmt.Errorf("hadoop_log.stream: %d columns, want %d", len(r.Values), s.dims)
		}
		out[i] = hadooplog.StateVector{
			Time:   time.Unix(0, r.TimeNanos).UTC(),
			Counts: append([]float64(nil), r.Values...),
		}
	}
	return out, nil
}
