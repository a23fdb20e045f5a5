package modules

import (
	"encoding/json"
	"fmt"
	"sync"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/hierarchy"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/sadc"
	"github.com/asdf-project/asdf/internal/state"
)

// The shard-leader side of the hierarchical collection plane (cmd/asdf-shardd):
// a Leader owns the per-daemon managed connections, sweeps, and wire
// negotiation for one contiguous node range, and serves merged per-tick
// partials to the root over hierarchy's JSON sweep methods and their
// columnar stream counterparts. Sweeps are pull-driven — one sweep per root
// request — so the root's tick clock paces the whole tree and daemon-side
// rate state advances exactly as if the root polled the daemons directly,
// which is what keeps hierarchical sink output byte-identical to the
// single-process configuration.

// LeaderOptions configures a Leader. The node list is the leader's slice of
// the root's node set, in the root's order.
type LeaderOptions struct {
	// Name identifies the leader in status output.
	Name string
	// Nodes are the node names of the delegated range, in range order.
	Nodes []string
	// SadcAddrs are the sadc_rpcd daemon addresses, parallel to Nodes;
	// empty disables the sadc plane.
	SadcAddrs []string
	// LogAddrs are the hadoop_log_rpcd daemon addresses, parallel to
	// Nodes; empty disables the log plane.
	LogAddrs []string
	// LogKind selects which daemon log the log plane reads.
	LogKind hadooplog.Kind
	// Fanout mirrors the collection modules' fanout parameter: the
	// concurrent-fetch budget of a sweep (0 = min(16, nodes), 1 = serial).
	Fanout int
	// Wire selects the leader→daemon transport: "" or "json" keeps the
	// JSON request/response path, "columnar" opens delta-encoded streams
	// with per-node JSON fallback, exactly as on a single-process root.
	Wire string
	// Resilience tunes the leader→daemon managed connections.
	Resilience config.ResilienceParams
}

// leaderPlane is one collection plane (sadc or hadoop_log) of a Leader: its
// sources, scratch, and accounting around the collectPlane a root instance
// also embeds. It doubles as the state.Engine module for that plane, so a
// leader's -state-file persists its daemon breaker state through the same
// machinery as a root's, and its status surface reports per-daemon health.
type leaderPlane struct {
	collectPlane
	metric []MetricSource // sadc plane
	logs   []LogSource    // log plane

	mu         sync.Mutex
	sweeps     uint64
	nodeErrors uint64

	recs []*sadc.Record
	vecs [][]hadooplog.StateVector
}

// Init and Run satisfy core.Module so the plane can ride the state
// manager's Engine surface; the leader scheduler never calls them.
func (p *leaderPlane) Init(*core.InitContext) error { return nil }
func (p *leaderPlane) Run(*core.RunContext) error   { return nil }

// tally accounts the sweep that just filled p.errs; the caller holds p.mu.
func (p *leaderPlane) tally() {
	p.sweeps++
	for _, err := range p.errs {
		if err != nil {
			p.nodeErrors++
		}
	}
}

// statsLocked reports the plane's accounting; the caller holds p.mu.
func (p *leaderPlane) statsLocked() hierarchy.Stats {
	open, _ := p.breakers()
	return hierarchy.Stats{
		Nodes:        len(p.nodes),
		Sweeps:       p.sweeps,
		NodeErrors:   p.nodeErrors,
		OpenBreakers: open,
	}
}

func (p *leaderPlane) stats() hierarchy.Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.statsLocked()
}

// Leader runs the collection plane for one delegated node range and serves
// it over RPC. All sweep entry points (JSON and stream, either plane) are
// serialized per plane, so a root reconnecting mid-tick cannot interleave
// two sweeps over the shared scratch.
type Leader struct {
	name string
	sadc *leaderPlane
	log  *leaderPlane
	kind hadooplog.Kind
}

// NewLeader builds a Leader: it dials (lazily) every daemon in the range
// and wires the same source stack a single-process root would use — JSON,
// with columnar streams and per-node fallback under Wire = "columnar".
func NewLeader(env *Env, opt LeaderOptions) (*Leader, error) {
	if env == nil {
		env = NewEnv()
	}
	if len(opt.Nodes) == 0 {
		return nil, fmt.Errorf("leader: empty node list")
	}
	if len(opt.SadcAddrs) == 0 && len(opt.LogAddrs) == 0 {
		return nil, fmt.Errorf("leader: no sadc or hadoop_log daemon addresses")
	}
	var wp wireParams
	switch opt.Wire {
	case "", "json":
	case "columnar":
		wp.columnar = true
	default:
		return nil, fmt.Errorf("leader: unknown wire %q (want json or columnar)", opt.Wire)
	}
	n := len(opt.Nodes)
	l := &Leader{name: opt.Name, kind: opt.LogKind}
	if len(opt.SadcAddrs) > 0 {
		p := &leaderPlane{collectPlane: newCollectPlane(env, opt.Name, opt.Nodes, opt.Fanout)}
		p.metric, p.recs = make([]MetricSource, n), make([]*sadc.Record, n)
		err := p.dialNodes("leader sadc", "asdf-shardd", opt.SadcAddrs, opt.Resilience, nil,
			func(i int, client rpc.Caller) (err error) {
				p.metric[i], err = newMetricSource(client, wp, opt.Nodes[i], nil, nil)
				return err
			})
		if err != nil {
			return nil, err
		}
		l.sadc = p
	}
	if len(opt.LogAddrs) > 0 {
		p := &leaderPlane{collectPlane: newCollectPlane(env, opt.Name, opt.Nodes, opt.Fanout)}
		p.logs, p.vecs = make([]LogSource, n), make([][]hadooplog.StateVector, n)
		err := p.dialNodes("leader hadoop_log", "asdf-shardd", opt.LogAddrs, opt.Resilience, nil,
			func(i int, client rpc.Caller) (err error) {
				p.logs[i], err = newLogSource(client, wp, opt.Nodes[i], opt.LogKind)
				return err
			})
		if err != nil {
			return nil, err
		}
		l.log = p
	}
	return l, nil
}

// sweepSadcLocked runs one sadc sweep; the caller consumes p.recs / p.errs
// before releasing p.mu, since the next sweep overwrites them.
func (l *Leader) sweepSadcLocked() {
	p := l.sadc
	core.FanOut(len(p.nodes), p.width, func(i int) {
		p.recs[i], p.errs[i] = p.metric[i].Collect()
	})
	p.tally()
}

// sweepLogLocked runs one log sweep under the same contract.
func (l *Leader) sweepLogLocked() {
	p := l.log
	now := p.env.now()
	core.FanOut(len(p.nodes), p.width, func(i int) {
		p.vecs[i], p.errs[i] = p.logs[i].Fetch(now)
	})
	p.tally()
}

// SadcSweep serves one JSON-hop sweep (hierarchy.MethodSadcSweep).
func (l *Leader) SadcSweep() (hierarchy.SadcSweepResponse, error) {
	p := l.sadc
	if p == nil {
		return hierarchy.SadcSweepResponse{}, fmt.Errorf("leader: no sadc plane configured")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	l.sweepSadcLocked()
	resp := hierarchy.SadcSweepResponse{Records: make([]hierarchy.SadcRecord, len(p.nodes))}
	for i, rec := range p.recs {
		if err := p.errs[i]; err != nil {
			resp.Records[i] = hierarchy.SadcRecord{Err: err.Error()}
			continue
		}
		resp.Records[i] = hierarchy.SadcRecord{Warmup: rec.Warmup, Node: rec.Node}
	}
	resp.Stats = p.statsLocked()
	return resp, nil
}

// LogSweep serves one JSON-hop sweep (hierarchy.MethodLogSweep).
func (l *Leader) LogSweep() (hierarchy.LogSweepResponse, error) {
	p := l.log
	if p == nil {
		return hierarchy.LogSweepResponse{}, fmt.Errorf("leader: no hadoop_log plane configured")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	l.sweepLogLocked()
	resp := hierarchy.LogSweepResponse{Nodes: make([]hierarchy.LogNode, len(p.nodes))}
	for i, vecs := range p.vecs {
		if err := p.errs[i]; err != nil {
			resp.Nodes[i] = hierarchy.LogNode{Err: err.Error()}
			continue
		}
		lvs := make([]hierarchy.LogVector, len(vecs))
		for j, v := range vecs {
			lvs[j] = hierarchy.LogVector{Time: v.Time, Counts: v.Counts}
		}
		resp.Nodes[i] = hierarchy.LogNode{Vectors: lvs}
		p.vecs[i] = nil
	}
	resp.Stats = p.statsLocked()
	return resp, nil
}

// Status serves hierarchy.MethodStatus.
func (l *Leader) Status() hierarchy.StatusResponse {
	resp := hierarchy.StatusResponse{Name: l.name}
	if l.sadc != nil {
		s := l.sadc.stats()
		resp.Sadc = &s
	}
	if l.log != nil {
		s := l.log.stats()
		resp.Log = &s
	}
	return resp
}

// leaderSadcStream adapts the leader's sadc sweep to the columnar stream
// protocol: one row per node per tick in a single narrow group whose
// leading hierarchy.NodeIndexColumn column carries the node's offset within
// the range. Rows stay O(metric width) regardless of range size — a
// group-per-node schema would materialize O(range²) cells per tick at the
// decoder — and a failed node simply has no row; the root synthesizes a
// per-node error for every range index missing from the frame.
type leaderSadcStream struct {
	l      *Leader
	schema rpc.StreamSchema
	values []float64
}

// partialGroup builds the single schema group of a leader partial stream:
// the node-offset column followed by the plane's metric columns.
func partialGroup(cols []string) []rpc.ColumnGroup {
	wide := make([]string, 0, len(cols)+1)
	wide = append(wide, hierarchy.NodeIndexColumn)
	wide = append(wide, cols...)
	return []rpc.ColumnGroup{{Name: "partial", Columns: wide}}
}

// partialPresent is the presence bitmap of every partial row: the schema's
// one group, always present.
var partialPresent = []bool{true}

func newLeaderSadcStream(l *Leader) *leaderSadcStream {
	return &leaderSadcStream{
		l:      l,
		schema: rpc.StreamSchema{Method: hierarchy.MethodSadcStream, Node: l.name, Groups: partialGroup(sadc.NodeMetricNames)},
		values: make([]float64, 1+len(sadc.NodeMetricNames)),
	}
}

func (s *leaderSadcStream) Schema() rpc.StreamSchema { return s.schema }

func (s *leaderSadcStream) Collect(fw *rpc.FrameWriter) error {
	p := s.l.sadc
	p.mu.Lock()
	defer p.mu.Unlock()
	s.l.sweepSadcLocked()
	for i, rec := range p.recs {
		if p.errs[i] != nil {
			continue
		}
		s.values[0] = float64(i)
		copy(s.values[1:], rec.Node)
		fw.AppendRow(rec.Time.UnixNano(), rec.Warmup, partialPresent, s.values)
	}
	return nil
}

// leaderLogStream is the log plane's columnar counterpart: one row per
// newly finalized per-second vector, tagged with its node offset; a quiet
// tick is an empty frame. A failed node is indistinguishable from a quiet
// one on this hop — which matches the sync semantics, since the root treats
// a fetch error as "no new vectors" either way.
type leaderLogStream struct {
	l      *Leader
	schema rpc.StreamSchema
	values []float64
}

func newLeaderLogStream(l *Leader) *leaderLogStream {
	cols := hadooplog.MetricNamesFor(l.kind)
	return &leaderLogStream{
		l:      l,
		schema: rpc.StreamSchema{Method: hierarchy.MethodLogStream, Node: l.name, Groups: partialGroup(cols)},
		values: make([]float64, 1+len(cols)),
	}
}

func (s *leaderLogStream) Schema() rpc.StreamSchema { return s.schema }

func (s *leaderLogStream) Collect(fw *rpc.FrameWriter) error {
	p := s.l.log
	p.mu.Lock()
	defer p.mu.Unlock()
	s.l.sweepLogLocked()
	for i, vecs := range p.vecs {
		if p.errs[i] != nil {
			continue
		}
		for _, v := range vecs {
			s.values[0] = float64(i)
			copy(s.values[1:], v.Counts)
			fw.AppendRow(v.Time.UnixNano(), false, partialPresent, s.values)
		}
		p.vecs[i] = nil
	}
	return nil
}

// checkStreamNodes verifies the root's node list for the range matches the
// leader's configuration, so a misrouted delegation fails at open time
// instead of misattributing every sample.
func checkStreamNodes(params json.RawMessage, nodes []string) error {
	var req hierarchy.StreamRequest
	if len(params) > 0 {
		if err := json.Unmarshal(params, &req); err != nil {
			return err
		}
	}
	if len(req.Nodes) == 0 {
		return nil // root elided the check
	}
	if len(req.Nodes) != len(nodes) {
		return fmt.Errorf("leader: stream for %d nodes, range has %d", len(req.Nodes), len(nodes))
	}
	for i, n := range req.Nodes {
		if n != nodes[i] {
			return fmt.Errorf("leader: stream node %d is %q, range has %q", i, n, nodes[i])
		}
	}
	return nil
}

// Register exposes the leader's sweep surface on srv: the JSON methods,
// their columnar stream counterparts, and the status method.
func (l *Leader) Register(srv *rpc.Server) {
	if p := l.sadc; p != nil {
		srv.Handle(hierarchy.MethodSadcSweep, func(json.RawMessage) (any, error) {
			return l.SadcSweep()
		})
		srv.HandleStream(hierarchy.MethodSadcStream, func(params json.RawMessage) (rpc.StreamSource, error) {
			if err := checkStreamNodes(params, p.nodes); err != nil {
				return nil, err
			}
			return newLeaderSadcStream(l), nil
		})
	}
	if p := l.log; p != nil {
		srv.Handle(hierarchy.MethodLogSweep, func(json.RawMessage) (any, error) {
			return l.LogSweep()
		})
		srv.HandleStream(hierarchy.MethodLogStream, func(params json.RawMessage) (rpc.StreamSource, error) {
			if err := checkStreamNodes(params, p.nodes); err != nil {
				return nil, err
			}
			return newLeaderLogStream(l), nil
		})
	}
	srv.Handle(hierarchy.MethodStatus, func(json.RawMessage) (any, error) {
		return l.Status(), nil
	})
}

// The state.Engine surface: a leader has no fpt-core engine, but its planes
// carry daemon breaker state worth persisting, so -state-file composes the
// same way it does on a root. Plane ids are stable ("sadc", "hadoop_log"),
// letting a restarted leader re-match its snapshot sections.

// Instances lists the configured planes.
func (l *Leader) Instances() []string {
	var out []string
	if l.sadc != nil {
		out = append(out, "sadc")
	}
	if l.log != nil {
		out = append(out, "hadoop_log")
	}
	return out
}

// ModuleOf resolves a plane id.
func (l *Leader) ModuleOf(id string) (core.Module, bool) {
	switch {
	case id == "sadc" && l.sadc != nil:
		return l.sadc, true
	case id == "hadoop_log" && l.log != nil:
		return l.log, true
	}
	return nil, false
}

// SupervisorSnapshots reports none: the leader has no supervised instances.
func (l *Leader) SupervisorSnapshots() []core.InstanceHealth { return nil }

// RestoreSupervisors is a no-op for the same reason.
func (l *Leader) RestoreSupervisors([]core.InstanceHealth) int { return 0 }

var _ state.Engine = (*Leader)(nil)
