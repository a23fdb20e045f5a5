package modules

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/hierarchy"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/sadc"
	"github.com/asdf-project/asdf/internal/telemetry"
)

// sadcModule is the black-box data-collection module (§3.5): it samples OS
// performance counters each period and publishes node-level metric vectors
// (64 metrics). In the single-node form (node =) the vector appears on
// output0, with per-interface vectors (18 metrics) and per-process vectors
// (19 metrics) as additional outputs on request, completing the paper's
// full metric surface. In the multi-node form (nodes =) one instance polls
// every listed node concurrently under a bounded worker pool and publishes
// one output per node, named after the node — so per-tick collection
// latency stays O(nodes/fanout) round trips instead of O(nodes).
//
// Parameters:
//
//	node         = <node name>          (single-node form)
//	nodes        = n1,n2,...            (multi-node form; excludes node/ifaces/pids)
//	period       = <duration>           (default 1s)
//	mode         = local | rpc          (default local)
//	addr         = host:port            (rpc, single-node form)
//	addrs        = host1:p,host2:p,...  (rpc, multi-node form; parallel to nodes)
//	fanout       = <int>                (multi-node: max concurrent collects;
//	                                     default min(16, numNodes), 1 = serial)
//	wire         = json | columnar      (rpc: per-node transport; columnar opens
//	                                     a delta-encoded stream, falling back
//	                                     to the JSON path when a daemon predates
//	                                     the stream protocol; default: json, or
//	                                     the environment's -wire flag)
//	subscribe    = true | false         (columnar: server-push subscription
//	                                     instead of per-tick pulls)
//	push_period  = <duration>           (subscribe: server-side push pacing;
//	                                     default 0 = lockstep with credits)
//	push_window  = <int>                (subscribe: max frames in flight;
//	                                     default 1 = lockstep)
//	leaders      = host1:p,host2:p,...  (rpc multi-node: delegate node ranges
//	                                     to asdf-shardd leader processes; the
//	                                     delegated addrs entries become "-")
//	leader_ranges = 0-64,64-128,...     (half-open node-index range per leader,
//	                                     parallel to leaders; undelegated
//	                                     indexes stay direct)
//	ifaces       = eth0,eth1            (single-node: adds outputs net_<iface>)
//	pids         = 3001,3002            (single-node: adds outputs proc_<pid>)
//
// In rpc mode each node keeps its own supervised ManagedClient, so breaker
// state and reconnect backoff stay per node regardless of fanout, and under
// wire = columnar each node's stream rides that connection. Whatever order
// the pool's fetches complete in, results are merged in node-index order, so
// output is identical to a serial sweep.
//
// The single-node rpc form joins the engine's collect phase
// (core.InitContext.RegisterCollect): in step mode the daemon round trips
// of every per-node sadc instance due in a Tick run 16 at a time before any
// Run, instead of one per serial Run, and Run publishes the record the phase
// fetched. Run fetches inline when the phase fetched nothing for its fire:
// under Engine.Run, on a clock jump's catch-up fires, and when the instance
// has a watchdog or a quarantine threshold. The multi-node form keeps its
// sweep inside Run: it already fans out, and its record feeds the same
// Run's merge.
type sadcModule struct {
	collectPlane
	single  bool           // the node= form: output0 plus iface/pid extras
	sources []MetricSource // parallel to nodes; nil where a leader owns the node
	outs    []*core.OutputPort

	// Replay guard (crash-safe restart): lastPub is the newest published
	// tick (unixnano; atomic so the state snapshotter can read it beside a
	// running engine), replayBar the restored watermark at or below which
	// publishes are refused after a restart.
	lastPub   atomic.Int64
	replayBar atomic.Int64

	ifaces    []string
	pids      []int
	ifaceOuts map[string]*core.OutputPort
	pidOuts   map[int]*core.OutputPort

	// fan-out scratch, indexed by node (beside collectPlane.errs); results
	// are merged in node order after the concurrent sweep so output stays
	// deterministic.
	recs []*sadc.Record
	// collected: the collect phase has fetched this fire's record into
	// recs[0] / errs[0] (single-node rpc form).
	collected bool
}

func (m *sadcModule) Init(ctx *core.InitContext) error {
	cfg := ctx.Config()
	node := cfg.StringParam("node", "")
	nodesParam := cfg.StringParam("nodes", "")
	nodes := []string{node}
	switch {
	case node != "" && nodesParam != "":
		return fmt.Errorf("sadc: node and nodes are mutually exclusive")
	case node != "":
		m.single = true
	case nodesParam != "":
		var err error
		if nodes, err = listParam(cfg, "sadc", "nodes"); err != nil {
			return err
		}
	default:
		return errMissingParam("sadc", "node")
	}
	cp, err := parseCollectParams(cfg, m.env, "sadc", len(nodes))
	if err != nil {
		return err
	}
	if len(cp.leaders) > 0 && m.single {
		return fmt.Errorf("sadc: leaders requires the multi-node (nodes =) form")
	}
	m.collectPlane = newCollectPlane(m.env, ctx.ID(), nodes, cp.fanout)
	m.ifaces = splitList(cfg.StringParam("ifaces", ""))
	for _, p := range splitList(cfg.StringParam("pids", "")) {
		pid, err := strconv.Atoi(p)
		if err != nil {
			return fmt.Errorf("sadc: pid %q: %w", p, err)
		}
		m.pids = append(m.pids, pid)
	}
	m.sources = make([]MetricSource, len(m.nodes))
	if cp.mode == "local" {
		for i, n := range m.nodes {
			provider, ok := m.env.Procfs[n]
			if !ok {
				return fmt.Errorf("sadc: no procfs provider registered for node %q", n)
			}
			m.sources[i] = sadc.NewCollector(provider)
		}
	} else {
		var addrs []string
		if m.single {
			addr := cfg.StringParam("addr", "")
			if addr == "" {
				return errMissingParam("sadc", "addr")
			}
			addrs = []string{addr}
		} else if addrs, err = listParam(cfg, "sadc", "addrs"); err != nil {
			return err
		}
		err = m.connect("sadc", "asdf-sadc", cp, addrs,
			hierarchy.MethodSadcStream, len(sadc.NodeMetricNames),
			func(i int, client rpc.Caller) (err error) {
				m.sources[i], err = newMetricSource(client, cp.wp, m.nodes[i], m.ifaces, m.pids)
				return err
			})
		if err != nil {
			return err
		}
		if m.single {
			ctx.RegisterCollect(m.collectSingle)
		}
	}

	if m.single {
		out, err := ctx.NewOutput("output0", core.Origin{
			Node:   m.nodes[0],
			Source: "sadc",
			Metric: "node-metrics",
		})
		if err != nil {
			return err
		}
		m.outs = []*core.OutputPort{out}

		m.ifaceOuts = make(map[string]*core.OutputPort)
		for _, iface := range m.ifaces {
			out, err := ctx.NewOutput("net_"+iface, core.Origin{
				Node:   m.nodes[0],
				Source: "sadc",
				Metric: "net-metrics:" + iface,
			})
			if err != nil {
				return err
			}
			m.ifaceOuts[iface] = out
		}
		m.pidOuts = make(map[int]*core.OutputPort)
		for _, pid := range m.pids {
			p := strconv.Itoa(pid)
			out, err := ctx.NewOutput("proc_"+p, core.Origin{
				Node:   m.nodes[0],
				Source: "sadc",
				Metric: "proc-metrics:" + p,
			})
			if err != nil {
				return err
			}
			m.pidOuts[pid] = out
		}
	} else {
		for _, p := range []string{"ifaces", "pids", "addr"} {
			if _, ok := cfg.Param(p); ok {
				return fmt.Errorf("sadc: parameter %q requires the single-node (node =) form", p)
			}
		}
		if m.outs, err = m.nodeOutputs(ctx, "sadc", "node-metrics"); err != nil {
			return err
		}
	}
	m.recs = make([]*sadc.Record, len(m.nodes))
	return ctx.SchedulePeriodic(cp.period)
}

// collectSingle is the single-node rpc form's collect function: one daemon
// round trip into the instance's own scratch, run by the engine's collect
// phase on a worker goroutine.
func (m *sadcModule) collectSingle() {
	m.recs[0], m.errs[0] = m.sources[0].Collect()
	m.collected = true
}

func (m *sadcModule) Run(ctx *core.RunContext) error {
	if ctx.Reason != core.RunPeriodic {
		return nil
	}
	if m.collected {
		m.collected = false
		m.observeBreakers()
	} else {
		m.sweep(func(i int) {
			if m.sources[i] != nil {
				m.recs[i], m.errs[i] = m.sources[i].Collect()
			}
		}, func(ls *leaderSet) { ls.sweepSadc(m.recs, m.errs) })
	}
	// Replayed tick: a restarted control node resumes at the persisted
	// watermark; collection still runs (warming rate state), but nothing
	// at or before an already-published timestamp is re-published.
	replay := m.replayBar.Load() != 0 && !ctx.Now.IsZero() &&
		ctx.Now.UnixNano() <= m.replayBar.Load()
	var firstErr error
	published := false
	for i, rec := range m.recs {
		if err := m.errs[i]; err != nil {
			// One unreachable node must not stop collection from the rest.
			if firstErr == nil {
				firstErr = fmt.Errorf("sadc[%s]: %w", m.nodes[i], err)
			}
			continue
		}
		if rec.Warmup || replay {
			// Rates need a second snapshot; skip the warmup record.
			continue
		}
		// Black-box samples are timestamped on the control node (§3.7).
		m.outs[i].Publish(core.Sample{Time: ctx.Now, Values: rec.Node})
		published = true
		if m.single {
			for iface, out := range m.ifaceOuts {
				if v, ok := rec.Net[iface]; ok {
					out.Publish(core.Sample{Time: ctx.Now, Values: v})
				}
			}
			for pid, out := range m.pidOuts {
				if v, ok := rec.Proc[pid]; ok {
					out.Publish(core.Sample{Time: ctx.Now, Values: v})
				}
			}
		}
	}
	if published {
		m.lastPub.Store(ctx.Now.UnixNano())
	}
	return firstErr
}

// ReplayWatermark reports the newest published tick; ok is false before the
// first publish. Part of the crash-safe state surface (internal/state).
func (m *sadcModule) ReplayWatermark() (time.Time, bool) {
	lp := m.lastPub.Load()
	if lp == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, lp).UTC(), true
}

// RestoreReplayWatermark arms the replay guard after a restart: ticks at or
// before t were published by a previous life and must not be re-published.
func (m *sadcModule) RestoreReplayWatermark(t time.Time) {
	m.replayBar.Store(t.UnixNano())
	m.lastPub.Store(t.UnixNano())
}

// ClientHealth reports the supervised connection's health for the
// single-node rpc form; ok is false in local mode, the multi-node form, or
// with an unsupervised custom dialer.
func (m *sadcModule) ClientHealth() (rpc.Health, bool) {
	if !m.single || len(m.clients) == 0 {
		return rpc.Health{}, false
	}
	return sourceHealth(m.clients[0])
}

var _ core.Module = (*sadcModule)(nil)

// hadoopLogModule is the white-box data-collection module (§4.4): it parses
// every monitored node's TaskTracker or DataNode log into per-second state
// vectors and publishes one output per node. Because log data appears at
// slightly different times on different nodes, the module performs
// cross-node timestamp synchronization internally (§3.7): a timestamp is
// published when every node has revealed data for it; timestamps missing on
// some node once every node has moved past them are dropped.
//
// The strict rule stalls the whole cluster on one dead node, so the module
// also supports degraded-mode synchronization: with sync_deadline set, a
// timestamp older than the deadline (relative to the collection clock) is
// resolved from the nodes that did report, provided at least sync_quorum
// nodes reported it — published as a partial sample set (absent nodes
// publish nothing for that second, so downstream analyses see partial
// vectors), or dropped below quorum. Defaults (no deadline, quorum = all
// nodes) reproduce the paper's strict behaviour exactly.
//
// Parameters:
//
//	kind          = tasktracker | datanode  (required)
//	nodes         = n1,n2,...               (required)
//	period        = <duration>              (default 1s)
//	mode          = local | rpc             (default local)
//	addrs         = host1:p,host2:p,...     (required for rpc; parallel to nodes)
//	fanout        = <int>                   (max concurrent fetches per period;
//	                                         default min(16, numNodes), 1 = serial)
//	wire          = json | columnar         (rpc: per-node transport; columnar
//	                                         streams delta-encoded vectors and
//	                                         falls back to JSON per node when a
//	                                         daemon predates the stream protocol;
//	                                         default: json, or the environment's
//	                                         -wire flag)
//	subscribe     = true | false            (columnar: server-push subscription)
//	push_period   = <duration>              (subscribe: server push pacing;
//	                                         default 0 = lockstep with credits)
//	push_window   = <int>                   (subscribe: max frames in flight;
//	                                         default 1 = lockstep)
//	leaders       = host1:p,host2:p,...     (rpc: delegate node ranges to
//	                                         asdf-shardd leader processes; the
//	                                         delegated addrs entries become "-")
//	leader_ranges = 0-64,64-128,...         (half-open node-index range per
//	                                         leader, parallel to leaders)
//	sync_deadline = <duration>              (default 0: strict §3.7 sync)
//	sync_quorum   = <int> | auto            (default 0: all nodes; auto derives
//	                                         the quorum from the live open-
//	                                         breaker fraction via the adaptive
//	                                         controller, Env.Adaptive)
//
// Per-node fetches run concurrently under a bounded worker pool (fanout),
// but results are merged into the synchronization state in node-index order,
// so publish order and the strict/degraded sync semantics are identical to
// a serial sweep whatever the pool's width. In rpc mode the resilience
// knobs reconnect_backoff, call_timeout, breaker_threshold, and
// breaker_cooldown tune the per-node managed connections, each of which
// keeps its own breaker state regardless of fanout.
type hadoopLogModule struct {
	collectPlane
	kind    hadooplog.Kind
	sources []LogSource // parallel to nodes; nil where a leader owns the node
	outs    []*core.OutputPort

	// fan-out scratch, indexed by node (beside collectPlane.errs); merged
	// serially in node order.
	fetched [][]hadooplog.StateVector

	syncDeadline time.Duration // 0 = strict: wait for every node
	syncQuorum   int           // minimum reporters for a partial publish
	quorumAuto   bool          // sync_quorum = auto: resolve via env.Adaptive

	pending []map[int64][]float64 // per node: unix-second -> counts
	maxSeen []int64               // per node: newest fetched second
	// nextEmit is the next second to resolve (0 = unset). Atomic because it
	// doubles as the replay watermark, read by the state snapshotter beside
	// a running engine; all writes stay on the engine goroutine.
	nextEmit     atomic.Int64
	dropped      uint64   // timestamps dropped by the sync rule
	partial      uint64   // timestamps published without all nodes
	missing      []uint64 // per node: resolved seconds it missed
	statesPerVec int

	// Telemetry mirrors of the sync counters above (nil without
	// Env.Metrics; nil-safe), incremented at the same points so a scrape
	// matches the SyncReporter surface.
	mPartial *telemetry.Counter
	mDropped *telemetry.Counter
	mMissing []*telemetry.Counter // parallel to nodes
}

func (m *hadoopLogModule) Init(ctx *core.InitContext) error {
	cfg := ctx.Config()
	switch cfg.StringParam("kind", "") {
	case "tasktracker":
		m.kind = hadooplog.KindTaskTracker
	case "datanode":
		m.kind = hadooplog.KindDataNode
	case "":
		return errMissingParam("hadoop_log", "kind")
	default:
		return fmt.Errorf("hadoop_log: unknown kind %q", cfg.StringParam("kind", ""))
	}
	m.statesPerVec = hadooplog.MetricDims(m.kind)

	nodes, err := listParam(cfg, "hadoop_log", "nodes")
	if err != nil {
		return err
	}
	cp, err := parseCollectParams(cfg, m.env, "hadoop_log", len(nodes))
	if err != nil {
		return err
	}
	m.collectPlane = newCollectPlane(m.env, ctx.ID(), nodes, cp.fanout)
	m.syncDeadline = cp.rp.SyncDeadline
	m.syncQuorum = cp.rp.SyncQuorum
	m.quorumAuto = cp.rp.SyncQuorumAuto
	if m.syncQuorum == 0 || m.syncQuorum > len(m.nodes) {
		m.syncQuorum = len(m.nodes) // default (and auto baseline): strict
	}

	m.sources = make([]LogSource, len(m.nodes))
	if cp.mode == "local" {
		logs := m.env.TTLogs
		if m.kind == hadooplog.KindDataNode {
			logs = m.env.DNLogs
		}
		for i, n := range m.nodes {
			buf, ok := logs[n]
			if !ok {
				return fmt.Errorf("hadoop_log: no %s log registered for node %q", m.kind, n)
			}
			m.sources[i] = NewBufferLogSource(m.kind, buf)
		}
	} else {
		addrs, err := listParam(cfg, "hadoop_log", "addrs")
		if err != nil {
			return err
		}
		err = m.connect("hadoop_log", "asdf-hadoop-log", cp, addrs,
			hierarchy.MethodLogStream, m.statesPerVec,
			func(i int, client rpc.Caller) (err error) {
				m.sources[i], err = newLogSource(client, cp.wp, m.nodes[i], m.kind)
				return err
			})
		if err != nil {
			return err
		}
	}

	m.outs, err = m.nodeOutputs(ctx, "hadoop_log_"+m.kind.String(),
		strings.Join(hadooplog.MetricNamesFor(m.kind), ","))
	if err != nil {
		return err
	}
	m.pending = make([]map[int64][]float64, len(m.nodes))
	m.maxSeen = make([]int64, len(m.nodes))
	m.missing = make([]uint64, len(m.nodes))
	for i := range m.pending {
		m.pending[i] = make(map[int64][]float64)
	}
	if reg := m.env.Metrics; reg != nil {
		il := telemetry.L("instance", ctx.ID())
		m.mPartial = reg.Counter("asdf_sync_partial_timestamps_total",
			"Timestamps published in degraded mode, without data from every node.", il)
		m.mDropped = reg.Counter("asdf_sync_dropped_timestamps_total",
			"Timestamps discarded below the sync quorum.", il)
		m.mMissing = make([]*telemetry.Counter, len(m.nodes))
		for i, n := range m.nodes {
			m.mMissing[i] = reg.Counter("asdf_sync_missing_seconds_total",
				"Resolved seconds that lacked this node's data.", il, telemetry.L("node", n))
		}
	}
	m.fetched = make([][]hadooplog.StateVector, len(m.nodes))
	return ctx.SchedulePeriodic(cp.period)
}

func (m *hadoopLogModule) Run(ctx *core.RunContext) error {
	now := ctx.Now
	if now.IsZero() {
		now = m.env.now()
	}
	// Fetch every node concurrently; merge serially by node index below so
	// the sync state (and therefore publish order) matches a serial sweep.
	m.sweep(func(i int) {
		if m.sources[i] != nil {
			m.fetched[i], m.errs[i] = m.sources[i].Fetch(now)
		}
	}, func(ls *leaderSet) { ls.sweepLog(m.fetched, m.errs) })
	var firstErr error
	ne := m.nextEmit.Load()
	for i := range m.sources {
		vecs, err := m.fetched[i], m.errs[i]
		m.fetched[i] = nil
		if err != nil {
			// One unreachable node must not stop collection from the rest.
			if firstErr == nil {
				firstErr = fmt.Errorf("hadoop_log[%s]: %w", m.nodes[i], err)
			}
			continue
		}
		for _, v := range vecs {
			sec := v.Time.Unix()
			if ne != 0 && sec < ne {
				// Already resolved: a restarted daemon replays its log
				// from the start (and a restarted control node resumes at
				// its persisted watermark); re-served history must not
				// rewind the emit cursor or double-publish.
				continue
			}
			m.pending[i][sec] = v.Counts
			if sec > m.maxSeen[i] {
				m.maxSeen[i] = sec
			}
			if ne == 0 || sec < ne {
				ne = sec
				m.nextEmit.Store(sec)
			}
		}
	}
	m.emitSynchronized(now)
	return firstErr
}

// ReplayWatermark reports the newest resolved second (the second before the
// emit cursor); ok is false before the first resolution. Part of the
// crash-safe state surface (internal/state).
func (m *hadoopLogModule) ReplayWatermark() (time.Time, bool) {
	ne := m.nextEmit.Load()
	if ne == 0 {
		return time.Time{}, false
	}
	return time.Unix(ne-1, 0).UTC(), true
}

// RestoreReplayWatermark arms the replay guard after a restart: the emit
// cursor resumes just past t, so seconds a previous life already published
// are refused even when the daemons re-serve them.
func (m *hadoopLogModule) RestoreReplayWatermark(t time.Time) {
	m.nextEmit.Store(t.Unix() + 1)
}

// emitSynchronized resolves pending seconds in order. A second is resolved
// when it is *final*: every node has data for it (complete), or every node
// has revealed newer data (the §3.7 strict rule: it will never complete),
// or it is older than the straggler deadline (degraded mode). Complete
// seconds are published on every node; incomplete-but-final seconds are
// published partially when at least syncQuorum nodes reported them, and
// dropped otherwise. Resolution stops at the first non-final second so
// samples always flow downstream in timestamp order.
func (m *hadoopLogModule) emitSynchronized(now time.Time) {
	ne := m.nextEmit.Load()
	if ne == 0 {
		return
	}
	quorum := m.syncQuorum
	if m.quorumAuto {
		// sync_quorum = auto: the adaptive controller derives the quorum
		// from this instance's live open-breaker count (strict while the
		// controller is relaxed or absent).
		open, _ := m.breakers()
		quorum = m.env.Adaptive.EffectiveQuorum(m.id, len(m.nodes), open)
	}
	// frontier: newest second every node has reached (-1 while some node
	// has revealed nothing). newest: newest second any node has reached.
	frontier, newest := int64(-1), int64(0)
	for _, s := range m.maxSeen {
		if s > newest {
			newest = s
		}
		if frontier == -1 || s < frontier {
			frontier = s
		}
	}
	// overdueSec: seconds at or below this have passed the straggler
	// deadline (-1 disables; strict mode waits for the frontier alone).
	overdueSec := int64(-1)
	if m.syncDeadline > 0 {
		overdueSec = now.Add(-m.syncDeadline).Unix()
	}
	top := frontier
	if overdueSec > top {
		top = overdueSec
	}
	if top > newest {
		top = newest // never resolve ahead of all data
	}

	for sec := ne; sec <= top; sec++ {
		have := 0
		for i := range m.pending {
			if _, ok := m.pending[i][sec]; ok {
				have++
			}
		}
		complete := have == len(m.nodes)
		final := complete ||
			(frontier > 0 && sec <= frontier) || // every node reached it: it will never grow
			(overdueSec >= 0 && sec <= overdueSec) // straggler deadline expired
		if !final {
			break // must keep waiting; later seconds stay queued too
		}
		emit := complete || have >= quorum
		t := time.Unix(sec, 0).UTC()
		for i := range m.pending {
			counts, ok := m.pending[i][sec]
			if !ok {
				m.missing[i]++
				if m.mMissing != nil {
					m.mMissing[i].Inc()
				}
				continue
			}
			if emit {
				m.outs[i].Publish(core.Sample{Time: t, Values: counts})
			}
			delete(m.pending[i], sec)
		}
		switch {
		case complete:
		case emit:
			m.partial++
			m.mPartial.Inc()
		default:
			m.dropped++
			m.mDropped.Inc()
		}
		m.nextEmit.Store(sec + 1)
	}
}

// DroppedTimestamps reports how many seconds were discarded because fewer
// than the quorum of nodes produced data for them.
func (m *hadoopLogModule) DroppedTimestamps() uint64 { return m.dropped }

// PartialTimestamps reports how many seconds were published in degraded
// mode, i.e. without data from every node.
func (m *hadoopLogModule) PartialTimestamps() uint64 { return m.partial }

// MissingByNode reports, per node, how many resolved seconds lacked that
// node's data — the per-sample visibility downstream analyses use to
// account for partial vectors.
func (m *hadoopLogModule) MissingByNode() map[string]uint64 {
	out := make(map[string]uint64, len(m.nodes))
	for i, n := range m.nodes {
		out[n] = m.missing[i]
	}
	return out
}

var _ core.Module = (*hadoopLogModule)(nil)
