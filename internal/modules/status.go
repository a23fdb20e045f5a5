package modules

import (
	"encoding/json"
	"net"
	"time"

	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/state"
)

// The operator status surface: a StatusReport aggregates, per engine, the
// supervised runtime's per-instance state, the collection plane's per-node
// breaker snapshots, and the timestamp-sync degradation counters — the
// three places where the always-on fingerpointing pipeline can silently
// degrade. cmd/asdf serves it over HTTP (/healthz, /status) and over the
// native RPC protocol (ServiceStatus / MethodStatus).

// ServiceStatus is the RPC service name announced by a status server, and
// MethodStatus its single method.
const (
	ServiceStatus = "asdf_status"
	MethodStatus  = "asdf.status"
)

// EngineView is the subset of the engine surface a StatusReport is
// assembled from. Both *core.Engine and *core.RunContext satisfy it, so
// the same collection logic serves the HTTP endpoint, the status RPC, and
// the counter-emitting sinks.
type EngineView interface {
	Instances() []string
	ModuleOf(id string) (core.Module, bool)
	SupervisorSnapshots() []core.InstanceHealth
}

var (
	_ EngineView = (*core.Engine)(nil)
	_ EngineView = (*core.RunContext)(nil)
)

// BreakerReporter is implemented by collection modules that supervise
// per-node RPC connections (sadc, hadoop_log in rpc mode).
type BreakerReporter interface {
	ClientHealths() map[string]rpc.Health
}

// SyncReporter is implemented by collection modules that perform cross-node
// timestamp synchronization (hadoop_log).
type SyncReporter interface {
	PartialTimestamps() uint64
	DroppedTimestamps() uint64
	MissingByNode() map[string]uint64
}

// RestartReporter is implemented by engine views wrapping a crash-safe
// state manager (cmd/asdf with -state-file): RestartStatus reports the
// snapshot/restore accounting, ok false when no state file is configured.
type RestartReporter interface {
	RestartStatus() (state.RestartStatus, bool)
}

// LeaderReporter is implemented by collection modules that delegate node
// ranges to shard-leader processes (sadc, hadoop_log with leaders =).
type LeaderReporter interface {
	// LeaderStatuses reports per-leader delegation accounting, nil when
	// the instance delegates nothing.
	LeaderStatuses() []LeaderStatus
}

// LeaderStatus is one leader link of a collection instance: the delegated
// range, the root→leader connection health, and the merge accounting that
// backs the asdf_hier_* metrics.
type LeaderStatus struct {
	// Addr is the leader's RPC address.
	Addr string `json:"addr"`
	// Range is the delegated node-index range ("0-64"), Nodes its size.
	Range string `json:"range"`
	Nodes int    `json:"nodes"`
	// Wire is the live hop transport: "columnar", or "json" after the
	// per-leader fallback (or when the instance never asked for columnar).
	Wire string `json:"wire"`
	// Health is the root→leader managed-connection snapshot; nil with an
	// unsupervised custom dialer.
	Health *rpc.Health `json:"health,omitempty"`
	// Partials counts per-tick range partials merged from this leader;
	// Errors counts failed leader fetches (whole-range gaps).
	Partials uint64 `json:"partials"`
	Errors   uint64 `json:"errors"`
	// Restarts counts leader connection re-establishments after the first
	// connect — a leader process restart, seen from the root.
	Restarts uint64 `json:"restarts"`
	// Leader* are piggybacked from the leader's own accounting on the JSON
	// hop (stale or zero while the hop runs columnar).
	LeaderSweeps       uint64 `json:"leader_sweeps,omitempty"`
	LeaderNodeErrors   uint64 `json:"leader_node_errors,omitempty"`
	LeaderOpenBreakers int    `json:"leader_open_breakers,omitempty"`
}

// DropReporter is implemented by rate-matching modules that drop samples on
// overflow (ibuffer).
type DropReporter interface {
	// IbufferStatus reports the buffer size and drop accounting.
	IbufferStatus() IbufferStatus
}

// IbufferStatus is one ibuffer instance's drop accounting: a non-zero
// Dropped means the downstream analysis is not keeping up with its
// collectors and samples are being discarded oldest-first.
type IbufferStatus struct {
	// Size is the configured buffer capacity in samples.
	Size int `json:"size"`
	// Dropped counts samples discarded on overflow since start.
	Dropped uint64 `json:"dropped"`
	// Forwarded counts samples passed downstream since start.
	Forwarded uint64 `json:"forwarded"`
}

// SyncStatus is one instance's timestamp-sync degradation counters.
type SyncStatus struct {
	// Partial counts timestamps published without data from every node.
	Partial uint64 `json:"partial"`
	// Dropped counts timestamps discarded below the sync quorum.
	Dropped uint64 `json:"dropped"`
	// MissingByNode counts, per node, resolved seconds that lacked that
	// node's data.
	MissingByNode map[string]uint64 `json:"missing_by_node,omitempty"`
}

// StatusReport is the full operator snapshot of one engine.
type StatusReport struct {
	// Time is when the snapshot was taken.
	Time time.Time `json:"time"`
	// Healthy is false when any instance is quarantined or wedged, or any
	// collection breaker is open.
	Healthy bool `json:"healthy"`
	// Instances is every instance's supervisor snapshot, in topological
	// order.
	Instances []core.InstanceHealth `json:"instances"`
	// Breakers maps instance id -> node name -> connection health for
	// every rpc-mode collection module.
	Breakers map[string]map[string]rpc.Health `json:"breakers,omitempty"`
	// Sync maps instance id -> timestamp-sync counters for every
	// synchronizing collection module.
	Sync map[string]SyncStatus `json:"sync,omitempty"`
	// Leaders maps instance id -> per-leader delegation accounting for
	// every collection module delegating node ranges to shard leaders.
	Leaders map[string][]LeaderStatus `json:"leaders,omitempty"`
	// Ibuffer maps instance id -> drop accounting for every ibuffer
	// instance.
	Ibuffer map[string]IbufferStatus `json:"ibuffer,omitempty"`
	// Restart is the crash-safe state layer's snapshot/restore accounting;
	// absent when the control node runs without a -state-file.
	Restart *state.RestartStatus `json:"restart,omitempty"`
}

// CollectStatus assembles a StatusReport from a live engine (or, inside a
// module Run, from its RunContext).
func CollectStatus(v EngineView, now time.Time) StatusReport {
	rep := StatusReport{Time: now, Healthy: true}
	if rr, ok := v.(RestartReporter); ok {
		if rs, ok := rr.RestartStatus(); ok {
			rep.Restart = &rs
		}
	}
	rep.Instances = v.SupervisorSnapshots()
	for _, ih := range rep.Instances {
		if ih.State != core.SupervisorHealthy || ih.Wedged {
			rep.Healthy = false
		}
	}
	for _, id := range v.Instances() {
		mod, ok := v.ModuleOf(id)
		if !ok {
			continue
		}
		if br, ok := mod.(BreakerReporter); ok {
			if hs := br.ClientHealths(); len(hs) > 0 {
				if rep.Breakers == nil {
					rep.Breakers = make(map[string]map[string]rpc.Health)
				}
				rep.Breakers[id] = hs
				for _, h := range hs {
					if h.State == rpc.BreakerOpen {
						rep.Healthy = false
					}
				}
			}
		}
		if lr, ok := mod.(LeaderReporter); ok {
			if lss := lr.LeaderStatuses(); len(lss) > 0 {
				if rep.Leaders == nil {
					rep.Leaders = make(map[string][]LeaderStatus)
				}
				rep.Leaders[id] = lss
			}
		}
		if dr, ok := mod.(DropReporter); ok {
			if rep.Ibuffer == nil {
				rep.Ibuffer = make(map[string]IbufferStatus)
			}
			rep.Ibuffer[id] = dr.IbufferStatus()
		}
		if sr, ok := mod.(SyncReporter); ok {
			if rep.Sync == nil {
				rep.Sync = make(map[string]SyncStatus)
			}
			rep.Sync[id] = SyncStatus{
				Partial:       sr.PartialTimestamps(),
				Dropped:       sr.DroppedTimestamps(),
				MissingByNode: sr.MissingByNode(),
			}
		}
	}
	return rep
}

// RegisterStatusServer exposes the engine's status over the native RPC
// protocol as MethodStatus (no parameters; returns a StatusReport). clock
// defaults to time.Now.
func RegisterStatusServer(srv *rpc.Server, view EngineView, clock func() time.Time) {
	if clock == nil {
		clock = time.Now
	}
	srv.Handle(MethodStatus, func(json.RawMessage) (any, error) {
		return CollectStatus(view, clock()), nil
	})
}

// ListenStatus starts a status RPC server on addr (e.g. "127.0.0.1:0") and
// returns it with its bound address. Close the server to stop.
func ListenStatus(addr string, view EngineView, clock func() time.Time) (*rpc.Server, net.Addr, error) {
	srv := rpc.NewServer(ServiceStatus)
	RegisterStatusServer(srv, view, clock)
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, nil, err
	}
	return srv, bound, nil
}
