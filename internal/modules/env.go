// Package modules implements ASDF's fpt-core plug-in modules: the sadc and
// hadoop_log data-collection modules, the mavgvec/knn/ibuffer processing
// modules, the analysis_bb and analysis_wb fingerpointers, and the print
// and csv sinks (§3.5, §3.6).
//
// Modules obtain their external resources — /proc providers, Hadoop log
// buffers, RPC endpoints — through an Env, so the same configuration wiring
// works against an in-process simulated cluster or remote collection
// daemons.
package modules

import (
	"fmt"
	"io"
	"time"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/procfs"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/telemetry"
)

// Env supplies the external resources modules refer to by node name in
// their configuration sections.
type Env struct {
	// Procfs maps node name to its /proc provider (local collection mode).
	Procfs map[string]procfs.Provider
	// TTLogs and DNLogs map node name to its TaskTracker / DataNode log
	// buffer (local collection mode).
	TTLogs map[string]*hadooplog.Buffer
	DNLogs map[string]*hadooplog.Buffer
	// AlarmWriter receives print-module output; nil means io.Discard.
	AlarmWriter io.Writer
	// Dial opens an RPC client (remote collection mode); nil means a
	// supervised rpc.ManagedClient built from RPCOptions, which dials
	// lazily, reconnects with backoff, and trips a per-node circuit
	// breaker — a dead daemon surfaces as per-iteration errors through
	// the engine's error handler instead of killing the collector.
	Dial func(addr, client string) (rpc.Caller, error)
	// RPCOptions are the default resilience settings for managed
	// connections; per-instance configuration parameters
	// (reconnect_backoff, call_timeout, breaker_threshold,
	// breaker_cooldown) override individual fields.
	RPCOptions rpc.Options
	// Clock supplies "now" for log flushing; defaults to time.Now. The
	// offline evaluation harness injects virtual time.
	Clock func() time.Time
	// DefaultWire is the environment-level default for the rpc-mode
	// collection modules' wire parameter (cmd/asdf's -wire flag): "json"
	// (or empty) keeps the JSON request/response path, "columnar" opens
	// delta-encoded metric streams. Instance parameters override; the
	// default is ignored by local-mode instances, which have no wire.
	DefaultWire string
	// Metrics, when non-nil, registers module telemetry for /metrics
	// exposition: per-node RPC connection metrics on managed clients and
	// the timestamp-sync degradation counters. Use the same registry the
	// engine was built with (core.WithTelemetry) so one scrape covers the
	// whole control node.
	Metrics *telemetry.Registry
	// Adaptive, when non-nil, is the adaptive degradation controller:
	// rpc-mode collection modules feed it per-sweep open-breaker counts,
	// and instances configured with sync_quorum = auto resolve their
	// effective quorum through it (degrade = auto instances resolve their
	// gap-fill policy through the same controller via the engine's
	// core.WithDegradeResolver option). Nil keeps strict behaviour.
	Adaptive *AdaptiveController
	// Actions are the named mitigations available to action modules
	// (§5 of the paper: active mitigation once a problem is detected).
	// Each maps a fingerpointed node name to a recovery step, e.g.
	// blacklisting the node at the jobtracker.
	Actions map[string]func(node string) error
}

// NewEnv returns an empty Env ready to be populated.
func NewEnv() *Env {
	return &Env{
		Procfs:  make(map[string]procfs.Provider),
		TTLogs:  make(map[string]*hadooplog.Buffer),
		DNLogs:  make(map[string]*hadooplog.Buffer),
		Actions: make(map[string]func(node string) error),
	}
}

// dial opens the client for one collection daemon. With no custom Dial
// hook, construction is lazy and never fails here: connection errors are
// reported per call (with the node address) and retried by the engine's
// periodic schedule.
func (e *Env) dial(addr, client string, p config.ResilienceParams) (rpc.Caller, error) {
	if e.Dial != nil {
		return e.Dial(addr, client)
	}
	return rpc.NewManagedClient(addr, client, e.rpcOptions(p)), nil
}

// rpcOptions merges instance-level resilience parameters over the
// environment defaults.
func (e *Env) rpcOptions(p config.ResilienceParams) rpc.Options {
	opt := e.RPCOptions
	if opt.Metrics == nil {
		opt.Metrics = e.Metrics
	}
	if opt.Clock == nil {
		// Breaker and backoff timing follow the same clock as
		// collection, so virtual-time runs stay deterministic.
		opt.Clock = e.Clock
	}
	if p.ReconnectBackoff > 0 {
		opt.ReconnectBackoff = p.ReconnectBackoff
	}
	if p.CallTimeout > 0 {
		opt.CallTimeout = p.CallTimeout
	}
	if p.BreakerThreshold > 0 {
		opt.BreakerThreshold = p.BreakerThreshold
	}
	if p.BreakerCooldown > 0 {
		opt.BreakerCooldown = p.BreakerCooldown
	}
	return opt
}

func (e *Env) now() time.Time {
	if e.Clock != nil {
		return e.Clock()
	}
	return time.Now()
}

func (e *Env) alarmWriter() io.Writer {
	if e.AlarmWriter != nil {
		return e.AlarmWriter
	}
	return io.Discard
}

// Register adds every ASDF module to the registry, bound to env.
func Register(reg *core.Registry, env *Env) {
	if env == nil {
		env = NewEnv()
	}
	reg.Register("sadc", func() core.Module { return &sadcModule{collectPlane: collectPlane{env: env}} })
	reg.Register("hadoop_log", func() core.Module { return &hadoopLogModule{collectPlane: collectPlane{env: env}} })
	reg.Register("mavgvec", func() core.Module { return &mavgvecModule{} })
	reg.Register("knn", func() core.Module { return &knnModule{} })
	reg.Register("ibuffer", func() core.Module { return &ibufferModule{env: env} })
	reg.Register("analysis_bb", func() core.Module { return &analysisBBModule{} })
	reg.Register("analysis_wb", func() core.Module { return &analysisWBModule{} })
	reg.Register("print", func() core.Module { return &printModule{env: env} })
	reg.Register("action", func() core.Module { return &actionModule{env: env} })
	reg.Register("rule", func() core.Module { return &ruleModule{} })
	reg.Register("csv", func() core.Module { return &csvModule{} })
}

// NewRegistry builds a registry with all ASDF modules bound to env.
func NewRegistry(env *Env) *core.Registry {
	reg := core.NewRegistry()
	Register(reg, env)
	return reg
}

// errMissingParam standardizes missing-parameter errors.
func errMissingParam(module, param string) error {
	return fmt.Errorf("%s: required parameter %q missing", module, param)
}
