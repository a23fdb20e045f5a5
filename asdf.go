// Package asdf is the public API of ASDF, an automated, online framework
// for diagnosing performance problems in distributed systems (Bare et al.),
// reproduced as a Go library.
//
// ASDF localizes performance problems ("fingerpointing") while the system
// under diagnosis is running: pluggable data-collection modules feed
// time-varying data sources — OS performance counters, Hadoop logs — into
// pluggable analysis modules wired together as a DAG by a configuration
// file. The repository also contains a complete Hadoop cluster simulator
// substrate, the paper's black-box and white-box peer-comparison analyses,
// and an evaluation harness that regenerates every table and figure of the
// paper's evaluation.
//
// # Quick start
//
//	env := asdf.NewEnv()                    // register data sources here
//	reg := asdf.NewRegistry(env)            // all built-in modules
//	cfg, err := asdf.ParseConfigString(`
//	[sadc]
//	id = collector
//	node = myhost
//	period = 1
//
//	[print]
//	id = sink
//	only_nonzero = false
//	input[a] = collector.output0
//	`)
//	eng, err := asdf.NewEngine(reg, cfg)
//	err = eng.Run(ctx)                      // online, wall-clock mode
//
// See the examples directory for complete programs, including the paper's
// full two-pipeline Hadoop configuration over the simulator.
package asdf

import (
	"time"

	"github.com/asdf-project/asdf/internal/analysis"
	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/modules"
	"github.com/asdf-project/asdf/internal/sadc"
	"github.com/asdf-project/asdf/internal/telemetry"
)

// Engine is an fpt-core instance: the module DAG plus its scheduler.
// Drive it with Tick/Flush (deterministic virtual time) or Run (wall
// clock).
type Engine = core.Engine

// EngineOption customizes engine construction.
type EngineOption = core.Option

// Module is the plug-in interface all data-collection and analysis modules
// implement.
type Module = core.Module

// Registry maps configuration section names to module factories.
type Registry = core.Registry

// InitContext and RunContext are passed to Module implementations.
type (
	InitContext = core.InitContext
	RunContext  = core.RunContext
)

// Sample is one timestamped data point on a DAG edge; Origin describes its
// provenance.
type (
	Sample = core.Sample
	Origin = core.Origin
)

// RunReason says why a module's Run was invoked.
type RunReason = core.RunReason

// Run reasons.
const (
	RunPeriodic = core.RunPeriodic
	RunInputs   = core.RunInputs
	RunFlush    = core.RunFlush
)

// InputPort and OutputPort are the ends of DAG edges.
type (
	InputPort  = core.InputPort
	OutputPort = core.OutputPort
)

// Config is a parsed fpt-core configuration file.
type Config = config.File

// Env supplies external resources (procfs providers, log buffers, alarm
// sinks) to the built-in modules.
type Env = modules.Env

// Model is a trained black-box model: log-scaling sigmas plus k-means
// workload-state centroids.
type Model = analysis.Model

// NewEnv returns an empty module environment.
func NewEnv() *Env { return modules.NewEnv() }

// NewRegistry returns a registry containing every built-in ASDF module
// (sadc, hadoop_log, mavgvec, knn, ibuffer, analysis_bb, analysis_wb,
// print, csv) bound to env. Custom modules can be added with Register.
func NewRegistry(env *Env) *Registry { return modules.NewRegistry(env) }

// NewBareRegistry returns an empty registry for fully custom module sets.
func NewBareRegistry() *Registry { return core.NewRegistry() }

// ParseConfig parses an fpt-core configuration file from disk.
func ParseConfig(path string) (*Config, error) { return config.ParseFile(path) }

// ParseConfigString parses fpt-core configuration text.
func ParseConfigString(text string) (*Config, error) { return config.ParseString(text) }

// NewEngine builds the module DAG from a parsed configuration, following
// the paper's unsatisfied-inputs construction; dangling references, missing
// modules, and dependency cycles are configuration errors.
func NewEngine(reg *Registry, cfg *Config, opts ...EngineOption) (*Engine, error) {
	return core.NewEngine(reg, cfg, opts...)
}

// WithErrorHandler sets the callback invoked when a module's Run fails; the
// default logs and keeps monitoring.
func WithErrorHandler(f func(instanceID string, err error)) EngineOption {
	return core.WithErrorHandler(f)
}

// WithLogger sets the engine's diagnostic logger.
func WithLogger(l core.Logger) EngineOption { return core.WithLogger(l) }

// Supervised-runtime types: structured failures, per-instance health
// snapshots, and the quarantine lifecycle (see internal/core/supervisor.go
// and DESIGN.md §5d).
type (
	InstanceError   = core.InstanceError
	InstanceHealth  = core.InstanceHealth
	FailureKind     = core.FailureKind
	SupervisorState = core.SupervisorState
	DegradePolicy   = core.DegradePolicy
)

// Failure kinds, supervisor states, and degrade policies.
const (
	FailureError   = core.FailureError
	FailurePanic   = core.FailurePanic
	FailureTimeout = core.FailureTimeout

	SupervisorHealthy     = core.SupervisorHealthy
	SupervisorQuarantined = core.SupervisorQuarantined
	SupervisorProbing     = core.SupervisorProbing

	DegradeSkip = core.DegradeSkip
	DegradeHold = core.DegradeHold
	DegradeZero = core.DegradeZero
	DegradeAuto = core.DegradeAuto
)

// WithWatchdog sets the default per-run watchdog deadline: a module Run
// exceeding it is abandoned (never double-run) and counted as a timeout
// failure. 0 disables the watchdog; the per-instance run_timeout parameter
// overrides it.
func WithWatchdog(d time.Duration) EngineOption { return core.WithWatchdog(d) }

// WithQuarantine sets the default failure budget: after threshold
// consecutive failures an instance is quarantined until a half-open probe
// after cooldown re-admits it. threshold 0 disables quarantine; the
// per-instance quarantine_threshold / quarantine_cooldown parameters
// override it.
func WithQuarantine(threshold int, cooldown time.Duration) EngineOption {
	return core.WithQuarantine(threshold, cooldown)
}

// WithDegrade sets the default gap-fill policy for quarantined instances'
// outputs; the per-instance degrade parameter overrides it.
func WithDegrade(p DegradePolicy) EngineOption { return core.WithDegrade(p) }

// WithDegradeResolver supplies the effective policy for instances whose
// degrade policy is DegradeAuto — typically an AdaptiveController's
// DegradePolicy method, so gap-fill tightens with the live open-breaker
// fraction. Nil (the default) makes auto behave as skip.
func WithDegradeResolver(f func() DegradePolicy) EngineOption {
	return core.WithDegradeResolver(f)
}

// ParseDegradePolicy parses "skip", "hold", "zero", or "auto" ("" = skip).
func ParseDegradePolicy(s string) (DegradePolicy, error) { return core.ParseDegradePolicy(s) }

// AdaptiveController derives the control node's degrade posture from the
// live open-breaker fraction of the collection plane, with hysteresis (see
// DESIGN.md §5i). Wire one instance into Env.Adaptive and the engine's
// WithDegradeResolver so degrade = auto and sync_quorum = auto resolve
// through the same controller.
type (
	AdaptiveController = modules.AdaptiveController
	AdaptiveConfig     = modules.AdaptiveConfig
)

// NewAdaptiveController builds an adaptive degradation controller;
// zero-value config fields take the documented defaults.
func NewAdaptiveController(cfg AdaptiveConfig) *AdaptiveController {
	return modules.NewAdaptiveController(cfg)
}

// StatusReport is the operator snapshot served by cmd/asdf's /status
// endpoint: supervisor, breaker, and sync state for one engine.
type StatusReport = modules.StatusReport

// MethodStatus is the RPC method serving a StatusReport on the address
// given by cmd/asdf -status-rpc-addr.
const MethodStatus = modules.MethodStatus

// CollectStatus assembles a StatusReport from a live engine.
func CollectStatus(eng *Engine, now time.Time) StatusReport {
	return modules.CollectStatus(eng, now)
}

// Telemetry is a metrics registry with Prometheus text exposition: pass one
// registry to WithTelemetry and Env.Metrics, then serve it with WriteTo (as
// cmd/asdf does on GET /metrics). See internal/telemetry and DESIGN.md §5e.
type Telemetry = telemetry.Registry

// NewTelemetry returns an empty metrics registry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// WithTelemetry registers the engine's runtime metrics — per-instance run
// latency, tick durations, queue depth, supervisor transition
// counters — on reg. Set Env.Metrics to the same registry to add the
// collection plane's RPC and timestamp-sync metrics.
func WithTelemetry(reg *Telemetry) EngineOption { return core.WithTelemetry(reg) }

// TrainModel fits a black-box model on fault-free raw metric vectors:
// log-scaling sigmas plus k centroids from k-means (§4.5 of the paper).
func TrainModel(points [][]float64, k int, seed int64) (*Model, error) {
	return analysis.TrainModel(points, k, seed)
}

// TrainValidatedModel fits the black-box model with model selection by the
// paper's criterion (§4.9): k-means is restarted several times and the
// candidate minimizing the fault-free peer-comparison score tail wins.
// series[second][node] is a raw metric vector; all nodes must be
// problem-free. Prefer this over TrainModel whenever per-node time series
// are available.
// Vectors must be full sadc node-metric vectors; the black-box metric
// selection is applied internally.
func TrainValidatedModel(series [][][]float64, k int, seed int64) (*Model, error) {
	indexes, err := sadc.NodeMetricIndexes(sadc.AnalysisMetricNames)
	if err != nil {
		return nil, err
	}
	return analysis.TrainValidatedModel(series, analysis.TrainOptions{
		K:             k,
		Seed:          seed,
		MetricIndexes: indexes,
		Perturb:       sadc.CPUHogPerturbation(),
	})
}

// LoadModel reads a model saved with Model.Save.
func LoadModel(path string) (*Model, error) { return analysis.LoadModel(path) }
