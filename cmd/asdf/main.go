// Command asdf is the ASDF control node: it loads an fpt-core
// configuration, wires the data-collection and analysis modules into a DAG,
// and fingerpoints online until interrupted (§3.1 of the paper).
//
// Data sources are typically remote: sadc and hadoop_log module instances
// in `mode = rpc` poll the per-node sadc-rpcd and hadoop-log-rpcd daemons.
// Alarms from print modules go to stdout.
//
// With -status-addr the control node also serves an operator health
// endpoint: GET /healthz answers ok/degraded, GET /status returns a JSON
// snapshot of per-instance supervisor state, per-node breaker health, and
// timestamp-sync counters, and GET /metrics exposes the same runtime — run
// latency histograms, tick durations, supervisor transitions,
// breaker states, sync counters — in Prometheus text format for scraping.
// -status-rpc-addr serves the status snapshot over the native RPC protocol
// for tooling that already speaks it (see cmd/asdf-status). With -pprof the
// Go runtime profiles are additionally served under /debug/pprof/ on the
// status address.
//
// Usage:
//
//	asdf -config fpt.conf
//	asdf -config fpt.conf -status-addr 127.0.0.1:7070
//	asdf -list-modules
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	asdf "github.com/asdf-project/asdf"
	"github.com/asdf-project/asdf/internal/modules"
	"github.com/asdf-project/asdf/internal/state"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("asdf", flag.ContinueOnError)
	configPath := fs.String("config", "", "fpt-core configuration file (required)")
	listModules := fs.Bool("list-modules", false, "list available modules and exit")
	callTimeout := fs.Duration("call-timeout", 0, "per-RPC deadline for collection daemons (0 = default 10s)")
	reconnectBackoff := fs.Duration("reconnect-backoff", 0, "initial reconnect backoff to a dead daemon (0 = default 100ms)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive failures before a node's circuit breaker opens (0 = default 5)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "open-breaker wait before a half-open probe (0 = default 2s)")
	runTimeout := fs.Duration("run-timeout", 0, "watchdog deadline per module Run; a wedged Run is abandoned and counted as a timeout failure (0 = no watchdog)")
	quarThreshold := fs.Int("quarantine-threshold", 0, "consecutive module failures (error/panic/timeout) before an instance is quarantined (0 = never)")
	quarCooldown := fs.Duration("quarantine-cooldown", 0, "quarantined-instance wait before a half-open re-probe (0 = default 10s)")
	degrade := fs.String("degrade", "skip", "gap-fill policy for a quarantined instance's outputs: skip, hold, zero, or auto (tightens to hold while the open-breaker fraction is high)")
	wire := fs.String("wire", "", "default wire format for rpc-mode collection instances: json or columnar (delta-encoded streams); the wire parameter overrides per instance")
	stateFile := fs.String("state-file", "", "persist supervisor/breaker/watermark state to this file and restore it on restart (crash-safe control plane)")
	stateInterval := fs.Duration("state-interval", 5*time.Second, "interval between state snapshots (with -state-file)")
	probeBudget := fs.Int("probe-budget", 4, "restored open breakers re-probed per probe interval after a restart (with -state-file)")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "stagger interval for restored-breaker re-probes after a restart (with -state-file)")
	statusAddr := fs.String("status-addr", "", "serve the operator health endpoint (GET /healthz, GET /status) on this address")
	statusRPCAddr := fs.String("status-rpc-addr", "", "serve the status snapshot over the native RPC protocol on this address")
	pprofEnabled := fs.Bool("pprof", false, "also serve net/http/pprof profiles under /debug/pprof/ on -status-addr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	degradePolicy, err := asdf.ParseDegradePolicy(*degrade)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asdf: %v\n", err)
		return 2
	}
	if *pprofEnabled && *statusAddr == "" {
		fmt.Fprintln(os.Stderr, "asdf: -pprof requires -status-addr")
		return 2
	}

	// One registry covers the whole control node: the engine's scheduler
	// and supervisor metrics, the collection plane's per-node RPC metrics,
	// and the sync counters all land here, served on GET /metrics.
	metrics := asdf.NewTelemetry()

	// The adaptive controller derives the degrade posture from the live
	// open-breaker fraction: degrade = auto and sync_quorum = auto resolve
	// through it, with transitions logged and exposed as asdf_adaptive_*.
	adaptive := asdf.NewAdaptiveController(asdf.AdaptiveConfig{
		Metrics: metrics,
		Logf:    log.Printf,
	})

	env := asdf.NewEnv()
	env.AlarmWriter = os.Stdout
	env.Metrics = metrics
	env.Adaptive = adaptive
	// Collection-plane resilience defaults; per-instance configuration
	// parameters override these.
	env.RPCOptions.CallTimeout = *callTimeout
	env.RPCOptions.ReconnectBackoff = *reconnectBackoff
	env.RPCOptions.BreakerThreshold = *breakerThreshold
	env.RPCOptions.BreakerCooldown = *breakerCooldown
	env.RPCOptions.Clock = time.Now
	env.DefaultWire = *wire
	reg := asdf.NewRegistry(env)

	if *listModules {
		for _, name := range reg.Names() {
			fmt.Println(name)
		}
		return 0
	}
	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "asdf: -config is required (see -h)")
		return 2
	}

	cfg, err := asdf.ParseConfig(*configPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asdf: %v\n", err)
		return 1
	}
	// Module failures (a dead collection daemon, a parse failure, a panic,
	// a wedged Run) are supervised: logged and retried, quarantined past
	// the failure budget, never fatal.
	eng, err := asdf.NewEngine(reg, cfg,
		asdf.WithTelemetry(metrics),
		asdf.WithWatchdog(*runTimeout),
		asdf.WithQuarantine(*quarThreshold, *quarCooldown),
		asdf.WithDegrade(degradePolicy),
		asdf.WithDegradeResolver(adaptive.DegradePolicy),
		asdf.WithErrorHandler(func(id string, err error) {
			log.Printf("asdf: module %s: %v", id, err)
		}))
	if err != nil {
		fmt.Fprintf(os.Stderr, "asdf: %v\n", err)
		return 1
	}
	log.Printf("asdf: %d module instances wired: %v", len(eng.Instances()), eng.Instances())

	// With -state-file the control node is crash-safe: supervisor state,
	// per-node breaker state, and the collectors' publish watermarks are
	// snapshotted periodically and restored on boot, so a kill -9 resumes
	// quarantine clocks, staggers re-probes of known-dead daemons, and never
	// re-publishes data the previous life already delivered.
	var mgr *state.Manager
	if *stateFile != "" {
		mgr, err = state.Open(eng, state.Options{
			Path:          *stateFile,
			Interval:      *stateInterval,
			Logf:          log.Printf,
			Metrics:       metrics,
			ProbeBudget:   *probeBudget,
			ProbeInterval: *probeInterval,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "asdf: state: %v\n", err)
			return 1
		}
		defer func() { _ = mgr.Close() }()
		if st := mgr.Status(); st.Restarts > 0 {
			log.Printf("asdf: restart #%d: restored %d supervisors, %d breakers, %d watermarks from %s",
				st.Restarts, st.RestoredSupervisors, st.RestoredBreakers, st.RestoredWatermarks, st.Path)
		}
	}
	view := statusView{Engine: eng, mgr: mgr}

	if *statusAddr != "" {
		httpSrv, addr, err := serveStatusHTTP(*statusAddr, view, metrics, *pprofEnabled)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asdf: status endpoint: %v\n", err)
			return 1
		}
		defer func() { _ = httpSrv.Close() }()
		log.Printf("asdf: status endpoint on http://%s/status", addr)
		if *pprofEnabled {
			log.Printf("asdf: pprof on http://%s/debug/pprof/", addr)
		}
	}
	if *statusRPCAddr != "" {
		rpcSrv, addr, err := modules.ListenStatus(*statusRPCAddr, view, time.Now)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asdf: status rpc: %v\n", err)
			return 1
		}
		defer func() { _ = rpcSrv.Close() }()
		log.Printf("asdf: status rpc on %s", addr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if mgr != nil {
		go mgr.Run(ctx)
	}
	log.Printf("asdf: fingerpointing online; interrupt to stop")
	if err := eng.Run(ctx); err != nil && err != context.Canceled {
		fmt.Fprintf(os.Stderr, "asdf: %v\n", err)
		return 1
	}
	return 0
}

// statusView is the engine surface the status endpoints render: the engine
// itself plus, when -state-file is set, the crash-safe state manager's
// restart accounting (the RESTART section of asdf-status and the
// StatusReport's restart field).
type statusView struct {
	*asdf.Engine
	mgr *state.Manager
}

func (v statusView) RestartStatus() (state.RestartStatus, bool) {
	if v.mgr == nil {
		return state.RestartStatus{}, false
	}
	return v.mgr.Status(), true
}

// serveStatusHTTP starts the operator health endpoint on addr and returns
// the server with its bound address. GET /healthz answers 200 "ok" while
// no instance is quarantined or wedged and no collection breaker is open,
// 503 "degraded" otherwise; GET /status returns the full JSON snapshot; and
// GET /metrics serves the telemetry registry in Prometheus text format.
// With pprofOn, the Go runtime profiles are additionally served under
// /debug/pprof/ — opt-in, since the profile endpoints expose stacks and
// command lines and cost CPU while sampling.
func serveStatusHTTP(addr string, view statusView, metrics *asdf.Telemetry, pprofOn bool) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		rep := modules.CollectStatus(view, time.Now())
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if rep.Healthy {
			fmt.Fprintln(w, "ok")
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "degraded")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if _, err := metrics.WriteTo(w); err != nil {
			log.Printf("asdf: metrics write: %v", err)
		}
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		rep := modules.CollectStatus(view, time.Now())
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Printf("asdf: status encode: %v", err)
		}
	})
	if pprofOn {
		// Explicit registration: the status server uses its own mux, so the
		// net/http/pprof init-time DefaultServeMux routes never apply.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("asdf: status endpoint: %v", err)
		}
	}()
	return srv, ln.Addr(), nil
}
