// Command asdf-shardd is the shard-leader of the hierarchical collection
// plane: it owns the managed daemon connections, sweeps, and wire
// negotiation for one contiguous node range, and serves merged per-tick
// partials to the root asdf process (hierarchy JSON sweeps plus their
// columnar stream counterparts). The root's sadc / hadoop_log instances
// delegate ranges to leaders with the leaders / leader_ranges parameters.
//
// Sweeps are pull-driven — one sweep per root request — so the root's tick
// clock paces the whole tree and sink output stays byte-identical to the
// single-process configuration.
//
// Usage:
//
//	asdf-shardd -listen :7411 -nodes node0,node1 -sadc-addrs :7401,:7402
//	asdf-shardd -listen :7412 -nodes node2,node3 -hlog-addrs :7501,:7502 -hlog-kind tasktracker
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/hierarchy"
	"github.com/asdf-project/asdf/internal/modules"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/state"
	"github.com/asdf-project/asdf/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("asdf-shardd", flag.ContinueOnError)
	listen := fs.String("listen", ":7411", "address to serve the leader RPC on")
	name := fs.String("name", "leader", "leader name in status output and stream schemas")
	nodes := fs.String("nodes", "", "comma-separated node names of the delegated range, in the root's order (required)")
	sadcAddrs := fs.String("sadc-addrs", "", "comma-separated sadc-rpcd daemon addresses, parallel to -nodes")
	hlogAddrs := fs.String("hlog-addrs", "", "comma-separated hadoop-log-rpcd daemon addresses, parallel to -nodes")
	hlogKind := fs.String("hlog-kind", "tasktracker", "hadoop_log daemon kind: tasktracker or datanode")
	fanout := fs.Int("fanout", 0, "concurrent daemon-fetch budget per sweep (0 = min(16, nodes), 1 = serial)")
	wire := fs.String("wire", "", "leader→daemon wire format: json or columnar (delta-encoded streams with per-node JSON fallback)")
	callTimeout := fs.Duration("call-timeout", 0, "per-RPC deadline for collection daemons (0 = default 10s)")
	reconnectBackoff := fs.Duration("reconnect-backoff", 0, "initial reconnect backoff to a dead daemon (0 = default 100ms)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive failures before a daemon's circuit breaker opens (0 = default 5)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "open-breaker wait before a half-open probe (0 = default 2s)")
	stateFile := fs.String("state-file", "", "persist daemon breaker state to this file and restore it on restart")
	stateInterval := fs.Duration("state-interval", 5*time.Second, "interval between state snapshots (with -state-file)")
	probeBudget := fs.Int("probe-budget", 4, "restored open breakers re-probed per probe interval after a restart (with -state-file)")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "stagger interval for restored-breaker re-probes after a restart (with -state-file)")
	statusAddr := fs.String("status-addr", "", "serve the leader health endpoint (GET /healthz, /status, /metrics) on this address")
	injectRefuse := fs.Bool("inject-refuse", false, "fault drill: refuse all new root connections")
	injectDelay := fs.Duration("inject-delay", 0, "fault drill: delay every response by this duration")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	nodeList := splitList(*nodes)
	if len(nodeList) == 0 {
		fmt.Fprintln(os.Stderr, "asdf-shardd: -nodes is required (see -h)")
		return 2
	}
	var kind hadooplog.Kind
	switch *hlogKind {
	case "tasktracker":
		kind = hadooplog.KindTaskTracker
	case "datanode":
		kind = hadooplog.KindDataNode
	default:
		fmt.Fprintf(os.Stderr, "asdf-shardd: unknown -hlog-kind %q (want tasktracker or datanode)\n", *hlogKind)
		return 2
	}

	metrics := telemetry.NewRegistry()
	env := modules.NewEnv()
	env.Metrics = metrics
	env.RPCOptions.CallTimeout = *callTimeout
	env.RPCOptions.ReconnectBackoff = *reconnectBackoff
	env.RPCOptions.BreakerThreshold = *breakerThreshold
	env.RPCOptions.BreakerCooldown = *breakerCooldown
	env.RPCOptions.Clock = time.Now

	leader, err := modules.NewLeader(env, modules.LeaderOptions{
		Name:      *name,
		Nodes:     nodeList,
		SadcAddrs: splitList(*sadcAddrs),
		LogAddrs:  splitList(*hlogAddrs),
		LogKind:   kind,
		Fanout:    *fanout,
		Wire:      *wire,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "asdf-shardd: %v\n", err)
		return 2
	}

	// -state-file makes the leader crash-safe the same way it makes the
	// root: daemon breaker state is snapshotted and restored, so a restarted
	// leader staggers re-probes of known-dead daemons instead of hammering
	// them on its first sweep.
	var mgr *state.Manager
	if *stateFile != "" {
		mgr, err = state.Open(leader, state.Options{
			Path:          *stateFile,
			Interval:      *stateInterval,
			Logf:          log.Printf,
			Metrics:       metrics,
			ProbeBudget:   *probeBudget,
			ProbeInterval: *probeInterval,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "asdf-shardd: state: %v\n", err)
			return 1
		}
		defer func() { _ = mgr.Close() }()
		if st := mgr.Status(); st.Restarts > 0 {
			log.Printf("asdf-shardd: restart #%d: restored %d breakers from %s",
				st.Restarts, st.RestoredBreakers, st.Path)
		}
	}

	srv := rpc.NewServer(hierarchy.ServiceLeader)
	leader.Register(srv)
	if *injectRefuse || *injectDelay > 0 {
		srv.SetFaults(rpc.Faults{RefuseNew: *injectRefuse, Delay: *injectDelay})
		log.Printf("asdf-shardd: FAULT DRILL active: refuse=%v delay=%v", *injectRefuse, *injectDelay)
	}
	addr, err := srv.Listen(*listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asdf-shardd: %v\n", err)
		return 1
	}
	log.Printf("asdf-shardd: %s serving %d-node range on %s", *name, len(nodeList), addr)

	if *statusAddr != "" {
		httpSrv, saddr, err := serveStatusHTTP(*statusAddr, leader, mgr, metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asdf-shardd: status endpoint: %v\n", err)
			return 1
		}
		defer func() { _ = httpSrv.Close() }()
		log.Printf("asdf-shardd: status endpoint on http://%s/status", saddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if mgr != nil {
		go mgr.Run(ctx)
	}
	<-ctx.Done()
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "asdf-shardd: shutdown: %v\n", err)
		return 1
	}
	return 0
}

// splitList parses a comma-separated flag value, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

// leaderStatus is the leader's /status document: its sweep accounting plus
// the per-plane daemon breaker health a root operator would otherwise lose
// sight of behind the delegation boundary.
type leaderStatus struct {
	hierarchy.StatusResponse
	Healthy  bool                             `json:"healthy"`
	Breakers map[string]map[string]rpc.Health `json:"breakers,omitempty"`
	Restart  *state.RestartStatus             `json:"restart,omitempty"`
}

func collectLeaderStatus(l *modules.Leader, mgr *state.Manager) leaderStatus {
	st := leaderStatus{StatusResponse: l.Status(), Healthy: true}
	for _, id := range l.Instances() {
		mod, ok := l.ModuleOf(id)
		if !ok {
			continue
		}
		if br, ok := mod.(modules.BreakerReporter); ok {
			if hs := br.ClientHealths(); len(hs) > 0 {
				if st.Breakers == nil {
					st.Breakers = make(map[string]map[string]rpc.Health)
				}
				st.Breakers[id] = hs
				for _, h := range hs {
					if h.State == rpc.BreakerOpen {
						st.Healthy = false
					}
				}
			}
		}
	}
	if mgr != nil {
		rs := mgr.Status()
		st.Restart = &rs
	}
	return st
}

// serveStatusHTTP starts the leader health endpoint on addr: GET /healthz
// answers 200 "ok" while no daemon breaker is open, 503 "degraded"
// otherwise; GET /status returns the JSON snapshot; GET /metrics serves the
// telemetry registry in Prometheus text format.
func serveStatusHTTP(addr string, l *modules.Leader, mgr *state.Manager, metrics *telemetry.Registry) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		st := collectLeaderStatus(l, mgr)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if st.Healthy {
			fmt.Fprintln(w, "ok")
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "degraded")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if _, err := metrics.WriteTo(w); err != nil {
			log.Printf("asdf-shardd: metrics write: %v", err)
		}
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		st := collectLeaderStatus(l, mgr)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			log.Printf("asdf-shardd: status encode: %v", err)
		}
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("asdf-shardd: status endpoint: %v", err)
		}
	}()
	return srv, ln.Addr(), nil
}
