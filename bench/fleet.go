package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/asdf-project/asdf/internal/analysis"
	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/eval"
	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/hadoopsim"
	"github.com/asdf-project/asdf/internal/hierarchy"
	"github.com/asdf-project/asdf/internal/modules"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/state"
	"github.com/asdf-project/asdf/internal/telemetry"
)

// Model training matches the repository's default experiment sizing
// (eval.DefaultOptions), on the 16-slave cluster the issue names.
const (
	trainSlaves  = 16
	trainSeconds = 300
	trainStates  = 4
)

// Daemons and leaders listen on consecutive loopback ports from a fixed
// base below the kernel's ephemeral range, skipping any that are taken.
// Port 0 would be simpler, but every run leaves thousands of connections in
// TIME_WAIT for a minute, and the kernel's search for a free ephemeral port
// then slows a thousandfold: back-to-back runs would measure a set-up a
// second longer than a first run does. A fixed port rebinds at once
// (SO_REUSEADDR), whatever state its previous connections are in.
const (
	listenPortBase = 20000
	listenPortEnd  = 30000
)

// buildTimes are the set-up steps that are per-layer metrics of their own.
type buildTimes struct {
	configParse time.Duration
	configBytes int
	engineBuild time.Duration
}

// stack is one workload's system under test — daemons, leaders, state
// manager and control-node engine — beside the reference engine that is
// ticked in lock-step on the same simulated cluster (or replay recording)
// outside every timed interval.
type stack struct {
	w     workload
	nodes int
	seed  int64
	dir   string // scratch directory: model file, state file

	cluster   *hadoopsim.Cluster // nil for the replay workload
	rec       *recording         // replay workload only
	vnow      time.Time          // virtual time of the last tick
	faultNode int
	model     *analysis.Model
	params    eval.AnalysisParams

	// The system under test. release drops all of it.
	servers  []*rpc.Server // daemon and leader listeners
	leaders  []*modules.Leader
	eng      *core.Engine
	stateMgr *state.Manager
	reg      *telemetry.Registry // traced runs only
	sink     *sinkCapture
	runErrs  atomic.Int64 // module run errors routed to the engine's handler

	// The reference: local collection, one instance per node, serial.
	ref     *core.Engine
	refSink *sinkCapture

	// Listener addresses, for attributing per-address RPC telemetry to a hop.
	sadcAddrs   []string
	logAddrs    []string
	leaderAddrs []string

	times  buildTimes
	ticks  int            // ticks so far, warm-up included
	allocs *allocCounters // heap allocation counters read around every tick
	probe  *tickProbe     // traced runs only: per-tick gauge samples
}

// fdNeed is how many descriptors a fleet of n nodes with two daemons each
// holds open: per daemon a listener, the accepted connection and the
// client's end of it, plus slack for leaders, the state file and the
// runtime.
func fdNeed(n int) uint64 { return uint64(n)*2*3 + 256 }

// checkFileLimit aborts early, with a clear message, when the descriptor
// limit cannot hold the fleet; without it the failure would be a late
// "too many open files" somewhere inside a daemon's accept loop.
func checkFileLimit(n int) error {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return fmt.Errorf("bench: read RLIMIT_NOFILE: %w", err)
	}
	if need := fdNeed(n); lim.Cur < need {
		return fmt.Errorf("bench: ulimit -n is %d, but %d nodes x 2 daemons need %d open files; raise it (ulimit -n %d)",
			lim.Cur, n, need, need)
	}
	return nil
}

// nodeNames are the monitored node names, in node-index order.
func nodeNames(c *hadoopsim.Cluster) []string {
	slaves := c.Slaves()
	out := make([]string, len(slaves))
	for i, n := range slaves {
		out[i] = n.Name
	}
	return out
}

// buildStack performs the whole set-up setup_s measures: model training,
// cluster build, daemon listen, configuration parse, engine build and the
// warm-up ticks. nodes overrides the workload's fleet size (tests use small
// fleets); traced wires the telemetry registry through engine and modules.
func buildStack(w workload, nodes int, seed int64, traced bool, scratch string) (s *stack, err error) {
	if nodes <= 0 {
		nodes = w.Nodes
	}
	if !w.Replay {
		if err := checkFileLimit(nodes); err != nil {
			return nil, err
		}
	}
	dir, err := os.MkdirTemp(scratch, "stack-")
	if err != nil {
		return nil, err
	}
	s = &stack{w: w, nodes: nodes, seed: seed, dir: dir,
		sink: newSinkCapture(true), refSink: newSinkCapture(false), allocs: newAllocCounters()}
	defer func() {
		if err != nil {
			s.release()
			s.discard()
		}
	}()
	if traced {
		s.reg = telemetry.NewRegistry()
	}

	s.model, err = eval.TrainDefaultModel(trainSlaves, seed, trainSeconds, trainStates)
	if err != nil {
		return nil, fmt.Errorf("train model: %w", err)
	}
	modelPath := filepath.Join(dir, "model.json")
	if err := s.model.Save(modelPath); err != nil {
		return nil, err
	}
	s.params = eval.DefaultParams(s.model.NumStates())

	var sysText, refText string
	sysReg := modules.NewRegistry(s.systemEnv())
	var refReg *core.Registry
	if w.Replay {
		recNodes := replayRecNodes
		if nodes < recNodes {
			recNodes = nodes
		}
		s.faultNode = int(seed % int64(recNodes))
		if s.rec, err = recordFleet(seed, recNodes, replayRecTicks, s.faultNode); err != nil {
			return nil, err
		}
		s.vnow = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
		sysReg.Register("replay", func() core.Module { return newReplaySource(s.rec, nodes, seed) })
		refEnv := modules.NewEnv()
		refEnv.AlarmWriter = s.refSink
		refReg = modules.NewRegistry(refEnv)
		refReg.Register("replay", func() core.Module { return newReplaySource(s.rec, nodes, seed) })
		sysText = replayConfig(nodes, modelPath, s.params, true)
		refText = replayConfig(nodes, modelPath, s.params, false)
	} else {
		if s.cluster, err = hadoopsim.NewCluster(hadoopsim.DefaultConfig(nodes, seed)); err != nil {
			return nil, err
		}
		s.faultNode = int(seed % int64(nodes))
		spec, err := s.listenFleet(modelPath)
		if err != nil {
			return nil, err
		}
		sysText = fleetConfig(spec)
		refEnv := eval.SimEnv(s.cluster)
		refEnv.AlarmWriter = s.refSink
		refReg = modules.NewRegistry(refEnv)
		refText = fleetConfig(pipelineSpec{names: spec.names, modelPath: modelPath, params: s.params})
	}

	t0 := time.Now()
	sysFile, err := config.ParseString(sysText)
	s.times.configParse = time.Since(t0)
	s.times.configBytes = len(sysText)
	if err != nil {
		return nil, fmt.Errorf("system config: %w", err)
	}
	opts := []core.Option{core.WithErrorHandler(func(string, error) { s.runErrs.Add(1) })}
	if traced {
		opts = append(opts, core.WithTelemetry(s.reg))
	}
	t0 = time.Now()
	s.eng, err = core.NewEngine(sysReg, sysFile, opts...)
	s.times.engineBuild = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("system engine: %w", err)
	}
	if w.SnapshotEvery > 0 {
		s.stateMgr, err = state.Open(s.eng, state.Options{
			Path:    filepath.Join(dir, "asdf.state"),
			Clock:   s.clock,
			Metrics: s.reg,
		})
		if err != nil {
			return nil, err
		}
	}

	refFile, err := config.ParseString(refText)
	if err != nil {
		return nil, fmt.Errorf("reference config: %w", err)
	}
	// A reference run error would silently thin the expected row set, so it
	// is counted with the system's and fails the run.
	s.ref, err = core.NewEngine(refReg, refFile,
		core.WithErrorHandler(func(string, error) { s.runErrs.Add(1) }))
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}

	for i := 0; i < warmupTicks; i++ {
		if i == faultAtWarmup && s.cluster != nil {
			if err := s.cluster.InjectFault(s.faultNode, hadoopsim.FaultCPUHog); err != nil {
				return nil, err
			}
		}
		var tr tickRecord
		s.step(&tr)
	}
	return s, nil
}

// clock is the virtual clock daemons, leaders and the state manager share.
func (s *stack) clock() time.Time {
	if s.cluster != nil {
		return s.cluster.Now()
	}
	return s.vnow
}

// systemEnv is the module environment of one process of the system under
// test (the control node, or a leader).
func (s *stack) systemEnv() *modules.Env {
	env := modules.NewEnv()
	env.Clock = s.clock
	env.Metrics = s.reg
	env.AlarmWriter = s.sink
	return env
}

// listenFleet starts a sadc and a hadoop_log RPC server per simulated node
// on loopback TCP, and the leaders in front of them when the workload
// delegates, and returns the system's pipeline description.
func (s *stack) listenFleet(modelPath string) (pipelineSpec, error) {
	slaves := s.cluster.Slaves()
	spec := pipelineSpec{
		names:     nodeNames(s.cluster),
		modelPath: modelPath,
		params:    s.params,
		rpc:       true,
		wire:      s.w.Wire,
		batched:   s.w.Batched,
		ibuffer:   !s.w.Batched,
		sadcAddrs: make([]string, len(slaves)),
		logAddrs:  make([]string, len(slaves)),
	}
	port := listenPortBase
	listen := func(srv *rpc.Server) (string, error) {
		s.servers = append(s.servers, srv)
		var err error
		for ; port < listenPortEnd; port++ {
			var a net.Addr
			if a, err = srv.Listen(fmt.Sprintf("127.0.0.1:%d", port)); err == nil {
				port++
				return a.String(), nil
			}
		}
		return "", fmt.Errorf("no free loopback port in %d-%d: %w", listenPortBase, listenPortEnd, err)
	}
	for i, n := range slaves {
		srv := rpc.NewServer(modules.ServiceSadc)
		modules.RegisterSadcServer(srv, n)
		addr, err := listen(srv)
		if err != nil {
			return spec, err
		}
		spec.sadcAddrs[i] = addr

		srv = rpc.NewServer(modules.ServiceHadoopLog)
		modules.RegisterHadoopLogServer(srv, n.TaskTrackerLog(), n.DataNodeLog(), s.cluster.Now)
		if addr, err = listen(srv); err != nil {
			return spec, err
		}
		spec.logAddrs[i] = addr
	}
	s.sadcAddrs, s.logAddrs = spec.sadcAddrs, spec.logAddrs

	if s.w.Leaders > 0 {
		per := len(slaves) / s.w.Leaders
		for li := 0; li < s.w.Leaders; li++ {
			lo, hi := li*per, (li+1)*per
			if li == s.w.Leaders-1 {
				hi = len(slaves)
			}
			ldr, err := modules.NewLeader(s.systemEnv(), modules.LeaderOptions{
				Name:      fmt.Sprintf("leader%d", li),
				Nodes:     spec.names[lo:hi],
				SadcAddrs: spec.sadcAddrs[lo:hi],
				LogAddrs:  spec.logAddrs[lo:hi],
				LogKind:   hadooplog.KindTaskTracker,
				Wire:      s.w.Wire,
			})
			if err != nil {
				return spec, err
			}
			s.leaders = append(s.leaders, ldr)
			srv := rpc.NewServer(hierarchy.ServiceLeader)
			ldr.Register(srv)
			addr, err := listen(srv)
			if err != nil {
				return spec, err
			}
			spec.leaders = append(spec.leaders, addr)
			spec.ranges = append(spec.ranges, hierarchy.Range{Start: lo, End: hi}.String())
		}
		s.leaderAddrs = spec.leaders
	}
	return spec, nil
}

// wireBytes sums the exact bytes sent and received over every managed
// connection of the system, every hop: the control node's collectors
// (leader links included) and each leader's daemon connections.
func (s *stack) wireBytes() (total, rootHop uint64) {
	add := func(v modules.EngineView) {
		for _, id := range v.Instances() {
			mod, ok := v.ModuleOf(id)
			if !ok {
				continue
			}
			br, ok := mod.(modules.BreakerReporter)
			if !ok {
				continue
			}
			for _, h := range br.ClientHealths() {
				total += h.BytesSent + h.BytesReceived
			}
		}
	}
	add(s.eng)
	rootHop = total
	for _, l := range s.leaders {
		add(l)
	}
	if len(s.leaders) == 0 {
		rootHop = 0
	}
	return total, rootHop
}

// release tears the system under test down: final snapshot and lock
// release, every listener and accepted connection closed, every reference
// dropped so that a forced GC can finalize the client ends. The reference
// engine, the cluster and the captured rows stay, for the live-heap
// difference and the correctness check.
func (s *stack) release() {
	if s.eng != nil {
		// A flush is the engine's only shutdown hook: the batched analysis
		// modules park worker pools that only a flush releases.
		_ = s.eng.Flush(s.vnow)
	}
	if s.stateMgr != nil {
		_ = s.stateMgr.Close() // the final snapshot's outcome changes nothing here
		s.stateMgr = nil
	}
	for _, srv := range s.servers {
		_ = srv.Close() // listener already gone is fine at teardown
	}
	s.servers, s.leaders, s.eng, s.reg = nil, nil, nil, nil
}

// discard drops the reference side and removes the scratch directory.
func (s *stack) discard() {
	if s.ref != nil {
		_ = s.ref.Flush(s.vnow)
	}
	s.ref, s.cluster, s.rec = nil, nil, nil
	_ = os.RemoveAll(s.dir) // scratch inside bench/out; a leftover is harmless
}

// settleGoroutines waits for the goroutine count to fall back to base: the
// servers' accept and connection loops exit asynchronously after Close.
func settleGoroutines(base int) (int, bool) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		time.Sleep(5 * time.Millisecond)
	}
}
