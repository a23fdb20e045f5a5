package eval

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/hierarchy"
	"github.com/asdf-project/asdf/internal/modules"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/sadc"
)

// HierScaleConfig sizes the hierarchical-topology measurement: one root
// sadc instance delegating its whole fleet to shard-leader processes
// (in-process modules.Leader instances behind real loopback RPC servers,
// columnar root hop) versus sweeping the fleet itself. The daemons are
// in-process fakes — a time.Sleep plus a canned record — so the numbers
// isolate the topology's concurrency structure and hop overhead from daemon
// cost.
type HierScaleConfig struct {
	// NodeCounts are the simulated cluster sizes to measure.
	NodeCounts []int
	// LeaderCounts are the leader-fleet sizes to measure at each node
	// count (the baseline always runs the single-process sweep).
	LeaderCounts []int
	// LeaderFanout is each leader's concurrent daemon-fetch budget; the
	// single-process baseline uses the default root fanout.
	LeaderFanout int
	// RPCLatency is the simulated per-call network round trip.
	RPCLatency time.Duration
	// Ticks is how many collection ticks to time per configuration.
	Ticks int
}

// DefaultHierScaleConfig mirrors the nightly hierarchy suite: 512 to 2048
// nodes, 2/4/8 leaders of 16 workers, 500µs per RPC.
func DefaultHierScaleConfig() HierScaleConfig {
	return HierScaleConfig{
		NodeCounts:   []int{512, 1024, 2048},
		LeaderCounts: []int{2, 4, 8},
		LeaderFanout: 16,
		RPCLatency:   500 * time.Microsecond,
		Ticks:        15,
	}
}

// HierScalePoint is one measured (nodes, leaders) cell; leaders = 0 is the
// single-process baseline.
type HierScalePoint struct {
	Nodes     int     `json:"nodes"`
	Leaders   int     `json:"leaders"`
	PerTickMs float64 `json:"per_tick_ms"`
	// SpeedupVsSingle is this cell's per-tick latency advantage over the
	// single-process cell at the same node count; 1.0 for the baseline
	// cells themselves.
	SpeedupVsSingle float64 `json:"speedup_vs_single"`
}

// MeasureHierScaling times the per-tick collection sweep at each configured
// node count, single-process versus delegated to each leader-fleet size,
// and reports every cell (baseline first).
func MeasureHierScaling(cfg HierScaleConfig) ([]HierScalePoint, error) {
	if cfg.Ticks <= 0 {
		return nil, fmt.Errorf("hierscale: ticks must be positive")
	}
	var points []HierScalePoint
	for _, nodes := range cfg.NodeCounts {
		single, err := timeHierSweep(nodes, 0, cfg)
		if err != nil {
			return nil, err
		}
		points = append(points, HierScalePoint{Nodes: nodes, Leaders: 0,
			PerTickMs: float64(single) / float64(time.Millisecond), SpeedupVsSingle: 1})
		for _, leaders := range cfg.LeaderCounts {
			hier, err := timeHierSweep(nodes, leaders, cfg)
			if err != nil {
				return nil, err
			}
			speedup := 0.0
			if hier > 0 {
				speedup = float64(single) / float64(hier)
			}
			points = append(points, HierScalePoint{Nodes: nodes, Leaders: leaders,
				PerTickMs: float64(hier) / float64(time.Millisecond), SpeedupVsSingle: speedup})
		}
	}
	return points, nil
}

// delayedCaller fakes a collection daemon one network round trip away: it
// answers every call with the same reply, decoded as the client decodes one.
type delayedCaller struct {
	delay time.Duration
	reply []byte
}

func (c *delayedCaller) Call(method string, params, result any) error {
	time.Sleep(c.delay)
	if result == nil {
		return nil
	}
	return rpc.DecodeResult(c.reply, result)
}

func (c *delayedCaller) Close() error { return nil }

// timeHierSweep builds one topology — leaders = 0 for the single-process
// baseline — and returns the mean per-tick wall time over cfg.Ticks ticks.
func timeHierSweep(nodes, leaders int, cfg HierScaleConfig) (time.Duration, error) {
	names := make([]string, nodes)
	fakeAddrs := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%04d", i)
		fakeAddrs[i] = fmt.Sprintf("10.0.0.%d:9999", i)
	}
	reply, err := json.Marshal(sadc.Record{Node: make([]float64, 64)})
	if err != nil {
		return 0, err
	}
	dial := func(addr, client string) (rpc.Caller, error) {
		return &delayedCaller{delay: cfg.RPCLatency, reply: reply}, nil
	}
	env := modules.NewEnv()
	var cfgText string
	if leaders == 0 {
		env.Dial = dial
		cfgText = fmt.Sprintf(
			"[sadc]\nid = collect\nnodes = %s\nmode = rpc\naddrs = %s\nperiod = 1s\n",
			strings.Join(names, ","), strings.Join(fakeAddrs, ","))
	} else {
		// The root env keeps the real dialer so the leader hop crosses an
		// actual loopback connection; only the leader→daemon edge is faked.
		per := nodes / leaders
		leaderAddrs := make([]string, leaders)
		ranges := make([]string, leaders)
		for li := 0; li < leaders; li++ {
			lo, hi := li*per, (li+1)*per
			if li == leaders-1 {
				hi = nodes
			}
			lenv := modules.NewEnv()
			lenv.Dial = dial
			ldr, err := modules.NewLeader(lenv, modules.LeaderOptions{
				Name:      fmt.Sprintf("leader%d", li),
				Nodes:     names[lo:hi],
				SadcAddrs: fakeAddrs[lo:hi],
				Fanout:    cfg.LeaderFanout,
			})
			if err != nil {
				return 0, err
			}
			srv := rpc.NewServer(hierarchy.ServiceLeader)
			ldr.Register(srv)
			a, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				return 0, err
			}
			defer srv.Close()
			leaderAddrs[li] = a.String()
			ranges[li] = fmt.Sprintf("%d-%d", lo, hi)
		}
		dashes := make([]string, nodes)
		for i := range dashes {
			dashes[i] = "-"
		}
		cfgText = fmt.Sprintf(
			"[sadc]\nid = collect\nnodes = %s\nmode = rpc\naddrs = %s\nperiod = 1s\nwire = columnar\nleaders = %s\nleader_ranges = %s\n",
			strings.Join(names, ","), strings.Join(dashes, ","),
			strings.Join(leaderAddrs, ","), strings.Join(ranges, ","))
	}
	file, err := config.ParseString(cfgText)
	if err != nil {
		return 0, err
	}
	eng, err := core.NewEngine(modules.NewRegistry(env), file)
	if err != nil {
		return 0, err
	}
	virtual := time.Unix(1_700_000_000, 0)
	// One warmup tick keeps connection setup and stream negotiation out of
	// the timing.
	if err := eng.Tick(virtual.Add(time.Second)); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < cfg.Ticks; i++ {
		if err := eng.Tick(virtual.Add(time.Duration(i+2) * time.Second)); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(cfg.Ticks), nil
}
