package eval

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/hadoopsim"
	"github.com/asdf-project/asdf/internal/modules"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/telemetry"
)

// ResilienceConfig sizes the collection-plane fault-injection scenario: a
// simulated cluster whose slaves each run real sadc_rpcd/hadoop_log_rpcd
// servers over TCP, with one node's daemons killed mid-run and restarted
// later. Ticks are virtual seconds; the managed clients' breaker timing
// runs on the same virtual clock so the scenario is deterministic.
type ResilienceConfig struct {
	Slaves int
	Seed   int64
	// Victim is the slave index whose daemons are killed. ExtraVictims
	// lists additional slave indexes killed and revived on the same
	// schedule; report fields keyed to "the victim" track Victim.
	Victim       int
	ExtraVictims []int
	// KillAtTick / ReviveAtTick / Ticks partition the run into healthy,
	// outage, and recovered phases.
	KillAtTick   int
	ReviveAtTick int
	Ticks        int
	// FlapPeriodTicks > 0 turns the outage into daemon flapping: instead
	// of staying dead, the victims' daemons come back up after each
	// FlapPeriodTicks down and die again after the same time up, until
	// ReviveAtTick leaves them up for good. Cycles shorter than the
	// breaker cooldown exercise the half-open probe against a daemon
	// that keeps disappearing.
	FlapPeriodTicks int
	// SlowNode, when InjectDelay > 0, is the slave index whose daemons
	// answer every call InjectDelay late during the outage window —
	// asymmetric slowness rather than death. Pair InjectDelay with a
	// shorter CallTimeout to force client-side timeouts. SlowNode must
	// not be a victim (a dead daemon cannot also be slow).
	SlowNode    int
	InjectDelay time.Duration
	// CallTimeout is the managed clients' per-RPC deadline (0 = the rpc
	// package default of 10s).
	CallTimeout time.Duration
	// SyncDeadlineSec and SyncQuorum configure degraded-mode timestamp
	// sync for the white-box collector.
	SyncDeadlineSec int
	SyncQuorum      int
	// BreakerThreshold and BreakerCooldownSec configure the per-node
	// circuit breakers.
	BreakerThreshold   int
	BreakerCooldownSec int
	// TraceWriter, when non-nil, receives one counter line per tick (the
	// CI fault drill points this at its artifact file).
	TraceWriter io.Writer
	// Metrics, when non-nil, receives the whole run's telemetry — engine,
	// supervisor, per-node RPC, and sync metrics — exactly as cmd/asdf
	// wires its registry. The acceptance test scrapes it and checks the
	// values against the Status snapshot.
	Metrics *telemetry.Registry
}

// victims returns every victim index: Victim plus ExtraVictims, deduped.
func (cfg ResilienceConfig) victims() []int {
	out := []int{cfg.Victim}
	seen := map[int]bool{cfg.Victim: true}
	for _, v := range cfg.ExtraVictims {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// DefaultResilienceConfig is the 3-node kill-one scenario used by the test
// suite: kill at t=20, revive at t=45, observe through t=70.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		Slaves:             3,
		Seed:               7,
		Victim:             1,
		KillAtTick:         20,
		ReviveAtTick:       45,
		Ticks:              70,
		SyncDeadlineSec:    3,
		SyncQuorum:         2,
		BreakerThreshold:   3,
		BreakerCooldownSec: 3,
	}
}

// ResilienceReport is what the scenario observed.
type ResilienceReport struct {
	// SurvivorHLDuringOutage counts new white-box publishes on surviving
	// nodes while the victim was down; > 0 means no stall.
	SurvivorHLDuringOutage uint64
	// MaxSurvivorGapTicks is the longest run of outage ticks in which no
	// surviving white-box sample was published; degraded-mode sync bounds
	// it near the straggler deadline.
	MaxSurvivorGapTicks int
	// VictimSadcDuringOutage / VictimSadcAfterRevive count the victim's
	// black-box publishes in each phase.
	VictimSadcDuringOutage uint64
	VictimSadcAfterRevive  uint64
	// VictimHLAfterRevive counts the victim's white-box publishes after
	// its daemons restarted.
	VictimHLAfterRevive uint64
	// BreakerOpened reports that the victim's white-box breaker opened
	// during the outage; BreakerReclosed that a half-open probe
	// re-attached the node after revival with no collector restart.
	BreakerOpened   bool
	BreakerReclosed bool
	// VictimReconnects is the victim client's successful dial count at
	// the end (≥ 2 proves a re-dial happened after the restart).
	VictimReconnects uint64
	// Partial / Dropped / MissingVictim are the sync rule's counters.
	Partial       uint64
	Dropped       uint64
	MissingVictim uint64
	// RunErrors counts module run errors routed to the engine's error
	// handler (the supervisor path: reported, never fatal).
	RunErrors int
	// VictimBreakersOpened counts how many victims' white-box breakers
	// were observed open during the outage (multi-victim scenarios).
	VictimBreakersOpened int
	// SlowNodeFailures is the slow node's white-box transport-failure
	// count at the end (delay-injection scenarios); > 0 proves the
	// injected latency crossed the call timeout.
	SlowNodeFailures uint64
	// SlowNodeReclosed reports the slow node's breaker was closed again
	// once the delay was lifted.
	SlowNodeReclosed bool
	// Status is the final operator snapshot, taken from the quiesced
	// engine after the last tick — the reference the scraped /metrics
	// values must agree with.
	Status modules.StatusReport
}

// hlHealthReporter and sadcHealthReporter are the inspection surfaces the
// collection modules expose; asserted here so eval does not depend on the
// modules' unexported types.
type hlHealthReporter interface {
	ClientHealths() map[string]rpc.Health
	PartialTimestamps() uint64
	DroppedTimestamps() uint64
	MissingByNode() map[string]uint64
}

type sadcHealthReporter interface {
	ClientHealth() (rpc.Health, bool)
}

// nodeDaemons are one slave's collection daemons, restartable in place.
type nodeDaemons struct {
	node     *hadoopsim.Node
	clock    func() time.Time
	sadc     *rpc.Server
	hlog     *rpc.Server
	sadcAddr string
	hlogAddr string
}

// daemonClock is the virtual time the node daemons read: an atomic copy of
// the cluster's clock, not c.Now itself. A handler whose reply the client
// abandoned at CallTimeout may still be running when the harness next ticks
// the cluster, and nothing else orders the two.
type daemonClock struct{ at atomic.Pointer[time.Time] }

func newDaemonClock(c *hadoopsim.Cluster) *daemonClock {
	k := &daemonClock{}
	t := c.Now()
	k.at.Store(&t)
	return k
}

// tick advances the cluster one second and publishes the new time.
func (k *daemonClock) tick(c *hadoopsim.Cluster) {
	c.Tick()
	t := c.Now()
	k.at.Store(&t)
}

func (k *daemonClock) now() time.Time { return *k.at.Load() }

func startDaemons(n *hadoopsim.Node, clock func() time.Time, sadcAddr, hlogAddr string) (*nodeDaemons, error) {
	d := &nodeDaemons{node: n, clock: clock}
	d.sadc = rpc.NewServer(modules.ServiceSadc)
	modules.RegisterSadcServer(d.sadc, n)
	addr, err := d.sadc.Listen(sadcAddr)
	if err != nil {
		return nil, fmt.Errorf("eval: sadc daemon for %s: %w", n.Name, err)
	}
	d.sadcAddr = addr.String()

	d.hlog = rpc.NewServer(modules.ServiceHadoopLog)
	modules.RegisterHadoopLogServer(d.hlog, n.TaskTrackerLog(), n.DataNodeLog(), clock)
	addr, err = d.hlog.Listen(hlogAddr)
	if err != nil {
		_ = d.sadc.Close()
		return nil, fmt.Errorf("eval: hadoop-log daemon for %s: %w", n.Name, err)
	}
	d.hlogAddr = addr.String()
	return d, nil
}

// kill closes both daemons, as a crashed node would.
func (d *nodeDaemons) kill() {
	_ = d.sadc.Close()
	_ = d.hlog.Close()
}

// restart brings fresh daemons up on the same addresses, re-reading the
// node's logs from scratch exactly like a restarted hadoop_log_rpcd.
func (d *nodeDaemons) restart() error {
	// The old listener's port can linger briefly; retry a few times.
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		nd, err := startDaemons(d.node, d.clock, d.sadcAddr, d.hlogAddr)
		if err == nil {
			d.sadc, d.hlog = nd.sadc, nd.hlog
			return nil
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	return lastErr
}

func (d *nodeDaemons) close() { d.kill() }

// RunCollectionResilience runs the kill-one-node scenario end to end over
// real TCP daemons and returns what it observed. The caller asserts on the
// report; this function only fails on setup errors.
func RunCollectionResilience(cfg ResilienceConfig) (*ResilienceReport, error) {
	victims := cfg.victims()
	isVictim := make(map[int]bool, len(victims))
	for _, v := range victims {
		if v < 0 || v >= cfg.Slaves {
			return nil, fmt.Errorf("eval: victim %d out of range for %d slaves", v, cfg.Slaves)
		}
		isVictim[v] = true
	}
	if len(victims) >= cfg.Slaves {
		return nil, fmt.Errorf("eval: need at least one survivor (%d victims of %d slaves)", len(victims), cfg.Slaves)
	}
	if cfg.KillAtTick >= cfg.ReviveAtTick || cfg.ReviveAtTick >= cfg.Ticks {
		return nil, fmt.Errorf("eval: phases must satisfy kill < revive < ticks")
	}
	if cfg.FlapPeriodTicks < 0 {
		return nil, fmt.Errorf("eval: flap period must be >= 0")
	}
	if cfg.InjectDelay > 0 {
		if cfg.SlowNode < 0 || cfg.SlowNode >= cfg.Slaves {
			return nil, fmt.Errorf("eval: slow node %d out of range for %d slaves", cfg.SlowNode, cfg.Slaves)
		}
		if isVictim[cfg.SlowNode] {
			return nil, fmt.Errorf("eval: slow node %d is also a victim", cfg.SlowNode)
		}
	}
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(cfg.Slaves, cfg.Seed))
	if err != nil {
		return nil, err
	}

	var daemons []*nodeDaemons
	defer func() {
		for _, d := range daemons {
			d.close()
		}
	}()
	clock := newDaemonClock(c)
	var names, sadcAddrs, hlogAddrs []string
	for _, n := range c.Slaves() {
		d, err := startDaemons(n, clock.now, "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		daemons = append(daemons, d)
		names = append(names, n.Name)
		sadcAddrs = append(sadcAddrs, d.sadcAddr)
		hlogAddrs = append(hlogAddrs, d.hlogAddr)
	}

	env := modules.NewEnv()
	env.Clock = c.Now
	env.Metrics = cfg.Metrics

	var b strings.Builder
	fmt.Fprintf(&b, `
[hadoop_log]
id = hl
kind = tasktracker
mode = rpc
nodes = %s
addrs = %s
period = 1
sync_deadline = %d
sync_quorum = %d
breaker_threshold = %d
breaker_cooldown = %d
`, strings.Join(names, ","), strings.Join(hlogAddrs, ","),
		cfg.SyncDeadlineSec, cfg.SyncQuorum, cfg.BreakerThreshold, cfg.BreakerCooldownSec)
	if cfg.CallTimeout > 0 {
		fmt.Fprintf(&b, "call_timeout = %s\n", cfg.CallTimeout)
	}
	for i, name := range names {
		fmt.Fprintf(&b, `
[sadc]
id = s%d
node = %s
mode = rpc
addr = %s
period = 1
breaker_threshold = %d
breaker_cooldown = %d
`, i, name, sadcAddrs[i], cfg.BreakerThreshold, cfg.BreakerCooldownSec)
		if cfg.CallTimeout > 0 {
			fmt.Fprintf(&b, "call_timeout = %s\n", cfg.CallTimeout)
		}
	}
	b.WriteString("\n[print]\nid = p\nonly_nonzero = false\ninput[hl] = @hl\n")
	for i := range names {
		fmt.Fprintf(&b, "input[s%d] = s%d.output0\n", i, i)
	}

	parsed, err := config.ParseString(b.String())
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	report := &ResilienceReport{}
	eng, err := core.NewEngine(modules.NewRegistry(env), parsed,
		core.WithTelemetry(cfg.Metrics),
		core.WithErrorHandler(func(string, error) {
			mu.Lock()
			report.RunErrors++
			mu.Unlock()
		}))
	if err != nil {
		return nil, err
	}

	hlMod, _ := eng.ModuleOf("hl")
	hl, ok := hlMod.(hlHealthReporter)
	if !ok {
		return nil, fmt.Errorf("eval: hadoop_log module does not report health")
	}
	victimSadcMod, _ := eng.ModuleOf(fmt.Sprintf("s%d", cfg.Victim))
	victimSadc, ok := victimSadcMod.(sadcHealthReporter)
	if !ok {
		return nil, fmt.Errorf("eval: sadc module does not report health")
	}
	victimName := names[cfg.Victim]

	hlOuts := eng.OutputPortsOf("hl")
	survivorHL := func() uint64 {
		var n uint64
		for i, out := range hlOuts {
			if !isVictim[i] {
				n += out.Published()
			}
		}
		return n
	}
	victimHL := func() uint64 { return hlOuts[cfg.Victim].Published() }
	victimSadcOut := eng.OutputPortsOf(fmt.Sprintf("s%d", cfg.Victim))[0]

	// down tracks which victims' daemons are currently dead (flapping
	// scenarios bring them up and down inside the outage window).
	down := make(map[int]bool, len(victims))
	killAll := func() {
		for _, v := range victims {
			if !down[v] {
				daemons[v].kill()
				down[v] = true
			}
		}
	}
	restartAll := func() error {
		for _, v := range victims {
			if down[v] {
				if err := daemons[v].restart(); err != nil {
					return err
				}
				down[v] = false
			}
		}
		return nil
	}
	slowDaemons := func(f rpc.Faults) {
		if cfg.InjectDelay > 0 {
			daemons[cfg.SlowNode].sadc.SetFaults(f)
			daemons[cfg.SlowNode].hlog.SetFaults(f)
		}
	}
	openVictims := make(map[string]bool, len(victims))

	var (
		survivorAtKill, survivorLast   uint64
		victimHLAtRevive               uint64
		victimSadcAtKill, sadcAtRevive uint64
		gap                            int
	)
	for tick := 1; tick <= cfg.Ticks; tick++ {
		if tick == cfg.KillAtTick {
			killAll()
			slowDaemons(rpc.Faults{Delay: cfg.InjectDelay})
			survivorAtKill = survivorHL()
			survivorLast = survivorAtKill
			victimSadcAtKill = victimSadcOut.Published()
		}
		if tick > cfg.KillAtTick && tick < cfg.ReviveAtTick && cfg.FlapPeriodTicks > 0 &&
			(tick-cfg.KillAtTick)%cfg.FlapPeriodTicks == 0 {
			// Flap: toggle the victims' daemons.
			if down[cfg.Victim] {
				if err := restartAll(); err != nil {
					return nil, err
				}
			} else {
				killAll()
			}
		}
		if tick == cfg.ReviveAtTick {
			if err := restartAll(); err != nil {
				return nil, err
			}
			slowDaemons(rpc.Faults{})
			victimHLAtRevive = victimHL()
			sadcAtRevive = victimSadcOut.Published()
		}
		clock.tick(c)
		if err := eng.Tick(c.Now()); err != nil {
			return nil, err
		}

		if tick > cfg.KillAtTick && tick < cfg.ReviveAtTick {
			// Track the longest white-box publishing gap on survivors.
			if now := survivorHL(); now > survivorLast {
				survivorLast = now
				gap = 0
			} else {
				gap++
				if gap > report.MaxSurvivorGapTicks {
					report.MaxSurvivorGapTicks = gap
				}
			}
			healths := hl.ClientHealths()
			for _, v := range victims {
				if h, ok := healths[names[v]]; ok && h.State == rpc.BreakerOpen {
					openVictims[names[v]] = true
				}
			}
			report.BreakerOpened = openVictims[victimName]
		}
		if cfg.TraceWriter != nil {
			h := hl.ClientHealths()[victimName]
			mu.Lock()
			errs := report.RunErrors
			mu.Unlock()
			fmt.Fprintf(cfg.TraceWriter,
				"tick=%d survivor_hl=%d victim.breaker=%s victim.failures=%d partial=%d dropped=%d errors=%d\n",
				tick, survivorHL(), h.State, h.TotalFailures,
				hl.PartialTimestamps(), hl.DroppedTimestamps(), errs)
		}
	}
	report.VictimBreakersOpened = len(openVictims)

	report.SurvivorHLDuringOutage = survivorLast - survivorAtKill
	report.VictimSadcDuringOutage = sadcAtRevive - victimSadcAtKill
	report.VictimSadcAfterRevive = victimSadcOut.Published() - sadcAtRevive
	report.VictimHLAfterRevive = victimHL() - victimHLAtRevive
	report.Partial = hl.PartialTimestamps()
	report.Dropped = hl.DroppedTimestamps()
	report.MissingVictim = hl.MissingByNode()[victimName]
	if h, ok := hl.ClientHealths()[victimName]; ok {
		report.BreakerReclosed = h.State == rpc.BreakerClosed
		report.VictimReconnects = h.Reconnects
	}
	if h, ok := victimSadc.ClientHealth(); ok && h.State != rpc.BreakerClosed {
		// The black-box plane must have re-attached too.
		report.BreakerReclosed = false
	}
	if cfg.InjectDelay > 0 {
		if h, ok := hl.ClientHealths()[names[cfg.SlowNode]]; ok {
			report.SlowNodeFailures = h.TotalFailures
			report.SlowNodeReclosed = h.State == rpc.BreakerClosed
		}
	}
	report.Status = modules.CollectStatus(eng, c.Now())
	return report, nil
}
