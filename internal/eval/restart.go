package eval

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/hadoopsim"
	"github.com/asdf-project/asdf/internal/modules"
	"github.com/asdf-project/asdf/internal/state"
	"github.com/asdf-project/asdf/internal/telemetry"
)

// RestartDrillConfig sizes the crash-safe restart scenario: a control node
// runs against real TCP daemons under a multi-node outage, is killed without
// any teardown ("kill -9") after its state manager snapshotted, and a second
// control node boots from the state file into the same half-broken world.
// Ticks are virtual seconds on the cluster clock, shared by the engine, the
// breakers, and the state manager, so both lives are deterministic.
type RestartDrillConfig struct {
	Slaves int
	Seed   int64
	// Victims are the slave indexes whose daemons die at KillDaemonsAtTick
	// and come back at ReviveAtTick (which lands inside the second life).
	Victims []int
	// QuarantineVictim is the victim whose dedicated sadc instance carries
	// a per-instance failure budget, so the first life quarantines it and
	// the second life must resume its cooldown clock.
	QuarantineVictim int
	// KillDaemonsAtTick < CrashAtTick < ReviveAtTick < Ticks partition the
	// run: outage, control-node crash (end of life 1), daemon revival
	// (inside life 2), and the end of observation.
	KillDaemonsAtTick int
	CrashAtTick       int
	ReviveAtTick      int
	Ticks             int
	// QuarantineThreshold / QuarantineCooldownSec are the sadc victim's
	// failure budget; the cooldown must reach past CrashAtTick so the
	// quarantine is live when the control node dies.
	QuarantineThreshold   int
	QuarantineCooldownSec int
	// BreakerThreshold / BreakerCooldownSec configure every per-node
	// circuit breaker.
	BreakerThreshold   int
	BreakerCooldownSec int
	// ProbeBudget / ProbeIntervalSec bound the restarted node's re-probes
	// of restored-open breakers: at most ProbeBudget dial attempts per
	// probe interval (and, with the interval at or above the tick period,
	// per tick).
	ProbeBudget      int
	ProbeIntervalSec int
	// SyncDeadlineSec / SyncQuorum configure degraded-mode timestamp sync.
	SyncDeadlineSec int
	SyncQuorum      int
	// StateDir receives the state file, lock file, and both lives' CSV
	// sinks (required; tests pass t.TempDir()).
	StateDir string
	// TraceWriter, when non-nil, receives one counter line per tick across
	// both lives (the CI restart drill points this at its artifact file).
	TraceWriter io.Writer
	// Metrics, when non-nil, receives the SECOND life's telemetry — the
	// restarted control node's registry, including the asdf_state_* series.
	// The acceptance test scrapes it and checks the values against the
	// Status snapshot.
	Metrics *telemetry.Registry
}

// DefaultRestartDrillConfig is the 6-node, 4-victim scenario used by the CI
// restart drill: daemons die at t=10, the control node crashes at t=24, the
// daemons recover at t=32, and the second life is observed through t=48.
func DefaultRestartDrillConfig(stateDir string) RestartDrillConfig {
	return RestartDrillConfig{
		Slaves:                6,
		Seed:                  11,
		Victims:               []int{0, 1, 2, 3},
		QuarantineVictim:      0,
		KillDaemonsAtTick:     10,
		CrashAtTick:           24,
		ReviveAtTick:          32,
		Ticks:                 48,
		QuarantineThreshold:   4,
		QuarantineCooldownSec: 25,
		BreakerThreshold:      2,
		BreakerCooldownSec:    6,
		ProbeBudget:           2,
		ProbeIntervalSec:      2,
		SyncDeadlineSec:       2,
		SyncQuorum:            2,
		StateDir:              stateDir,
	}
}

// RestartDrillReport is what the scenario observed across both lives.
type RestartDrillReport struct {
	// QuarantineAtCrash is the sadc victim's supervisor snapshot the moment
	// the first life died — quarantined, with an absolute ReopenAt deadline.
	QuarantineAtCrash core.InstanceHealth
	// WatermarkAtCrash is the first life's replay watermark as persisted.
	WatermarkAtCrash time.Time
	// Restore is the second life's boot-time accounting (restart counter,
	// restored supervisors/breakers/watermarks, reclaimed lock).
	Restore state.RestartStatus
	// QuarantineRestored is the same instance's supervisor snapshot right
	// after the restore, before the second life's first tick.
	QuarantineRestored core.InstanceHealth
	// WatermarkRestored is the replay guard's position after the restore.
	WatermarkRestored time.Time
	// MaxProbesPerTick is the largest number of dial attempts the second
	// life made to dead daemons in any one tick; the staggered re-probe
	// plan bounds it by ProbeBudget.
	MaxProbesPerTick int
	// ProbeTicks counts ticks that carried at least one such dial attempt;
	// > 1 proves the restored herd was actually spread out.
	ProbeTicks int
	// Readmitted reports the quarantined instance came back: healthy, with
	// a readmission counted, after its restored cooldown expired.
	Readmitted bool
	// FinalQuarantined is the same instance's final supervisor snapshot.
	FinalQuarantined core.InstanceHealth
	// CSVRows / DuplicateRows / OutOfOrderRows scan the two lives'
	// concatenated sink output per node stream: any second published by
	// both lives is a duplicate, any timestamp regression is out of order.
	CSVRows        int
	DuplicateRows  int
	OutOfOrderRows int
	// SurvivorPublishesLife2 counts white-box publishes on surviving nodes
	// during the second life; > 0 proves the restarted node collects.
	SurvivorPublishesLife2 uint64
	// RunErrors counts module run errors across both lives (supervised:
	// reported, never fatal).
	RunErrors int
	// Status is the second life's final operator snapshot, including the
	// restart section, taken from the quiesced engine — the reference the
	// scraped asdf_state_* metrics must agree with.
	Status modules.StatusReport
}

// restartView pairs an engine with its state manager for CollectStatus,
// exactly as cmd/asdf's status endpoints do.
type restartView struct {
	*core.Engine
	mgr *state.Manager
}

func (v restartView) RestartStatus() (state.RestartStatus, bool) {
	return v.mgr.Status(), true
}

// RunRestartDrill runs the kill -9 scenario end to end and returns what it
// observed. The caller asserts on the report; this function only fails on
// setup errors.
func RunRestartDrill(cfg RestartDrillConfig) (*RestartDrillReport, error) {
	isVictim := make(map[int]bool, len(cfg.Victims))
	for _, v := range cfg.Victims {
		if v < 0 || v >= cfg.Slaves {
			return nil, fmt.Errorf("eval: victim %d out of range for %d slaves", v, cfg.Slaves)
		}
		isVictim[v] = true
	}
	if len(isVictim) == 0 || len(isVictim) >= cfg.Slaves {
		return nil, fmt.Errorf("eval: need 1..%d victims, have %d", cfg.Slaves-1, len(isVictim))
	}
	if !isVictim[cfg.QuarantineVictim] {
		return nil, fmt.Errorf("eval: quarantine victim %d is not a victim", cfg.QuarantineVictim)
	}
	if !(cfg.KillDaemonsAtTick < cfg.CrashAtTick && cfg.CrashAtTick < cfg.ReviveAtTick && cfg.ReviveAtTick < cfg.Ticks) {
		return nil, fmt.Errorf("eval: phases must satisfy kill < crash < revive < ticks")
	}
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("eval: StateDir is required")
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

	// Both lives load the identical configuration (only the sink path
	// differs), exactly as a restarted cmd/asdf re-reads its -config. The
	// white-box collector runs the columnar push transport, so the second
	// life's fresh subscriptions re-serve each daemon's full history — the
	// hazard the restored replay watermark must suppress.
	conf := func(csvPath string) string {
		var b strings.Builder
		fmt.Fprintf(&b, `
[hadoop_log]
id = hl
kind = tasktracker
mode = rpc
nodes = %s
addrs = %s
period = 1
wire = columnar
subscribe = true
sync_deadline = %d
sync_quorum = %d
breaker_threshold = %d
breaker_cooldown = %d
`, strings.Join(names, ","), strings.Join(hlogAddrs, ","),
			cfg.SyncDeadlineSec, cfg.SyncQuorum, cfg.BreakerThreshold, cfg.BreakerCooldownSec)
		fmt.Fprintf(&b, `
[sadc]
id = sv
node = %s
mode = rpc
addr = %s
period = 1
breaker_threshold = %d
breaker_cooldown = %d
quarantine_threshold = %d
quarantine_cooldown = %d
`, names[cfg.QuarantineVictim], sadcAddrs[cfg.QuarantineVictim],
			cfg.BreakerThreshold, cfg.BreakerCooldownSec,
			cfg.QuarantineThreshold, cfg.QuarantineCooldownSec)
		b.WriteString("\n[print]\nid = p\nonly_nonzero = false\ninput[sv] = sv.output0\n")
		fmt.Fprintf(&b, "\n[csv]\nid = sink\npath = %s\n", csvPath)
		for i, n := range names {
			fmt.Fprintf(&b, "input[m%d] = hl.%s\n", i, n)
		}
		return b.String()
	}

	report := &RestartDrillReport{}
	var mu sync.Mutex
	countErr := func(string, error) {
		mu.Lock()
		report.RunErrors++
		mu.Unlock()
	}
	statePath := filepath.Join(cfg.StateDir, "asdf.state")
	trace := func(life, tick, probes int, note string) {
		if cfg.TraceWriter == nil {
			return
		}
		fmt.Fprintf(cfg.TraceWriter, "life=%d tick=%d probes=%d %s\n", life, tick, probes, note)
	}

	buildEngine := func(csvPath string, metrics *telemetry.Registry) (*core.Engine, error) {
		env := modules.NewEnv()
		env.Clock = c.Now
		env.Metrics = metrics
		parsed, err := config.ParseString(conf(csvPath))
		if err != nil {
			return nil, err
		}
		return core.NewEngine(modules.NewRegistry(env), parsed,
			core.WithTelemetry(metrics),
			core.WithErrorHandler(countErr))
	}

	// ---- Life 1: run into the outage, snapshot, die without teardown.
	csv1 := filepath.Join(cfg.StateDir, "life1.csv")
	eng1, err := buildEngine(csv1, nil)
	if err != nil {
		return nil, err
	}
	mgr1, err := state.Open(eng1, state.Options{
		Path:          statePath,
		Clock:         c.Now,
		ProbeBudget:   cfg.ProbeBudget,
		ProbeInterval: time.Duration(cfg.ProbeIntervalSec) * time.Second,
	})
	if err != nil {
		return nil, err
	}
	for tick := 1; tick <= cfg.CrashAtTick; tick++ {
		if tick == cfg.KillDaemonsAtTick {
			for _, v := range cfg.Victims {
				daemons[v].kill()
			}
		}
		clock.tick(c)
		if err := eng1.Tick(c.Now()); err != nil {
			return nil, err
		}
		// The periodic snapshotter, in lockstep with virtual time.
		if err := mgr1.SnapshotNow(); err != nil {
			return nil, err
		}
		trace(1, tick, 0, "")
	}
	// Drain the sink, then take the snapshot the crash will leave behind:
	// the persisted watermark must cover exactly what reached the CSV.
	if err := eng1.Flush(c.Now()); err != nil {
		return nil, err
	}
	if err := mgr1.SnapshotNow(); err != nil {
		return nil, err
	}
	report.QuarantineAtCrash, _ = eng1.InstanceHealthOf("sv")
	if rg, ok := mustModule(eng1, "hl").(state.ReplayGuard); ok {
		report.WatermarkAtCrash, _ = rg.ReplayWatermark()
	}
	// kill -9: no Flush, no mgr1.Close, no connection teardown. The engine
	// and manager are simply abandoned; only the lock file needs doctoring,
	// because the "dead" process is still this test's live PID.
	if err := os.WriteFile(statePath+".lock", []byte("999999999\n"), 0o644); err != nil {
		return nil, err
	}

	// ---- Life 2: boot from the state file into the same outage.
	csv2 := filepath.Join(cfg.StateDir, "life2.csv")
	eng2, err := buildEngine(csv2, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	var lockLog strings.Builder
	mgr2, err := state.Open(eng2, state.Options{
		Path:          statePath,
		Clock:         c.Now,
		ProbeBudget:   cfg.ProbeBudget,
		ProbeInterval: time.Duration(cfg.ProbeIntervalSec) * time.Second,
		Metrics:       cfg.Metrics,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(&lockLog, format+"\n", args...)
		},
		// Deterministic probe jitter keeps the drill's stagger schedule
		// reproducible under CI.
		Rand: func() float64 { return 0.5 },
	})
	if err != nil {
		return nil, err
	}
	defer func() { _ = mgr2.Close() }()
	report.Restore = mgr2.Status()
	report.QuarantineRestored, _ = eng2.InstanceHealthOf("sv")
	hl2 := mustModule(eng2, "hl")
	if rg, ok := hl2.(state.ReplayGuard); ok {
		report.WatermarkRestored, _ = rg.ReplayWatermark()
	}

	// Per-tick dial attempts against dead daemons: breaker fast-fails and
	// reconnect holdoffs are not counted as failures by the managed client,
	// so the victims' TotalFailures delta per tick is exactly the number of
	// half-open probes attempted that tick.
	hlHealth, ok := hl2.(hlHealthReporter)
	if !ok {
		return nil, fmt.Errorf("eval: hadoop_log module does not report health")
	}
	svHealth, ok := mustModule(eng2, "sv").(sadcHealthReporter)
	if !ok {
		return nil, fmt.Errorf("eval: sadc module does not report health")
	}
	victimFails := func() uint64 {
		var n uint64
		healths := hlHealth.ClientHealths()
		for _, v := range cfg.Victims {
			n += healths[names[v]].TotalFailures
		}
		if h, ok := svHealth.ClientHealth(); ok {
			n += h.TotalFailures
		}
		return n
	}

	hlOuts := eng2.OutputPortsOf("hl")
	survivorHL := func() uint64 {
		var n uint64
		for i, out := range hlOuts {
			if !isVictim[i] {
				n += out.Published()
			}
		}
		return n
	}
	survivorAtBoot := survivorHL()

	lastFails := victimFails()
	for tick := cfg.CrashAtTick + 1; tick <= cfg.Ticks; tick++ {
		if tick == cfg.ReviveAtTick {
			for _, v := range cfg.Victims {
				if err := daemons[v].restart(); err != nil {
					return nil, err
				}
			}
		}
		clock.tick(c)
		if err := eng2.Tick(c.Now()); err != nil {
			return nil, err
		}
		if err := mgr2.SnapshotNow(); err != nil {
			return nil, err
		}
		now := victimFails()
		probes := int(now - lastFails)
		lastFails = now
		if probes > 0 {
			report.ProbeTicks++
			if probes > report.MaxProbesPerTick {
				report.MaxProbesPerTick = probes
			}
		}
		ih, _ := eng2.InstanceHealthOf("sv")
		trace(2, tick, probes, fmt.Sprintf("sv=%s survivor_hl=%d", ih.State, survivorHL()))
	}
	if err := eng2.Flush(c.Now()); err != nil {
		return nil, err
	}
	if err := mgr2.SnapshotNow(); err != nil {
		return nil, err
	}
	report.SurvivorPublishesLife2 = survivorHL() - survivorAtBoot
	report.FinalQuarantined, _ = eng2.InstanceHealthOf("sv")
	report.Readmitted = report.FinalQuarantined.State == core.SupervisorHealthy &&
		report.FinalQuarantined.Readmissions > report.QuarantineRestored.Readmissions
	// A clean shutdown this time: the final snapshot and the lock release
	// happen before the status snapshot, so the report (and any scrape of
	// cfg.Metrics) reflects the state file as left on disk.
	if err := mgr2.Close(); err != nil {
		return nil, err
	}
	report.Status = modules.CollectStatus(restartView{eng2, mgr2}, c.Now())
	if !report.Restore.LockReclaimed && !strings.Contains(lockLog.String(), "reclaiming") {
		return nil, fmt.Errorf("eval: stale lock was not reclaimed: %q", lockLog.String())
	}

	if err := scanLineage(report, csv1, csv2); err != nil {
		return nil, err
	}
	return report, nil
}

// mustModule returns the named instance's module; the drill's own config
// guarantees it exists.
func mustModule(eng *core.Engine, id string) core.Module {
	mod, _ := eng.ModuleOf(id)
	return mod
}

// scanLineage concatenates the two lives' CSV output and checks every node
// stream for duplicate or rewound timestamps. The timestamp format is
// lexicographically ordered, so string comparison suffices.
func scanLineage(report *RestartDrillReport, csv1, csv2 string) error {
	var rows []string
	for i, path := range []string{csv1, csv2} {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		if len(lines) == 0 || !strings.HasPrefix(lines[0], "time,") {
			return fmt.Errorf("eval: life %d CSV missing header", i+1)
		}
		rows = append(rows, lines[1:]...)
	}
	last := make(map[string]string)
	for _, line := range rows {
		f := strings.SplitN(line, ",", 5)
		if len(f) != 5 {
			return fmt.Errorf("eval: malformed CSV row %q", line)
		}
		report.CSVRows++
		key := f[1] + "/" + f[3]
		if prev, ok := last[key]; ok {
			switch {
			case f[0] == prev:
				report.DuplicateRows++
			case f[0] < prev:
				report.OutOfOrderRows++
			}
		}
		last[key] = f[0]
	}
	return nil
}
