package state

import (
	"context"
	"errors"
	"os"
	"sync"
	"time"

	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/telemetry"
)

// Engine is the slice of the fpt-core engine the state layer needs:
// enumerate instances, reach their module implementations, and snapshot or
// restore supervisor state. *core.Engine satisfies it.
type Engine interface {
	Instances() []string
	ModuleOf(id string) (core.Module, bool)
	SupervisorSnapshots() []core.InstanceHealth
	RestoreSupervisors([]core.InstanceHealth) int
}

// BreakerExporter is implemented by modules (the rpc-mode collectors) whose
// managed connections carry circuit-breaker state worth persisting, keyed by
// daemon address.
type BreakerExporter interface {
	ExportBreakerSnapshots() map[string]rpc.BreakerSnapshot
}

// BreakerImporter restores persisted breaker snapshots into a module's
// managed connections. Snapshots are matched by address; restored-open
// breakers draw their staggered half-open probe time from plan. It returns
// how many connections accepted state.
type BreakerImporter interface {
	ImportBreakerSnapshots(snaps map[string]rpc.BreakerSnapshot, plan *rpc.ProbePlanner) int
}

// ReplayGuard is implemented by collector modules that publish
// monotonically timestamped output: the watermark is the newest published
// timestamp, and after RestoreReplayWatermark the module refuses to
// re-publish ticks at or before it, keeping sink output across a restart
// free of duplicates.
type ReplayGuard interface {
	ReplayWatermark() (time.Time, bool)
	RestoreReplayWatermark(time.Time)
}

// RestartStatus is the operator-facing view of the state layer, carried on
// the /status report and rendered by asdf-status as the RESTART line. Every
// numeric field is mirrored by an asdf_state_* metric registered at Open,
// moved at the same points, so /metrics and /status agree.
type RestartStatus struct {
	Path string `json:"path"`
	// Restarts counts restores across the state file's lineage (0 = this
	// process booted fresh).
	Restarts uint64 `json:"restarts"`
	// SnapshotsWritten and WriteErrors count this process's snapshot
	// attempts.
	SnapshotsWritten uint64 `json:"snapshots_written"`
	WriteErrors      uint64 `json:"write_errors,omitempty"`
	// SnapshotBytes is the size of the newest snapshot file.
	SnapshotBytes uint64 `json:"snapshot_bytes,omitempty"`
	// LastSnapshotAt is the engine-clock time of the newest snapshot.
	LastSnapshotAt time.Time `json:"last_snapshot_at,omitempty"`
	// Restored* count what the boot-time restore matched.
	RestoredSupervisors uint64 `json:"restored_supervisors,omitempty"`
	RestoredBreakers    uint64 `json:"restored_breakers,omitempty"`
	RestoredWatermarks  uint64 `json:"restored_watermarks,omitempty"`
	// ReplayWatermarks is the live per-collector replay watermark.
	ReplayWatermarks map[string]time.Time `json:"replay_watermarks,omitempty"`
	// LockReclaimed reports that boot reclaimed a dead process's lock.
	LockReclaimed bool `json:"lock_reclaimed,omitempty"`
	// SnapshotQuarantined reports that boot found a corrupt snapshot and
	// moved it aside as .corrupt.
	SnapshotQuarantined bool `json:"snapshot_quarantined,omitempty"`
}

// Options tunes a Manager. Zero values select the documented defaults.
type Options struct {
	// Path is the state file (required).
	Path string
	// Interval between periodic snapshots (default 5s).
	Interval time.Duration
	// Clock supplies "now" for snapshot timestamps and the probe planner
	// base; defaults to time.Now. The eval harness injects virtual time.
	Clock func() time.Time
	// Logf receives boot-time warnings (stale lock reclaimed, corrupt
	// snapshot quarantined) and snapshot write errors; defaults to discard.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, registers the asdf_state_* series.
	Metrics *telemetry.Registry
	// ProbeBudget is the maximum restored-open breakers probed per
	// ProbeInterval after a restart (default 4).
	ProbeBudget int
	// ProbeInterval is the stagger window for restored breaker re-probes
	// (default 2s).
	ProbeInterval time.Duration
	// Rand supplies probe jitter in [0,1); defaults to math/rand.
	Rand func() float64
}

// Manager owns one state file: it locks it, restores the engine from it on
// Open, and rewrites it on a timer (Run) or on demand (SnapshotNow). Never
// call SnapshotNow from inside a module Run — the whole point of the timer
// is to keep serialization off the hot tick path.
type Manager struct {
	eng  Engine
	opt  Options
	lock *fileLock

	mu     sync.Mutex
	closed bool
	status RestartStatus

	mRestarts      *telemetry.Gauge
	mSnapshots     *telemetry.Counter
	mWriteErrors   *telemetry.Counter
	mSnapshotBytes *telemetry.Gauge
	mLastSnapshot  *telemetry.Gauge
	mRestoredSup   *telemetry.Gauge
	mRestoredBrk   *telemetry.Gauge
	mRestoredWm    *telemetry.Gauge
}

// Open locks opts.Path, loads and restores any prior snapshot into eng, and
// returns the manager. A snapshot held by a live process is a hard error; a
// corrupt snapshot is quarantined aside and the node boots fresh. Open must
// run before the engine's first dispatch: restoring supervisors or breakers
// into a running engine races with its dispatches.
func Open(eng Engine, opts Options) (*Manager, error) {
	if opts.Path == "" {
		return nil, errors.New("state: Options.Path is required")
	}
	if opts.Interval <= 0 {
		opts.Interval = 5 * time.Second
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if err := ensureDir(opts.Path); err != nil {
		return nil, err
	}
	lock, reclaimed, err := acquireLock(opts.Path+".lock", opts.Logf)
	if err != nil {
		return nil, err
	}
	m := &Manager{eng: eng, opt: opts, lock: lock}
	m.status.Path = opts.Path
	m.status.LockReclaimed = reclaimed
	if reg := opts.Metrics; reg != nil {
		m.mRestarts = reg.Gauge("asdf_state_restarts",
			"Restores across the state file's lineage; 0 means this process booted fresh.")
		m.mSnapshots = reg.Counter("asdf_state_snapshots_written_total",
			"State snapshots written by this process (timer and final).")
		m.mWriteErrors = reg.Counter("asdf_state_snapshot_write_errors_total",
			"State snapshot writes that failed.")
		m.mSnapshotBytes = reg.Gauge("asdf_state_snapshot_bytes",
			"Size of the newest state snapshot file.")
		m.mLastSnapshot = reg.Gauge("asdf_state_last_snapshot_unix_seconds",
			"Engine-clock time of the newest state snapshot.")
		m.mRestoredSup = reg.Gauge("asdf_state_restored_supervisors",
			"Instances whose supervisor state was restored at boot.")
		m.mRestoredBrk = reg.Gauge("asdf_state_restored_breakers",
			"Managed connections whose breaker state was restored at boot.")
		m.mRestoredWm = reg.Gauge("asdf_state_restored_watermarks",
			"Collector instances whose replay watermark was restored at boot.")
	}

	snap, err := Load(opts.Path)
	switch {
	case err == nil:
		m.restore(snap)
	case errors.Is(err, os.ErrNotExist):
		// Fresh boot: nothing to restore.
	case IsCorrupt(err):
		aside, qerr := QuarantineCorrupt(opts.Path)
		if qerr != nil {
			_ = lock.release()
			return nil, qerr
		}
		opts.Logf("state: %v; quarantined as %s, booting fresh", err, aside)
		m.status.SnapshotQuarantined = true
	default:
		_ = lock.release()
		return nil, err
	}
	return m, nil
}

// restore pushes the loaded snapshot into the engine: supervisors first,
// then breakers (staggered probes), then replay watermarks.
func (m *Manager) restore(snap *Snapshot) {
	m.status.Restarts = snap.Restarts + 1
	m.mRestarts.Set(float64(m.status.Restarts))
	m.status.RestoredSupervisors = uint64(m.eng.RestoreSupervisors(snap.Supervisors))
	m.mRestoredSup.Set(float64(m.status.RestoredSupervisors))

	plan := rpc.NewProbePlanner(m.opt.Clock(), m.opt.ProbeInterval, m.opt.ProbeBudget, m.opt.Rand)
	for _, id := range m.eng.Instances() {
		mod, ok := m.eng.ModuleOf(id)
		if !ok {
			continue
		}
		if imp, ok := mod.(BreakerImporter); ok && len(snap.Breakers) > 0 {
			m.status.RestoredBreakers += uint64(imp.ImportBreakerSnapshots(snap.Breakers, plan))
		}
		if rg, ok := mod.(ReplayGuard); ok {
			if w, ok := snap.Watermarks[id]; ok && !w.IsZero() {
				rg.RestoreReplayWatermark(w)
				m.status.RestoredWatermarks++
			}
		}
	}
	m.mRestoredBrk.Set(float64(m.status.RestoredBreakers))
	m.mRestoredWm.Set(float64(m.status.RestoredWatermarks))
}

// collect assembles a snapshot from the live engine. Reading module state
// concurrently with the engine is safe: supervisor and breaker snapshots
// take their own locks and replay watermarks are atomic.
func (m *Manager) collect(now time.Time) *Snapshot {
	snap := &Snapshot{
		SavedAt:     now,
		Restarts:    m.status.Restarts,
		Supervisors: m.eng.SupervisorSnapshots(),
		Breakers:    make(map[string]rpc.BreakerSnapshot),
		Watermarks:  make(map[string]time.Time),
	}
	for _, id := range m.eng.Instances() {
		mod, ok := m.eng.ModuleOf(id)
		if !ok {
			continue
		}
		if exp, ok := mod.(BreakerExporter); ok {
			for addr, bs := range exp.ExportBreakerSnapshots() {
				snap.Breakers[addr] = bs
			}
		}
		if rg, ok := mod.(ReplayGuard); ok {
			if w, ok := rg.ReplayWatermark(); ok {
				snap.Watermarks[id] = w
			}
		}
	}
	return snap
}

// SnapshotNow collects and writes one snapshot. Failures are counted and
// logged, never fatal: a control node that cannot persist keeps monitoring.
func (m *Manager) SnapshotNow() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return errors.New("state: manager closed")
	}
	m.mu.Unlock()

	now := m.opt.Clock()
	size, err := Save(m.opt.Path, m.collect(now))

	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.status.WriteErrors++
		m.mWriteErrors.Inc()
		m.opt.Logf("state: snapshot: %v", err)
		return err
	}
	m.status.SnapshotsWritten++
	m.status.SnapshotBytes = uint64(size)
	m.status.LastSnapshotAt = now
	m.mSnapshots.Inc()
	m.mSnapshotBytes.Set(float64(size))
	m.mLastSnapshot.Set(float64(now.Unix()))
	return nil
}

// Run writes snapshots every Options.Interval until ctx is done, then writes
// a final snapshot (the graceful-shutdown path; a kill -9 instead relies on
// the last timer snapshot). Run does not release the lock — Close does.
func (m *Manager) Run(ctx context.Context) {
	ticker := time.NewTicker(m.opt.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			_ = m.SnapshotNow()
		case <-ctx.Done():
			_ = m.SnapshotNow()
			return
		}
	}
}

// Status reports the state layer's operator view, including the live
// per-collector replay watermarks.
func (m *Manager) Status() RestartStatus {
	m.mu.Lock()
	st := m.status
	m.mu.Unlock()
	st.ReplayWatermarks = make(map[string]time.Time)
	for _, id := range m.eng.Instances() {
		if mod, ok := m.eng.ModuleOf(id); ok {
			if rg, ok := mod.(ReplayGuard); ok {
				if w, ok := rg.ReplayWatermark(); ok {
					st.ReplayWatermarks[id] = w
				}
			}
		}
	}
	return st
}

// Close writes a final snapshot and releases the lock. Idempotent.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.mu.Unlock()
	_ = m.SnapshotNow()
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	return m.lock.release()
}
