// Package sadc is ASDF's equivalent of the sysstat system activity data
// collector library (libsadc, §3.5). It turns consecutive procfs snapshots
// into rate-converted metric vectors: 64 node-level metrics, 18 metrics per
// network interface, and 19 metrics per monitored process — the same
// cardinality the paper reports for its sadc module.
package sadc

import (
	"fmt"
	"slices"
	"time"

	"github.com/asdf-project/asdf/internal/procfs"
)

// Jiffy and page-size constants for rate conversion. Values match the
// conventional Linux configuration (USER_HZ=100, 4 KiB pages); the
// simulator emits counters with the same conventions.
const (
	jiffiesPerSecond = 100.0
	pageSizeKB       = 4.0
	sectorSizeBytes  = 512.0
)

// NodeMetricNames lists the node-level metrics, in vector order.
// The count (64) matches §3.5 of the paper.
var NodeMetricNames = []string{
	// CPU (from /proc/stat), percentages of total jiffies.
	"cpu_user_pct", "cpu_nice_pct", "cpu_system_pct", "cpu_iowait_pct",
	"cpu_steal_pct", "cpu_idle_pct", "cpu_busy_pct", "cpu_count",
	// Kernel activity rates.
	"ctxt_per_sec", "intr_per_sec", "forks_per_sec",
	"procs_running", "procs_blocked", "procs_total",
	// Load averages and run queue (from /proc/loadavg).
	"load_avg_1", "load_avg_5", "load_avg_15", "runq_size",
	// Paging and faults (from /proc/vmstat).
	"pgpgin_kb_per_sec", "pgpgout_kb_per_sec", "fault_per_sec",
	"majflt_per_sec", "pgfree_per_sec", "pgscank_per_sec",
	"pswpin_per_sec", "pswpout_per_sec",
	// Memory gauges (from /proc/meminfo), kB unless noted.
	"mem_total_kb", "mem_free_kb", "mem_used_kb", "mem_used_pct",
	"mem_buffers_kb", "mem_cached_kb", "mem_active_kb", "mem_inactive_kb",
	"mem_dirty_kb", "mem_writeback_kb", "mem_commit_kb", "mem_commit_pct",
	// Swap gauges.
	"swap_total_kb", "swap_free_kb", "swap_used_kb", "swap_used_pct",
	// Disk, aggregated over devices (from /proc/diskstats).
	"disk_tps", "disk_rtps", "disk_wtps",
	"disk_read_kb_per_sec", "disk_write_kb_per_sec",
	"disk_reads_merged_per_sec", "disk_writes_merged_per_sec",
	"disk_read_time_ms_per_sec", "disk_write_time_ms_per_sec",
	"disk_io_in_progress", "disk_io_time_ms_per_sec", "disk_util_pct",
	"disk_weighted_io_ms_per_sec",
	// Network, aggregated over interfaces (from /proc/net/dev).
	"net_rx_kb_per_sec", "net_tx_kb_per_sec",
	"net_rx_pkts_per_sec", "net_tx_pkts_per_sec",
	"net_rx_errs_per_sec", "net_tx_errs_per_sec",
	"net_rx_drop_per_sec", "net_tx_drop_per_sec",
	// Uptime.
	"uptime_sec",
}

// NetMetricNames lists the per-interface metrics, in vector order.
// The count (18) matches §3.5 of the paper.
var NetMetricNames = []string{
	"rx_bytes_per_sec", "tx_bytes_per_sec",
	"rx_kb_per_sec", "tx_kb_per_sec",
	"rx_pkts_per_sec", "tx_pkts_per_sec",
	"rx_compressed_per_sec", "tx_compressed_per_sec",
	"rx_multicast_per_sec",
	"rx_errs_per_sec", "tx_errs_per_sec",
	"rx_drop_per_sec", "tx_drop_per_sec",
	"rx_fifo_per_sec", "tx_fifo_per_sec",
	"rx_frame_per_sec", "tx_carrier_per_sec", "collisions_per_sec",
}

// ProcMetricNames lists the per-process metrics, in vector order.
// The count (19) matches §3.5 of the paper.
var ProcMetricNames = []string{
	"cpu_user_pct", "cpu_system_pct", "cpu_total_pct",
	"cpu_user_sec_total", "cpu_system_sec_total", "cpu_sec_total",
	"minflt_per_sec", "majflt_per_sec", "faults_total",
	"vsz_kb", "rss_kb", "rss_pages", "mem_pct",
	"num_threads", "running", "state_code",
	"io_read_kb_per_sec", "io_write_kb_per_sec", "io_kb_per_sec",
}

// AnalysisMetricNames is the node-metric subset the black-box analysis
// classifies on by default. The authors' companion black-box work (Ganesha
// [19], cited by the paper as the source of its black-box methodology)
// selects a small set of sar-style resource metrics rather than the full
// 64-metric vector; classifying on resource utilization directly keeps the
// workload states aligned with what faults actually perturb.
var AnalysisMetricNames = []string{
	"cpu_user_pct", "cpu_system_pct", "cpu_iowait_pct", "cpu_busy_pct",
	"ctxt_per_sec", "runq_size", "procs_blocked", "load_avg_1",
	"pgpgin_kb_per_sec", "pgpgout_kb_per_sec",
	"disk_read_kb_per_sec", "disk_write_kb_per_sec", "disk_util_pct",
	"net_rx_kb_per_sec", "net_tx_kb_per_sec",
	"net_rx_pkts_per_sec", "net_tx_pkts_per_sec",
	"mem_used_pct",
}

// CPUHogPerturbation returns a synthetic-fault probe for model training: it
// rewrites a full node-metric vector as the same node would look with a
// rogue process consuming most of its spare CPU. Model selection uses it to
// reject candidate models that are insensitive to exactly the contrast the
// black-box analysis must detect.
func CPUHogPerturbation() func(raw []float64) []float64 {
	idx := func(name string) int {
		for i, n := range NodeMetricNames {
			if n == name {
				return i
			}
		}
		panic("sadc: unknown metric " + name) // unreachable: names are internal constants
	}
	user := idx("cpu_user_pct")
	busy := idx("cpu_busy_pct")
	idle := idx("cpu_idle_pct")
	runq := idx("runq_size")
	load1 := idx("load_avg_1")
	load5 := idx("load_avg_5")
	load15 := idx("load_avg_15")
	ctxt := idx("ctxt_per_sec")
	return func(raw []float64) []float64 {
		grab := raw[idle] * 0.8 // the hog takes most of the idle headroom
		raw[user] += grab
		raw[busy] += grab
		raw[idle] -= grab
		raw[runq] += 2.8
		raw[load1] += 2.8
		raw[load5] += 2.5
		raw[load15] += 2.2
		raw[ctxt] *= 1.4
		return raw
	}
}

// NodeMetricIndexes resolves node-metric names to their vector indexes.
func NodeMetricIndexes(names []string) ([]int, error) {
	out := make([]int, 0, len(names))
	for _, name := range names {
		idx := -1
		for i, n := range NodeMetricNames {
			if n == name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("sadc: unknown node metric %q", name)
		}
		out = append(out, idx)
	}
	return out, nil
}

// Record is one collection iteration: rate-converted vectors for the node,
// each network interface, and each monitored process.
type Record struct {
	// Time is the snapshot timestamp.
	Time time.Time
	// Node holds the node-level vector, ordered as NodeMetricNames.
	Node []float64
	// Net maps interface name to a vector ordered as NetMetricNames.
	Net map[string][]float64
	// Proc maps pid to a vector ordered as ProcMetricNames.
	Proc map[int][]float64
	// ProcComm maps pid to the process command name.
	ProcComm map[int]string
	// Warmup is true for the first record, whose rate metrics are zero
	// because no previous snapshot exists.
	Warmup bool
}

// Groups names the metric groups a Collector computes: what its caller
// ships. A group left out costs nothing per Collect — no vector, no map — and
// is absent (nil) from the Record.
type Groups struct {
	// Node selects the node-level vector.
	Node bool
	// AllIfaces and AllPids report every interface and process the snapshot
	// holds; otherwise only those named in Ifaces and Pids are reported.
	AllIfaces, AllPids bool
	Ifaces             []string
	Pids               []int
}

func (g *Groups) wantIface(name string) bool {
	return g.AllIfaces || slices.Contains(g.Ifaces, name)
}

func (g *Groups) wantPid(pid int) bool {
	return g.AllPids || slices.Contains(g.Pids, pid)
}

// Collector converts successive snapshots from a Provider into Records.
// Not safe for concurrent use; each monitored node gets its own Collector.
type Collector struct {
	provider procfs.Provider
	groups   Groups
	prev     *procfs.Snapshot
}

// NewCollector creates a Collector reading from p that computes every group.
func NewCollector(p procfs.Provider) *Collector {
	return NewGroupCollector(p, Groups{Node: true, AllIfaces: true, AllPids: true})
}

// NewGroupCollector creates a Collector reading from p that computes only
// groups. Rates depend on the previous snapshot alone, never on what was
// computed from it, so every vector it does report equals the one a full
// collector reports for the same snapshot sequence.
func NewGroupCollector(p procfs.Provider, groups Groups) *Collector {
	return &Collector{provider: p, groups: groups}
}

// Collect takes a snapshot and returns the metric record relative to the
// previous snapshot. The first call returns a warmup record with gauge
// metrics filled and rate metrics zero.
func (c *Collector) Collect() (*Record, error) {
	snap, err := c.provider.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("sadc: %w", err)
	}
	prev := c.prev
	c.prev = snap

	g := &c.groups
	rec := &Record{Time: snap.Time, Warmup: prev == nil}
	if g.AllIfaces || len(g.Ifaces) > 0 {
		rec.Net = make(map[string][]float64, len(snap.Nets))
	}
	if g.AllPids || len(g.Pids) > 0 {
		rec.Proc = make(map[int][]float64, len(snap.Procs))
		rec.ProcComm = make(map[int]string, len(snap.Procs))
	}

	var dt float64
	if prev != nil {
		dt = snap.Time.Sub(prev.Time).Seconds()
	}
	if dt <= 0 {
		dt = 1
		if prev != nil && !snap.Time.After(prev.Time) {
			// Clock did not advance; treat as warmup to avoid bogus rates.
			prev = nil
			rec.Warmup = true
		}
	}

	if g.Node {
		rec.Node = nodeVector(snap, prev, dt)
	}
	for i := range snap.Nets {
		cur := &snap.Nets[i]
		if !g.wantIface(cur.Iface) {
			continue
		}
		var old *procfs.NetDevStat
		if prev != nil {
			for j := range prev.Nets {
				if prev.Nets[j].Iface == cur.Iface {
					old = &prev.Nets[j]
					break
				}
			}
		}
		rec.Net[cur.Iface] = netVector(cur, old, dt)
	}
	for i := range snap.Procs {
		cur := &snap.Procs[i]
		if !g.wantPid(cur.PID) {
			continue
		}
		var old *procfs.PIDStat
		if prev != nil {
			for j := range prev.Procs {
				if prev.Procs[j].PID == cur.PID && prev.Procs[j].StartTime == cur.StartTime {
					old = &prev.Procs[j]
					break
				}
			}
		}
		rec.Proc[cur.PID] = procVector(cur, old, dt, snap.Mem.MemTotal)
		rec.ProcComm[cur.PID] = cur.Comm
	}
	return rec, nil
}

// rate converts a counter delta to a per-second rate, clamping negative
// deltas (counter wrap or process restart) to zero.
func rate(cur, old uint64, dt float64) float64 {
	if cur < old {
		return 0
	}
	return float64(cur-old) / dt
}

func nodeVector(snap, prev *procfs.Snapshot, dt float64) []float64 {
	v := make([]float64, len(NodeMetricNames))
	i := 0
	set := func(x float64) {
		v[i] = x
		i++
	}

	// CPU percentages over the interval.
	var du, dn, ds, dw, dst, di, dbusy, dtotal float64
	if prev != nil {
		cur, old := snap.Stat.CPUTotal, prev.Stat.CPUTotal
		dtotal = float64(cur.Total() - old.Total())
		if dtotal > 0 {
			du = float64(cur.User-old.User) / dtotal * 100
			dn = float64(cur.Nice-old.Nice) / dtotal * 100
			ds = float64(cur.System-old.System) / dtotal * 100
			dw = float64(cur.IOWait-old.IOWait) / dtotal * 100
			dst = float64(cur.Steal-old.Steal) / dtotal * 100
			di = float64(cur.Idle-old.Idle) / dtotal * 100
			dbusy = float64(cur.Busy()-old.Busy()) / dtotal * 100
		}
	}
	set(du)
	set(dn)
	set(ds)
	set(dw)
	set(dst)
	set(di)
	set(dbusy)
	set(float64(len(snap.Stat.PerCPU)))

	if prev != nil {
		set(rate(snap.Stat.ContextSwitches, prev.Stat.ContextSwitches, dt))
		set(rate(snap.Stat.Interrupts, prev.Stat.Interrupts, dt))
		set(rate(snap.Stat.Processes, prev.Stat.Processes, dt))
	} else {
		set(0)
		set(0)
		set(0)
	}
	set(float64(snap.Stat.ProcsRunning))
	set(float64(snap.Stat.ProcsBlocked))
	set(float64(snap.Load.Total))

	set(snap.Load.Load1)
	set(snap.Load.Load5)
	set(snap.Load.Load15)
	set(float64(snap.Load.Running))

	if prev != nil {
		set(rate(snap.VM.PgpgIn, prev.VM.PgpgIn, dt))
		set(rate(snap.VM.PgpgOut, prev.VM.PgpgOut, dt))
		set(rate(snap.VM.PgFault, prev.VM.PgFault, dt))
		set(rate(snap.VM.PgMajFault, prev.VM.PgMajFault, dt))
		set(rate(snap.VM.PgFree, prev.VM.PgFree, dt))
		set(rate(snap.VM.PgScanKswapd, prev.VM.PgScanKswapd, dt))
		set(rate(snap.VM.PswpIn, prev.VM.PswpIn, dt))
		set(rate(snap.VM.PswpOut, prev.VM.PswpOut, dt))
	} else {
		for k := 0; k < 8; k++ {
			set(0)
		}
	}

	m := snap.Mem
	set(float64(m.MemTotal))
	set(float64(m.MemFree))
	set(float64(m.Used()))
	set(pct(float64(m.Used()), float64(m.MemTotal)))
	set(float64(m.Buffers))
	set(float64(m.Cached))
	set(float64(m.Active))
	set(float64(m.Inactive))
	set(float64(m.Dirty))
	set(float64(m.Writeback))
	set(float64(m.CommittedAS))
	set(pct(float64(m.CommittedAS), float64(m.MemTotal+m.SwapTotal)))

	swapUsed := uint64(0)
	if m.SwapTotal > m.SwapFree {
		swapUsed = m.SwapTotal - m.SwapFree
	}
	set(float64(m.SwapTotal))
	set(float64(m.SwapFree))
	set(float64(swapUsed))
	set(pct(float64(swapUsed), float64(m.SwapTotal)))

	// Disk aggregate.
	var reads, writes, sectR, sectW, rMerged, wMerged, rTime, wTime, inProg, ioTime, wIOTime float64
	for i := range snap.Disks {
		cur := &snap.Disks[i]
		var old *procfs.DiskStat
		if prev != nil {
			for j := range prev.Disks {
				if prev.Disks[j].Name == cur.Name {
					old = &prev.Disks[j]
					break
				}
			}
		}
		if old == nil {
			inProg += float64(cur.IOInProgress)
			continue
		}
		reads += rate(cur.ReadsCompleted, old.ReadsCompleted, dt)
		writes += rate(cur.WritesCompleted, old.WritesCompleted, dt)
		sectR += rate(cur.SectorsRead, old.SectorsRead, dt)
		sectW += rate(cur.SectorsWritten, old.SectorsWritten, dt)
		rMerged += rate(cur.ReadsMerged, old.ReadsMerged, dt)
		wMerged += rate(cur.WritesMerged, old.WritesMerged, dt)
		rTime += rate(cur.ReadTimeMs, old.ReadTimeMs, dt)
		wTime += rate(cur.WriteTimeMs, old.WriteTimeMs, dt)
		inProg += float64(cur.IOInProgress)
		ioTime += rate(cur.IOTimeMs, old.IOTimeMs, dt)
		wIOTime += rate(cur.WeightedIOMs, old.WeightedIOMs, dt)
	}
	set(reads + writes)
	set(reads)
	set(writes)
	set(sectR * sectorSizeBytes / 1024)
	set(sectW * sectorSizeBytes / 1024)
	set(rMerged)
	set(wMerged)
	set(rTime)
	set(wTime)
	set(inProg)
	set(ioTime)
	set(minFloat(ioTime/10, 100)) // ms of io per second -> % utilization
	set(wIOTime)

	// Network aggregate.
	var rxB, txB, rxP, txP, rxE, txE, rxD, txD float64
	for i := range snap.Nets {
		cur := &snap.Nets[i]
		var old *procfs.NetDevStat
		if prev != nil {
			for j := range prev.Nets {
				if prev.Nets[j].Iface == cur.Iface {
					old = &prev.Nets[j]
					break
				}
			}
		}
		if old == nil {
			continue
		}
		rxB += rate(cur.RxBytes, old.RxBytes, dt)
		txB += rate(cur.TxBytes, old.TxBytes, dt)
		rxP += rate(cur.RxPackets, old.RxPackets, dt)
		txP += rate(cur.TxPackets, old.TxPackets, dt)
		rxE += rate(cur.RxErrors, old.RxErrors, dt)
		txE += rate(cur.TxErrors, old.TxErrors, dt)
		rxD += rate(cur.RxDropped, old.RxDropped, dt)
		txD += rate(cur.TxDropped, old.TxDropped, dt)
	}
	set(rxB / 1024)
	set(txB / 1024)
	set(rxP)
	set(txP)
	set(rxE)
	set(txE)
	set(rxD)
	set(txD)

	set(snap.Uptime)

	if i != len(NodeMetricNames) {
		panic(fmt.Sprintf("sadc: node vector filled %d of %d metrics", i, len(NodeMetricNames)))
	}
	return v
}

func netVector(cur, old *procfs.NetDevStat, dt float64) []float64 {
	v := make([]float64, len(NetMetricNames))
	if old == nil {
		return v
	}
	rxB := rate(cur.RxBytes, old.RxBytes, dt)
	txB := rate(cur.TxBytes, old.TxBytes, dt)
	vals := []float64{
		rxB, txB,
		rxB / 1024, txB / 1024,
		rate(cur.RxPackets, old.RxPackets, dt), rate(cur.TxPackets, old.TxPackets, dt),
		rate(cur.RxCompressed, old.RxCompressed, dt), rate(cur.TxCompressed, old.TxCompressed, dt),
		rate(cur.RxMulticast, old.RxMulticast, dt),
		rate(cur.RxErrors, old.RxErrors, dt), rate(cur.TxErrors, old.TxErrors, dt),
		rate(cur.RxDropped, old.RxDropped, dt), rate(cur.TxDropped, old.TxDropped, dt),
		rate(cur.RxFIFO, old.RxFIFO, dt), rate(cur.TxFIFO, old.TxFIFO, dt),
		rate(cur.RxFrame, old.RxFrame, dt), rate(cur.TxCarrier, old.TxCarrier, dt),
		rate(cur.TxCollisions, old.TxCollisions, dt),
	}
	copy(v, vals)
	return v
}

func procVector(cur, old *procfs.PIDStat, dt float64, memTotalKB uint64) []float64 {
	v := make([]float64, len(ProcMetricNames))
	i := 0
	set := func(x float64) {
		v[i] = x
		i++
	}

	var userPct, sysPct float64
	var minfltRate, majfltRate, ioR, ioW float64
	if old != nil {
		userPct = rate(cur.UTime, old.UTime, dt) / jiffiesPerSecond * 100
		sysPct = rate(cur.STime, old.STime, dt) / jiffiesPerSecond * 100
		minfltRate = rate(cur.MinFlt, old.MinFlt, dt)
		majfltRate = rate(cur.MajFlt, old.MajFlt, dt)
		ioR = rate(cur.ReadBytes, old.ReadBytes, dt) / 1024
		ioW = rate(cur.WriteBytes, old.WriteBytes, dt) / 1024
	}
	set(userPct)
	set(sysPct)
	set(userPct + sysPct)
	set(float64(cur.UTime) / jiffiesPerSecond)
	set(float64(cur.STime) / jiffiesPerSecond)
	set(float64(cur.UTime+cur.STime) / jiffiesPerSecond)
	set(minfltRate)
	set(majfltRate)
	set(float64(cur.MinFlt + cur.MajFlt))

	rssKB := float64(cur.RSSPages) * pageSizeKB
	if cur.VMRSSkB > 0 {
		rssKB = float64(cur.VMRSSkB)
	}
	set(float64(cur.VSizeBytes) / 1024)
	set(rssKB)
	set(float64(cur.RSSPages))
	set(pct(rssKB, float64(memTotalKB)))

	set(float64(cur.NumThreads))
	if cur.State == 'R' {
		set(1)
	} else {
		set(0)
	}
	set(float64(cur.State))

	set(ioR)
	set(ioW)
	set(ioR + ioW)

	if i != len(ProcMetricNames) {
		panic(fmt.Sprintf("sadc: proc vector filled %d of %d metrics", i, len(ProcMetricNames)))
	}
	return v
}

func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return part / whole * 100
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
