package sadc

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/asdf-project/asdf/internal/procfs"
)

// groupScenario is a snapshot sequence that walks every branch of Collect:
// the warm-up record, steady rates, a second interface and process coming
// and going, a clock that does not advance, a pid that restarts under a new
// StartTime, and an interface that disappears.
func groupScenario() []*procfs.Snapshot {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	s := []*procfs.Snapshot{baseSnapshot(t0)}
	next := func(edit func(*procfs.Snapshot)) {
		n := advance(s[len(s)-1])
		edit(n)
		s = append(s, n)
	}
	next(func(*procfs.Snapshot) {})
	next(func(n *procfs.Snapshot) {
		n.Nets = append(n.Nets, procfs.NetDevStat{Iface: "eth1", RxBytes: 999, TxPackets: 7})
		n.Procs = append(n.Procs, procfs.PIDStat{PID: 77, Comm: "tt", State: 'S', UTime: 10, StartTime: 500, RSSPages: 10})
	})
	next(func(n *procfs.Snapshot) {
		n.Nets[1].RxBytes += 4096
		n.Procs[1].UTime += 30
	})
	next(func(n *procfs.Snapshot) { n.Time = n.Time.Add(-time.Second) }) // clock did not advance
	next(func(n *procfs.Snapshot) {
		n.Procs[0].StartTime = 99999 // pid 42 restarted
		n.Procs[0].UTime = 5
	})
	next(func(n *procfs.Snapshot) { n.Nets = n.Nets[1:] }) // eth0 disappears
	next(func(n *procfs.Snapshot) { n.Procs = n.Procs[:1] })
	next(func(*procfs.Snapshot) {})
	return s
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestGroupCollectorMatchesFullCollect: for every subset of {node, named
// interfaces, named pids} (and the every-interface / every-pid forms the
// JSON group methods use), each vector the scoped collector reports equals
// the full collector's for the same snapshot sequence bit for bit, and
// nothing outside the scope is reported at all.
func TestGroupCollectorMatchesFullCollect(t *testing.T) {
	ifaceSets := [][]string{nil, {"eth0"}, {"eth1", "eth0"}, {"lo"}}
	pidSets := [][]int{nil, {42}, {77, 42}, {1}}
	var scopes []Groups
	for _, node := range []bool{false, true} {
		for _, ifaces := range ifaceSets {
			for _, pids := range pidSets {
				scopes = append(scopes, Groups{Node: node, Ifaces: ifaces, Pids: pids})
			}
		}
		scopes = append(scopes,
			Groups{Node: node, AllIfaces: true},
			Groups{Node: node, AllPids: true},
			Groups{Node: node, AllIfaces: true, AllPids: true, Ifaces: []string{"eth0"}, Pids: []int{42}})
	}

	for _, g := range scopes {
		t.Run(fmt.Sprintf("%+v", g), func(t *testing.T) {
			full := NewCollector(&fakeProvider{snaps: groupScenario()})
			scoped := NewGroupCollector(&fakeProvider{snaps: groupScenario()}, g)
			for step := range groupScenario() {
				want, err := full.Collect()
				if err != nil {
					t.Fatal(err)
				}
				got, err := scoped.Collect()
				if err != nil {
					t.Fatal(err)
				}
				if !got.Time.Equal(want.Time) || got.Warmup != want.Warmup {
					t.Fatalf("step %d: time/warmup %v/%v, full collect %v/%v", step, got.Time, got.Warmup, want.Time, want.Warmup)
				}
				if g.Node != (got.Node != nil) || (g.Node && !sameBits(got.Node, want.Node)) {
					t.Errorf("step %d: node vector %v, full collect %v", step, got.Node, want.Node)
				}
				for iface, v := range want.Net {
					gv, ok := got.Net[iface]
					if ok != g.wantIface(iface) || (ok && !sameBits(gv, v)) {
						t.Errorf("step %d: iface %s reported=%v %v, full collect %v", step, iface, ok, gv, v)
					}
				}
				for pid, v := range want.Proc {
					gv, ok := got.Proc[pid]
					if ok != g.wantPid(pid) || (ok && !sameBits(gv, v)) {
						t.Errorf("step %d: pid %d reported=%v %v, full collect %v", step, pid, ok, gv, v)
					}
					if comm, ok := got.ProcComm[pid]; ok != g.wantPid(pid) || (ok && comm != want.ProcComm[pid]) {
						t.Errorf("step %d: pid %d comm %q reported=%v, full collect %q", step, pid, comm, ok, want.ProcComm[pid])
					}
				}
				if len(got.Net) > len(want.Net) || len(got.Proc) > len(want.Proc) || len(got.ProcComm) > len(want.ProcComm) {
					t.Errorf("step %d: scoped record reports groups the full collect lacks", step)
				}
			}
		})
	}
}

// TestGroupCollectorSkipsUnshippedGroups: a node-only collector builds no
// per-interface or per-process state at all — the allocations the stream's
// schema never ships.
func TestGroupCollectorSkipsUnshippedGroups(t *testing.T) {
	snaps := groupScenario()
	perCollect := func(c *Collector) float64 {
		return testing.AllocsPerRun(len(snaps)-1, func() {
			if _, err := c.Collect(); err != nil {
				t.Fatal(err)
			}
		})
	}
	full := perCollect(NewCollector(&fakeProvider{snaps: snaps}))
	node := perCollect(NewGroupCollector(&fakeProvider{snaps: snaps}, Groups{Node: true}))
	if node != 2 { // the Record and its node vector
		t.Errorf("node-only Collect allocates %.1f times, want 2", node)
	}
	if full < node+5 {
		t.Errorf("full Collect allocates %.1f times, node-only %.1f: expected the maps and vectors to show", full, node)
	}
	rec, err := NewGroupCollector(&fakeProvider{snaps: snaps}, Groups{Node: true}).Collect()
	if err != nil || rec.Net != nil || rec.Proc != nil || rec.ProcComm != nil {
		t.Errorf("node-only record carries net/proc state: %+v (err %v)", rec, err)
	}
}
