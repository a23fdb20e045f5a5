package modules

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/hadoopsim"
	"github.com/asdf-project/asdf/internal/hierarchy"
	"github.com/asdf-project/asdf/internal/rpc"
)

// hierLeader is one shard leader in a test topology: its delegated range
// and its leader→daemon wire. With jsonHop the leader serves only the JSON sweep methods — a pre-columnar
// leader build — so a columnar root must fall back per leader.
type hierLeader struct {
	rng     hierarchy.Range
	wire    string
	jsonHop bool
}

// startLeader builds a Leader over the fleet's daemons and serves it on
// loopback, returning its address. The leader shares the cluster's virtual
// clock, as a production leader shares wall time with the root.
func startLeader(t *testing.T, c *hadoopsim.Cluster, li int, sp hierLeader, nodes, sadcAddrs, logAddrs []string) (ldr *Leader, addr string) {
	t.Helper()
	lenv := NewEnv()
	lenv.Clock = c.Now
	opt := LeaderOptions{
		Name:  fmt.Sprintf("leader%d", li),
		Nodes: nodes[sp.rng.Start:sp.rng.End],
		Wire:  sp.wire,
	}
	if sadcAddrs != nil {
		opt.SadcAddrs = sadcAddrs[sp.rng.Start:sp.rng.End]
	}
	if logAddrs != nil {
		opt.LogAddrs = logAddrs[sp.rng.Start:sp.rng.End]
		opt.LogKind = hadooplog.KindTaskTracker
	}
	ldr, err := NewLeader(lenv, opt)
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(hierarchy.ServiceLeader)
	registerTestLeader(srv, ldr, sp.jsonHop)
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return ldr, a.String()
}

// registerTestLeader registers the full leader surface, or — for a
// pre-columnar leader build — the JSON sweep methods alone.
func registerTestLeader(srv *rpc.Server, ldr *Leader, jsonHop bool) {
	if !jsonHop {
		ldr.Register(srv)
		return
	}
	srv.Handle(hierarchy.MethodSadcSweep, func(json.RawMessage) (any, error) {
		return ldr.SadcSweep()
	})
	srv.Handle(hierarchy.MethodLogSweep, func(json.RawMessage) (any, error) {
		return ldr.LogSweep()
	})
}

// hierParams renders the delegation lines of a root instance config.
func hierParams(leaderAddrs []string, specs []hierLeader) string {
	if len(specs) == 0 {
		return ""
	}
	ranges := make([]string, len(specs))
	for i, sp := range specs {
		ranges[i] = sp.rng.String()
	}
	return fmt.Sprintf("leaders = %s\nleader_ranges = %s\n",
		strings.Join(leaderAddrs, ","), strings.Join(ranges, ","))
}

// maskDelegated replaces delegated addrs entries with the "-" placeholder.
func maskDelegated(addrs []string, specs []hierLeader) []string {
	out := append([]string(nil), addrs...)
	for _, sp := range specs {
		for i := sp.rng.Start; i < sp.rng.End; i++ {
			out[i] = "-"
		}
	}
	return out
}

// runHierSadcCase runs the multi-node sadc collector with part of the fleet
// delegated to shard-leader processes and returns the CSV sink bytes; the
// direct runWireSadcCase output for the same cluster seed is the comparison
// baseline.
func runHierSadcCase(t *testing.T, slaves int, seed int64, wc wireCase, specs []hierLeader) []byte {
	t.Helper()
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(slaves, seed))
	if err != nil {
		t.Fatal(err)
	}
	var names, addrs []string
	for i, n := range c.Slaves() {
		srv := rpc.NewServer(ServiceSadc)
		if wc.jsonOnly[i] {
			registerSadcJSON(srv, n)
		} else {
			RegisterSadcServer(srv, n)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		names = append(names, n.Name)
		addrs = append(addrs, addr.String())
	}
	var leaderAddrs []string
	for li, sp := range specs {
		_, la := startLeader(t, c, li, sp, names, addrs, nil)
		leaderAddrs = append(leaderAddrs, la)
	}
	env := NewEnv()
	env.Clock = c.Now

	csvPath := filepath.Join(t.TempDir(), "out.csv")
	var b strings.Builder
	fmt.Fprintf(&b, "[sadc]\nid = cluster\nnodes = %s\nmode = rpc\naddrs = %s\nperiod = 1\n%s%s\n",
		strings.Join(names, ","), strings.Join(maskDelegated(addrs, specs), ","),
		wc.params(), hierParams(leaderAddrs, specs))
	fmt.Fprintf(&b, "[csv]\nid = log\npath = %s\n", csvPath)
	for i, n := range names {
		fmt.Fprintf(&b, "input[m%d] = cluster.%s\n", i, n)
	}
	e := mustEngine(t, env, b.String())
	runSim(t, c, e, 30)
	if err := e.Flush(c.Now()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHierarchySadcMatchesDirect asserts the hierarchical collection plane
// logs CSV byte-identical to the single-process configuration, across the
// root-hop and leader-hop transport matrix.
func TestHierarchySadcMatchesDirect(t *testing.T) {
	const slaves, seed = 6, 1201
	baseline := runWireSadcCase(t, slaves, seed, wireCase{wire: "json"})
	if len(baseline) == 0 {
		t.Fatal("direct baseline produced no CSV output")
	}
	cases := []struct {
		name  string
		wc    wireCase
		specs []hierLeader
	}{
		{"two-leaders-json", wireCase{wire: "json"},
			[]hierLeader{{rng: hierarchy.Range{Start: 0, End: 3}}, {rng: hierarchy.Range{Start: 3, End: 6}}}},
		{"partial-delegation", wireCase{},
			[]hierLeader{{rng: hierarchy.Range{Start: 2, End: 5}}}},
		{"columnar-hop", wireCase{wire: "columnar"},
			[]hierLeader{
				{rng: hierarchy.Range{Start: 0, End: 3}, wire: "columnar"},
				{rng: hierarchy.Range{Start: 3, End: 6}, wire: "columnar"}}},
		{"columnar-subscribe-hop", wireCase{wire: "columnar", subscribe: true},
			[]hierLeader{
				{rng: hierarchy.Range{Start: 0, End: 3}, wire: "columnar"},
				{rng: hierarchy.Range{Start: 3, End: 6}, wire: "columnar"}}},
		{"columnar-hop-json-daemons", wireCase{wire: "columnar"},
			[]hierLeader{
				{rng: hierarchy.Range{Start: 0, End: 3}, wire: "json"},
				{rng: hierarchy.Range{Start: 3, End: 6}, wire: "json"}}},
		{"json-hop-mixed-leader-wires", wireCase{wire: "json"},
			[]hierLeader{
				{rng: hierarchy.Range{Start: 0, End: 4}},
				{rng: hierarchy.Range{Start: 4, End: 6}, wire: "columnar"}}},
		{"columnar-partial-delegation", wireCase{wire: "columnar"},
			[]hierLeader{{rng: hierarchy.Range{Start: 0, End: 2}, wire: "columnar"}}},
		// A pre-columnar leader build: the root's columnar hop must fall
		// back to the JSON sweep for that leader alone.
		{"pre-columnar-leader-fallback", wireCase{wire: "columnar"},
			[]hierLeader{
				{rng: hierarchy.Range{Start: 0, End: 3}, jsonHop: true},
				{rng: hierarchy.Range{Start: 3, End: 6}, wire: "columnar"}}},
		// Mixed-version fleet: one fully columnar leader range beside a
		// direct range of pre-columnar daemons (per-node JSON fallback).
		{"mixed-version-fleet", wireCase{wire: "columnar", jsonOnly: map[int]bool{3: true, 4: true, 5: true}},
			[]hierLeader{{rng: hierarchy.Range{Start: 0, End: 3}, wire: "columnar"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runHierSadcCase(t, slaves, seed, tc.wc, tc.specs)
			if !bytes.Equal(baseline, got) {
				t.Errorf("sink output differs from direct baseline: %d bytes vs %d",
					len(got), len(baseline))
			}
		})
	}
}

// runHierLogCase is the hadoop_log counterpart of runHierSadcCase.
func runHierLogCase(t *testing.T, slaves int, seed int64, wc wireCase, specs []hierLeader) []byte {
	t.Helper()
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(slaves, seed))
	if err != nil {
		t.Fatal(err)
	}
	var names, addrs []string
	for i, n := range c.Slaves() {
		srv := rpc.NewServer(ServiceHadoopLog)
		if wc.jsonOnly[i] {
			registerHadoopLogJSON(srv, n.TaskTrackerLog(), n.DataNodeLog(), c.Now)
		} else {
			RegisterHadoopLogServer(srv, n.TaskTrackerLog(), n.DataNodeLog(), c.Now)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		names = append(names, n.Name)
		addrs = append(addrs, addr.String())
	}
	var leaderAddrs []string
	for li, sp := range specs {
		_, la := startLeader(t, c, li, sp, names, nil, addrs)
		leaderAddrs = append(leaderAddrs, la)
	}
	env := NewEnv()
	env.Clock = c.Now

	csvPath := filepath.Join(t.TempDir(), "out.csv")
	var b strings.Builder
	fmt.Fprintf(&b, "[hadoop_log]\nid = hl\nkind = tasktracker\nnodes = %s\nmode = rpc\naddrs = %s\nperiod = 1\n%s%s\n",
		strings.Join(names, ","), strings.Join(maskDelegated(addrs, specs), ","),
		wc.params(), hierParams(leaderAddrs, specs))
	fmt.Fprintf(&b, "[csv]\nid = log\npath = %s\n", csvPath)
	for i, n := range names {
		fmt.Fprintf(&b, "input[m%d] = hl.%s\n", i, n)
	}
	e := mustEngine(t, env, b.String())
	runSim(t, c, e, 30)
	if err := e.Flush(c.Now()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHierarchyLogMatchesDirect covers the white-box path: delegated log
// ranges must feed the timestamp synchronizer to byte-identical output.
func TestHierarchyLogMatchesDirect(t *testing.T) {
	const slaves, seed = 4, 1202
	baseline := runWireLogCase(t, slaves, seed, wireCase{wire: "json"})
	if len(baseline) == 0 {
		t.Fatal("direct baseline produced no CSV output")
	}
	cases := []struct {
		name  string
		wc    wireCase
		specs []hierLeader
	}{
		{"two-leaders-json", wireCase{wire: "json"},
			[]hierLeader{{rng: hierarchy.Range{Start: 0, End: 2}}, {rng: hierarchy.Range{Start: 2, End: 4}}}},
		{"partial-delegation", wireCase{},
			[]hierLeader{{rng: hierarchy.Range{Start: 1, End: 3}}}},
		{"columnar-hop", wireCase{wire: "columnar"},
			[]hierLeader{
				{rng: hierarchy.Range{Start: 0, End: 2}, wire: "columnar"},
				{rng: hierarchy.Range{Start: 2, End: 4}, wire: "columnar"}}},
		{"columnar-subscribe-hop", wireCase{wire: "columnar", subscribe: true},
			[]hierLeader{{rng: hierarchy.Range{Start: 0, End: 3}, wire: "columnar"}}},
		{"pre-columnar-leader-fallback", wireCase{wire: "columnar"},
			[]hierLeader{
				{rng: hierarchy.Range{Start: 0, End: 2}, jsonHop: true},
				{rng: hierarchy.Range{Start: 2, End: 4}, wire: "columnar"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runHierLogCase(t, slaves, seed, tc.wc, tc.specs)
			if !bytes.Equal(baseline, got) {
				t.Errorf("sink output differs from direct baseline: %d bytes vs %d",
					len(got), len(baseline))
			}
		})
	}
}

// TestHierParamValidation pins the configuration contract for the
// delegation knobs.
func TestHierParamValidation(t *testing.T) {
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(2, 7))
	if err != nil {
		t.Fatal(err)
	}
	env := simEnv(c)
	n0, n1 := c.Slaves()[0].Name, c.Slaves()[1].Name
	nodes := n0 + "," + n1
	for _, tc := range []struct {
		name, cfg, wantErr string
	}{
		{
			"leaders-need-rpc",
			"[sadc]\nid = s\nnodes = " + nodes + "\nleaders = 127.0.0.1:1\nleader_ranges = 0-2\n",
			"leaders requires mode = rpc",
		},
		{
			"leaders-need-multi-node-form",
			"[sadc]\nid = s\nnode = " + n0 + "\nmode = rpc\naddr = 127.0.0.1:1\nleaders = 127.0.0.1:2\nleader_ranges = 0-1\n",
			"multi-node (nodes =) form",
		},
		{
			"ranges-without-leaders",
			"[sadc]\nid = s\nnodes = " + nodes + "\nmode = rpc\naddrs = 127.0.0.1:1,127.0.0.1:2\nleader_ranges = 0-2\n",
			"leader_ranges without leaders",
		},
		{
			"count-mismatch",
			"[sadc]\nid = s\nnodes = " + nodes + "\nmode = rpc\naddrs = -,-\nleaders = 127.0.0.1:1\nleader_ranges = 0-1,1-2\n",
			"leaders for",
		},
		{
			"overlapping-ranges",
			"[sadc]\nid = s\nnodes = " + nodes + "\nmode = rpc\naddrs = -,-\nleaders = 127.0.0.1:1,127.0.0.1:2\nleader_ranges = 0-2,1-2\n",
			"overlap",
		},
		{
			"range-out-of-bounds",
			"[sadc]\nid = s\nnodes = " + nodes + "\nmode = rpc\naddrs = -,-\nleaders = 127.0.0.1:1\nleader_ranges = 0-3\n",
			"exceeds",
		},
		{
			"dash-for-undelegated-node",
			"[sadc]\nid = s\nnodes = " + nodes + "\nmode = rpc\naddrs = 127.0.0.1:1,-\nleaders = 127.0.0.1:2\nleader_ranges = 0-1\n",
			"undelegated node",
		},
		{
			"hadoop-log-leaders-need-rpc",
			"[hadoop_log]\nid = h\nkind = tasktracker\nnodes = " + nodes + "\nleaders = 127.0.0.1:1\nleader_ranges = 0-2\n",
			"leaders requires mode = rpc",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := config.ParseString(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = core.NewEngine(NewRegistry(env), cfg)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// runDaemonOutageCase runs a fleet where the daemons of nodes 0..down-1 die
// at tick 10 and come back on their old addresses at tick 20, and returns
// the CSV sink bytes. With specs nil the root collects directly; otherwise
// the outage range sits behind a shard leader. The engine swallows
// collection errors (no quarantine, no degrade) so the sink records exactly
// what the collection plane delivered.
func runDaemonOutageCase(t *testing.T, slaves, down int, seed int64, specs []hierLeader) []byte {
	t.Helper()
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(slaves, seed))
	if err != nil {
		t.Fatal(err)
	}
	var names, addrs []string
	servers := make([]*rpc.Server, slaves)
	for i, n := range c.Slaves() {
		srv := rpc.NewServer(ServiceSadc)
		RegisterSadcServer(srv, n)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		servers[i] = srv
		names = append(names, n.Name)
		addrs = append(addrs, addr.String())
	}
	var leaderAddrs []string
	for li, sp := range specs {
		_, la := startLeader(t, c, li, sp, names, addrs, nil)
		leaderAddrs = append(leaderAddrs, la)
	}
	env := NewEnv()
	env.Clock = c.Now

	csvPath := filepath.Join(t.TempDir(), "out.csv")
	var b strings.Builder
	fmt.Fprintf(&b, "[sadc]\nid = cluster\nnodes = %s\nmode = rpc\naddrs = %s\nperiod = 1\n%s\n",
		strings.Join(names, ","), strings.Join(maskDelegated(addrs, specs), ","),
		hierParams(leaderAddrs, specs))
	fmt.Fprintf(&b, "[csv]\nid = log\npath = %s\n", csvPath)
	for i, n := range names {
		fmt.Fprintf(&b, "input[m%d] = cluster.%s\n", i, n)
	}
	cfg, err := config.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(NewRegistry(env), cfg,
		core.WithErrorHandler(func(string, error) {}))
	if err != nil {
		t.Fatal(err)
	}
	tick := func(n int) {
		for i := 0; i < n; i++ {
			c.Tick()
			if err := e.Tick(c.Now()); err != nil {
				t.Fatalf("tick: %v", err)
			}
		}
	}
	tick(10)
	for i := 0; i < down; i++ {
		if err := servers[i].Close(); err != nil {
			t.Fatal(err)
		}
	}
	tick(10)
	// Daemon restart: a fresh server (and therefore a fresh collector, which
	// re-warms its rate state) on the old address — identical in both modes
	// because the collector lives behind the daemon RPC boundary.
	for i := 0; i < down; i++ {
		srv := rpc.NewServer(ServiceSadc)
		RegisterSadcServer(srv, c.Slaves()[i])
		if _, err := srv.Listen(addrs[i]); err != nil {
			t.Fatalf("re-listen on %s: %v", addrs[i], err)
		}
		t.Cleanup(func() { _ = srv.Close() })
	}
	tick(15)
	if err := e.Flush(c.Now()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHierarchyDaemonOutageMatchesDirect holds the strongest equivalence
// claim: when collection daemons die and recover mid-run, the hierarchical
// plane must degrade and heal byte-identically to the direct configuration —
// same missing ticks, same breaker-paced reconnect, same re-warmup.
func TestHierarchyDaemonOutageMatchesDirect(t *testing.T) {
	const slaves, down, seed = 4, 3, 1204
	direct := runDaemonOutageCase(t, slaves, down, seed, nil)
	if len(direct) == 0 {
		t.Fatal("direct outage run produced no CSV output")
	}
	for _, tc := range []struct {
		name  string
		specs []hierLeader
	}{
		{"one-leader-covers-outage", []hierLeader{{rng: hierarchy.Range{Start: 0, End: 3}}}},
		{"outage-split-across-leaders", []hierLeader{
			{rng: hierarchy.Range{Start: 0, End: 2}, wire: "columnar"},
			{rng: hierarchy.Range{Start: 2, End: 4}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runDaemonOutageCase(t, slaves, down, seed, tc.specs)
			if !bytes.Equal(direct, got) {
				t.Errorf("sink output differs from direct outage baseline: %d bytes vs %d",
					len(got), len(direct))
			}
		})
	}
}

// TestHierarchyLeaderKillRecover kills one of two leaders mid-run and
// restarts it on the same address: the instance must degrade through the
// ordinary supervisor path (quarantine + gap-fill rows tagged degraded),
// recover once the leader is back, and never emit duplicate or rewound
// timestamps.
func TestHierarchyLeaderKillRecover(t *testing.T) {
	const slaves, seed = 4, 1203
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(slaves, seed))
	if err != nil {
		t.Fatal(err)
	}
	var names, addrs []string
	for _, n := range c.Slaves() {
		srv := rpc.NewServer(ServiceSadc)
		RegisterSadcServer(srv, n)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		names = append(names, n.Name)
		addrs = append(addrs, addr.String())
	}
	specs := []hierLeader{
		{rng: hierarchy.Range{Start: 0, End: 2}},
		{rng: hierarchy.Range{Start: 2, End: 4}},
	}
	// leader0 is built by hand (not startLeader) so the test can kill its
	// server and re-serve the same Leader on the same address.
	lenv := NewEnv()
	lenv.Clock = c.Now
	ldr0, err := NewLeader(lenv, LeaderOptions{
		Name:      "leader0",
		Nodes:     names[0:2],
		SadcAddrs: addrs[0:2],
	})
	if err != nil {
		t.Fatal(err)
	}
	lsrv0 := rpc.NewServer(hierarchy.ServiceLeader)
	ldr0.Register(lsrv0)
	la0, err := lsrv0.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, la1 := startLeader(t, c, 1, specs[1], names, addrs, nil)
	leaderAddrs := []string{la0.String(), la1}

	env := NewEnv()
	env.Clock = c.Now
	csvPath := filepath.Join(t.TempDir(), "out.csv")
	var b strings.Builder
	fmt.Fprintf(&b, "[sadc]\nid = cluster\nnodes = %s\nmode = rpc\naddrs = %s\nperiod = 1\n%s\n",
		strings.Join(names, ","), strings.Join(maskDelegated(addrs, specs), ","),
		hierParams(leaderAddrs, specs))
	fmt.Fprintf(&b, "[csv]\nid = log\npath = %s\n", csvPath)
	for i, n := range names {
		fmt.Fprintf(&b, "input[m%d] = cluster.%s\n", i, n)
	}
	cfg, err := config.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(NewRegistry(env), cfg,
		core.WithErrorHandler(func(string, error) {}),
		core.WithQuarantine(3, 4*time.Second),
		core.WithDegrade(core.DegradeHold))
	if err != nil {
		t.Fatal(err)
	}

	tick := func(n int) {
		for i := 0; i < n; i++ {
			c.Tick()
			if err := e.Tick(c.Now()); err != nil {
				t.Fatalf("tick: %v", err)
			}
		}
	}
	tick(10)
	// Kill leader0; its range errors whole, the instance quarantines past
	// the failure budget, and DegradeHold gap-fills every output.
	if err := lsrv0.Close(); err != nil {
		t.Fatal(err)
	}
	tick(12)
	// Restart the leader on its old address. The root's managed client
	// reconnects through its breaker's half-open probe; the daemons kept
	// their rate state, so collection resumes without re-warmup.
	lsrv0b := rpc.NewServer(hierarchy.ServiceLeader)
	ldr0.Register(lsrv0b)
	if _, err := lsrv0b.Listen(la0.String()); err != nil {
		t.Fatalf("re-listen on %s: %v", la0, err)
	}
	t.Cleanup(func() { _ = lsrv0b.Close() })
	tick(18)
	if err := e.Flush(c.Now()); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 {
		t.Fatalf("no CSV rows: %q", data)
	}
	degraded := 0
	lastClean := map[string]string{}
	lastTime := map[string]string{}
	maxTime := ""
	for _, line := range lines[1:] {
		f := strings.SplitN(line, ",", 5)
		if len(f) != 5 {
			t.Fatalf("malformed CSV row %q", line)
		}
		key := f[1] + "/" + f[2] + "/" + f[3]
		if prev, ok := lastTime[key]; ok && f[0] <= prev {
			t.Fatalf("duplicate or rewound timestamp for %s: %s after %s", key, f[0], prev)
		}
		lastTime[key] = f[0]
		if f[0] > maxTime {
			maxTime = f[0]
		}
		if strings.HasSuffix(f[4], ";degraded") {
			degraded++
		} else {
			lastClean[key] = f[0]
		}
	}
	if degraded == 0 {
		t.Error("leader outage produced no degraded gap-fill rows")
	}
	// Every output — including the killed leader's range — must have
	// recovered: its newest row is clean and lands on the final tick.
	for _, n := range names {
		key := n + "/sadc/" + n
		ts, ok := lastClean[key]
		if !ok {
			t.Fatalf("no clean row for %s after recovery", key)
		}
		if ts != maxTime {
			t.Errorf("%s: last clean row at %s, want the final tick %s", key, ts, maxTime)
		}
	}
}
