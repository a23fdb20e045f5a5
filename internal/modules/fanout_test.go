package modules

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/hadoopsim"
	"github.com/asdf-project/asdf/internal/rpc"
)

// fanoutArms are the pool widths the equivalence tests compare: the serial
// loop, the default min(16, nodes), and one worker per node.
func fanoutArms(nodes int) []int { return []int{1, 0, nodes} }

// fanoutBlackboxConfig routes one multi-node sadc instance (the collector
// under test) into the blackbox analysis pipeline.
func fanoutBlackboxConfig(nodes []string, fanout int) string {
	sigma, centroids := inlineKNNModel()
	var b strings.Builder
	fmt.Fprintf(&b, "[sadc]\nid = cluster\nnodes = %s\nperiod = 1\nfanout = %d\n\n",
		strings.Join(nodes, ","), fanout)
	for i, n := range nodes {
		fmt.Fprintf(&b, "[knn]\nid = onenn%d\nsigma = %s\ncentroids = %s\ninput[in] = cluster.%s\n\n",
			i, sigma, centroids, n)
		fmt.Fprintf(&b, "[ibuffer]\nid = buf%d\nsize = 10\ninput[input] = onenn%d.output0\n\n", i, i)
	}
	b.WriteString("[analysis_bb]\nid = bb\nthreshold = 0.5\nwindow = 20\nslide = 5\nstates = 2\n")
	for i := range nodes {
		fmt.Fprintf(&b, "input[l%d] = @buf%d\n", i, i)
	}
	b.WriteString("\n[print]\nid = BlackBoxAlarm\nlabel = BB\nonly_nonzero = false\ninput[a] = @bb\n")
	return b.String()
}

// fanoutWhiteboxConfig runs the strictly synchronizing hadoop_log collector,
// whose sync state is the most sensitive to the order fetches are merged in.
func fanoutWhiteboxConfig(nodes []string, fanout int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[hadoop_log]\nid = hl_tt\nkind = tasktracker\nnodes = %s\nperiod = 1\nfanout = %d\n\n",
		strings.Join(nodes, ","), fanout)
	fmt.Fprintf(&b, "[analysis_wb]\nid = wb\nk = 2\nwindow = 20\nslide = 5\n")
	for i := range nodes {
		fmt.Fprintf(&b, "input[s%d] = hl_tt.%s\n", i, nodes[i])
	}
	b.WriteString("\n[print]\nid = TaskTrackerAlarm\nlabel = WB\nonly_nonzero = false\ninput[a] = @wb\n")
	return b.String()
}

// fanoutCSVConfig logs every node's raw sadc vector to CSV — the strictest
// byte-level view of the merged collection output.
func fanoutCSVConfig(nodes []string, fanout int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[sadc]\nid = cluster\nnodes = %s\nperiod = 1\nfanout = %d\n\n",
		strings.Join(nodes, ","), fanout)
	b.WriteString("[csv]\nid = log\npath = %CSVPATH%\n")
	for i, n := range nodes {
		fmt.Fprintf(&b, "input[m%d] = cluster.%s\n", i, n)
	}
	return b.String()
}

// runFanoutCase drives one configuration over an identically seeded
// simulated cluster (fault injected mid-run, as in the batched-analysis
// equivalence tests) and returns every sink byte it produced.
func runFanoutCase(t *testing.T, build func([]string, int) string, slaves int, seed int64, fanout int) []byte {
	t.Helper()
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(slaves, seed))
	if err != nil {
		t.Fatal(err)
	}
	env := simEnv(c)
	var alarms bytes.Buffer
	env.AlarmWriter = &alarms

	names := make([]string, slaves)
	for i, n := range c.Slaves() {
		names[i] = n.Name
	}
	cfgText := build(names, fanout)
	csvPath := ""
	if strings.Contains(cfgText, "%CSVPATH%") {
		csvPath = filepath.Join(t.TempDir(), "out.csv")
		cfgText = strings.ReplaceAll(cfgText, "%CSVPATH%", csvPath)
	}
	e := mustEngine(t, env, cfgText)
	runSim(t, c, e, 45)
	if err := c.InjectFault(1, hadoopsim.FaultCPUHog); err != nil {
		t.Fatal(err)
	}
	runSim(t, c, e, 45)
	if err := e.Flush(c.Now()); err != nil {
		t.Fatal(err)
	}

	out := alarms.Bytes()
	if csvPath != "" {
		data, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data...)
	}
	return out
}

// TestFanoutMatchesSerialSinkOutput asserts a concurrent collection sweep
// produces byte-identical sink output to the serial loop on the example
// pipeline shapes: the pool moves concurrency, not semantics, because results
// are merged in node-index order.
func TestFanoutMatchesSerialSinkOutput(t *testing.T) {
	cases := []struct {
		name   string
		build  func([]string, int) string
		slaves int
		seed   int64
	}{
		{"blackbox", fanoutBlackboxConfig, 8, 611},
		{"whitebox-sync", fanoutWhiteboxConfig, 8, 622},
		{"raw-csv", fanoutCSVConfig, 6, 633},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := runFanoutCase(t, tc.build, tc.slaves, tc.seed, 1)
			if len(serial) == 0 {
				t.Fatal("serial run produced no sink output; the comparison would be vacuous")
			}
			for _, fanout := range fanoutArms(tc.slaves)[1:] {
				got := runFanoutCase(t, tc.build, tc.slaves, tc.seed, fanout)
				if !bytes.Equal(serial, got) {
					t.Errorf("fanout=%d sink output differs from serial\nserial: %d bytes\ngot:    %d bytes",
						fanout, len(serial), len(got))
				}
			}
		})
	}
}

// TestFanoutRPCMatchesSerial covers the remote collection path: a concurrent
// sweep over real loopback daemons (one sadc rpcd per node) must log
// byte-identical CSV to the serial sweep.
func TestFanoutRPCMatchesSerial(t *testing.T) {
	const slaves, seed = 6, 707
	serial := runWireSadcCase(t, slaves, seed, wireCase{fanout: 1})
	if len(serial) == 0 {
		t.Fatal("serial rpc run produced no CSV output")
	}
	for _, fanout := range fanoutArms(slaves)[1:] {
		if got := runWireSadcCase(t, slaves, seed, wireCase{fanout: fanout}); !bytes.Equal(serial, got) {
			t.Errorf("fanout=%d output differs from serial: %d bytes vs %d", fanout, len(got), len(serial))
		}
	}
}

// deadRangeCounts is what the sync stage and the status surface report after
// a contiguous range of daemons died mid-run.
type deadRangeCounts struct {
	partial, dropped uint64
	missing          map[string]uint64
	openBreakers     int
}

// runDeadRangeCase kills the daemons of nodes[4:6] after ten ticks of a
// six-node degraded-sync hadoop_log instance and reports its accounting.
func runDeadRangeCase(t *testing.T, fanout int) (deadRangeCounts, []string) {
	t.Helper()
	const slaves = 6
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(slaves, 818))
	if err != nil {
		t.Fatal(err)
	}
	var servers []*rpc.Server
	var names, addrs []string
	for _, n := range c.Slaves() {
		srv := rpc.NewServer(ServiceHadoopLog)
		RegisterHadoopLogServer(srv, n.TaskTrackerLog(), n.DataNodeLog(), c.Now)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		servers = append(servers, srv)
		names = append(names, n.Name)
		addrs = append(addrs, addr.String())
	}

	env := NewEnv()
	env.Clock = c.Now
	cfgText := fmt.Sprintf(`
[hadoop_log]
id = hl
kind = tasktracker
mode = rpc
nodes = %s
addrs = %s
period = 1
fanout = %d
sync_deadline = 2
sync_quorum = 4
breaker_threshold = 1
breaker_cooldown = 3600

[print]
id = p
only_nonzero = false
input[x] = @hl
`, strings.Join(names, ","), strings.Join(addrs, ","), fanout)
	cfg, err := config.ParseString(cfgText)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(NewRegistry(env), cfg,
		core.WithErrorHandler(func(string, error) {}))
	if err != nil {
		t.Fatal(err)
	}
	runSim(t, c, e, 10)
	_ = servers[4].Close()
	_ = servers[5].Close()
	runSim(t, c, e, 20)

	mod, ok := e.ModuleOf("hl")
	if !ok {
		t.Fatal("module hl not found")
	}
	hl := mod.(*hadoopLogModule)
	got := deadRangeCounts{
		partial: hl.PartialTimestamps(),
		dropped: hl.DroppedTimestamps(),
		missing: hl.MissingByNode(),
	}
	for _, h := range hl.ClientHealths() {
		if h.State == rpc.BreakerOpen {
			got.openBreakers++
		}
	}
	if CollectStatus(e, c.Now()).Healthy {
		t.Errorf("fanout=%d: report healthy despite open breakers", fanout)
	}
	return got, names
}

// TestDeadRangeAccountingIndependentOfFanout kills a contiguous range of
// daemons: the rest keep collecting, degraded sync publishes partial
// timestamps at quorum and charges the missing seconds to the dead nodes
// alone — and all of it counts the same whatever the pool's width.
func TestDeadRangeAccountingIndependentOfFanout(t *testing.T) {
	serial, names := runDeadRangeCase(t, 1)
	if serial.partial == 0 {
		t.Error("no partial timestamps despite dead nodes and a sync deadline")
	}
	if serial.missing[names[4]] == 0 || serial.missing[names[5]] == 0 {
		t.Errorf("missing-by-node does not charge the dead nodes: %v", serial.missing)
	}
	if serial.missing[names[0]] != 0 {
		t.Errorf("healthy node charged with missing seconds: %v", serial.missing)
	}
	if serial.openBreakers != 2 {
		t.Errorf("%d open breakers, want the 2 dead nodes'", serial.openBreakers)
	}
	for _, fanout := range fanoutArms(len(names))[1:] {
		got, _ := runDeadRangeCase(t, fanout)
		if got.partial != serial.partial || got.dropped != serial.dropped || got.openBreakers != serial.openBreakers {
			t.Errorf("fanout=%d: partial/dropped/open = %d/%d/%d, serial has %d/%d/%d", fanout,
				got.partial, got.dropped, got.openBreakers, serial.partial, serial.dropped, serial.openBreakers)
		}
		for _, n := range names {
			if got.missing[n] != serial.missing[n] {
				t.Errorf("fanout=%d: node %s missed %d seconds, serial has %d", fanout, n, got.missing[n], serial.missing[n])
			}
		}
	}
}
