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

// wireCase selects the transport knobs for one equivalence run.
type wireCase struct {
	wire      string // "" = leave the parameter out (json default)
	subscribe bool
	fanout    int // 0 = leave the parameter out (min(16, nodes))
	// jsonOnly marks node indices whose daemon speaks only the JSON
	// methods (a pre-columnar deployment); columnar clients must fall back
	// transparently.
	jsonOnly map[int]bool
}

func (wc wireCase) params() string {
	var b strings.Builder
	if wc.wire != "" {
		fmt.Fprintf(&b, "wire = %s\n", wc.wire)
	}
	if wc.subscribe {
		b.WriteString("subscribe = true\n")
	}
	if wc.fanout != 0 {
		fmt.Fprintf(&b, "fanout = %d\n", wc.fanout)
	}
	return b.String()
}

// runWireSadcCase runs the multi-node sadc collector over loopback daemons
// with the given wire configuration and returns the CSV sink bytes.
func runWireSadcCase(t *testing.T, slaves int, seed int64, wc wireCase) []byte {
	t.Helper()
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(slaves, seed))
	if err != nil {
		t.Fatal(err)
	}
	var names, addrs []string
	for i, n := range c.Slaves() {
		srv := rpc.NewServer(ServiceSadc)
		if wc.jsonOnly[i] {
			// A pre-columnar daemon: the full JSON method surface, no
			// stream protocol.
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
	env := NewEnv()
	env.Clock = c.Now

	csvPath := filepath.Join(t.TempDir(), "out.csv")
	var b strings.Builder
	fmt.Fprintf(&b, "[sadc]\nid = cluster\nnodes = %s\nmode = rpc\naddrs = %s\nperiod = 1\n%s\n",
		strings.Join(names, ","), strings.Join(addrs, ","), wc.params())
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

// TestColumnarWireMatchesJSONSadc asserts the columnar stream transport —
// pulled or pushed — logs CSV byte-identical to the JSON request/response path.
func TestColumnarWireMatchesJSONSadc(t *testing.T) {
	const slaves, seed = 6, 1101
	baseline := runWireSadcCase(t, slaves, seed, wireCase{wire: "json"})
	if len(baseline) == 0 {
		t.Fatal("json baseline produced no CSV output")
	}
	cases := []struct {
		name string
		wc   wireCase
	}{
		{"default-is-json", wireCase{}},
		{"columnar", wireCase{wire: "columnar"}},
		{"columnar-subscribe", wireCase{wire: "columnar", subscribe: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runWireSadcCase(t, slaves, seed, tc.wc)
			if !bytes.Equal(baseline, got) {
				t.Errorf("sink output differs from json baseline: %d bytes vs %d",
					len(got), len(baseline))
			}
		})
	}
}

// TestColumnarWireFallsBackPerNode runs a mixed fleet — half the daemons
// pre-columnar — under wire = columnar: the capable nodes stream, the rest
// fall back to the JSON path per node, and the merged output is still
// byte-identical to the all-JSON run. runSim fails the test on any engine
// error, so the fallback is also shown to be transparent.
func TestColumnarWireFallsBackPerNode(t *testing.T) {
	const slaves, seed = 6, 1102
	baseline := runWireSadcCase(t, slaves, seed, wireCase{wire: "json"})
	if len(baseline) == 0 {
		t.Fatal("json baseline produced no CSV output")
	}
	mixed := map[int]bool{1: true, 3: true, 5: true}
	for _, tc := range []struct {
		name string
		wc   wireCase
	}{
		{"pull", wireCase{wire: "columnar", jsonOnly: mixed}},
		{"subscribe", wireCase{wire: "columnar", subscribe: true, jsonOnly: mixed}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runWireSadcCase(t, slaves, seed, tc.wc)
			if !bytes.Equal(baseline, got) {
				t.Errorf("mixed-fleet output differs from json baseline: %d bytes vs %d",
					len(got), len(baseline))
			}
		})
	}
}

// runWireSingleNodeCase runs the single-node sadc form with iface and pid
// extras over one loopback daemon — the richest stream schema, including a
// permanently absent group (the simulated node has no "lo" interface).
func runWireSingleNodeCase(t *testing.T, seed int64, wire string, subscribe bool) []byte {
	t.Helper()
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(2, seed))
	if err != nil {
		t.Fatal(err)
	}
	n := c.Slaves()[0]
	srv := rpc.NewServer(ServiceSadc)
	RegisterSadcServer(srv, n)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	env := NewEnv()
	env.Clock = c.Now

	extra := fmt.Sprintf("wire = %s\n", wire)
	if subscribe {
		extra += "subscribe = true\n"
	}
	csvPath := filepath.Join(t.TempDir(), "out.csv")
	cfgText := fmt.Sprintf(`
[sadc]
id = s0
node = %s
mode = rpc
addr = %s
period = 1
ifaces = eth0, lo
pids = 3001,3002
%s
[csv]
id = log
path = %s
input[m0] = s0.output0
input[m1] = s0.net_eth0
input[m2] = s0.proc_3001
input[m3] = s0.proc_3002
`, n.Name, addr.String(), extra, csvPath)
	e := mustEngine(t, env, cfgText)
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

// TestColumnarWireMatchesJSONSingleNode covers the iface/pid metric groups:
// per-group presence (including an interface the node never has) must
// round-trip to the same published vectors as the JSON full-record path.
func TestColumnarWireMatchesJSONSingleNode(t *testing.T) {
	baseline := runWireSingleNodeCase(t, 1103, "json", false)
	if len(baseline) == 0 {
		t.Fatal("json baseline produced no CSV output")
	}
	for _, tc := range []struct {
		name      string
		subscribe bool
	}{
		{"pull", false},
		{"subscribe", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runWireSingleNodeCase(t, 1103, "columnar", tc.subscribe)
			if !bytes.Equal(baseline, got) {
				t.Errorf("sink output differs from json baseline: %d bytes vs %d",
					len(got), len(baseline))
			}
		})
	}
}

// runWireLogCase runs the synchronizing hadoop_log collector over loopback
// daemons with the given wire configuration and returns the CSV sink bytes.
func runWireLogCase(t *testing.T, slaves int, seed int64, wc wireCase) []byte {
	t.Helper()
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(slaves, seed))
	if err != nil {
		t.Fatal(err)
	}
	var names, addrs []string
	for i, n := range c.Slaves() {
		srv := rpc.NewServer(ServiceHadoopLog)
		if wc.jsonOnly[i] {
			// A pre-columnar log daemon: JSON vectors only.
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
	env := NewEnv()
	env.Clock = c.Now

	csvPath := filepath.Join(t.TempDir(), "out.csv")
	var b strings.Builder
	fmt.Fprintf(&b, "[hadoop_log]\nid = hl\nkind = tasktracker\nnodes = %s\nmode = rpc\naddrs = %s\nperiod = 1\n%s\n",
		strings.Join(names, ","), strings.Join(addrs, ","), wc.params())
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

// TestColumnarWireMatchesJSONHadoopLog covers the white-box path: the
// columnar vector stream (variable rows per tick, zero on quiet ticks) must
// feed the timestamp synchronizer to byte-identical output, including with
// a mixed fleet falling back per node.
func TestColumnarWireMatchesJSONHadoopLog(t *testing.T) {
	const slaves, seed = 4, 1104
	baseline := runWireLogCase(t, slaves, seed, wireCase{wire: "json"})
	if len(baseline) == 0 {
		t.Fatal("json baseline produced no CSV output")
	}
	for _, tc := range []struct {
		name string
		wc   wireCase
	}{
		{"columnar", wireCase{wire: "columnar"}},
		{"columnar-subscribe", wireCase{wire: "columnar", subscribe: true}},
		{"fallback-mixed-fleet", wireCase{wire: "columnar", jsonOnly: map[int]bool{0: true, 2: true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runWireLogCase(t, slaves, seed, tc.wc)
			if !bytes.Equal(baseline, got) {
				t.Errorf("sink output differs from json baseline: %d bytes vs %d",
					len(got), len(baseline))
			}
		})
	}
}

// TestWireParamValidation pins the configuration contract for the new
// knobs.
func TestWireParamValidation(t *testing.T) {
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	env := simEnv(c)
	node := c.Slaves()[0].Name
	for _, tc := range []struct {
		name, cfg, wantErr string
	}{
		{
			"columnar-needs-rpc",
			"[sadc]\nid = s\nnode = " + node + "\nwire = columnar\n",
			"wire = columnar requires mode = rpc",
		},
		{
			"unknown-wire",
			"[sadc]\nid = s\nnode = " + node + "\nwire = protobuf\n",
			"unknown wire",
		},
		{
			"subscribe-needs-columnar",
			"[sadc]\nid = s\nnode = " + node + "\nmode = rpc\naddr = 127.0.0.1:1\nsubscribe = true\n",
			"subscribe = true requires wire = columnar",
		},
		{
			"push-period-needs-subscribe",
			"[sadc]\nid = s\nnode = " + node + "\nmode = rpc\naddr = 127.0.0.1:1\nwire = columnar\npush_period = 5\n",
			"require subscribe = true",
		},
		{
			"hadoop-log-subscribe-needs-columnar",
			"[hadoop_log]\nid = h\nkind = tasktracker\nnodes = " + node + "\nmode = rpc\naddrs = 127.0.0.1:1\nsubscribe = true\n",
			"subscribe = true requires wire = columnar",
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

	// The environment default applies only where it can: a local-mode
	// instance under -wire columnar still initializes (and collects
	// locally), rather than failing on a knob that does not apply to it.
	env.DefaultWire = "columnar"
	defer func() { env.DefaultWire = "" }()
	e := mustEngine(t, env, "[sadc]\nid = s\nnode = "+node+"\nperiod = 1\n")
	runSim(t, c, e, 3)
}
