package modules

import (
	"sort"
	"strings"
	"testing"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
)

// collectorSections renders the same parameter lines into a sadc and a
// hadoop_log section, the two modules that share parseCollectParams.
func collectorSections(params string) map[string]string {
	return map[string]string{
		"sadc":       "[sadc]\nid = c\n" + params,
		"hadoop_log": "[hadoop_log]\nid = c\nkind = tasktracker\n" + params,
	}
}

// initEngine builds an engine from cfgText and returns it with the Init
// error, if any. No tick runs, so rpc-mode sections never dial.
func initEngine(t *testing.T, cfgText string) (*core.Engine, error) {
	t.Helper()
	cfg, err := config.ParseString(cfgText)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewEngine(NewRegistry(NewEnv()), cfg)
}

// analysisSections renders the same parameter lines into the per-node and
// the batched (nodes = 2) forms of knn and mavgvec, over an rpc-mode sadc
// source that never dials because no tick runs.
func analysisSections(params string) map[string]string {
	sigma, centroids := inlineKNNModel()
	src := "[sadc]\nid = s\nnodes = a,b\nmode = rpc\naddrs = 127.0.0.1:1,127.0.0.1:2\n\n"
	perNode := "input[in] = s.a\n"
	batched := "nodes = 2\ninput[in0] = s.a\ninput[in1] = s.b\n"
	knn := "[knn]\nid = x\nsigma = " + sigma + "\ncentroids = " + centroids + "\n"
	mavgvec := "[mavgvec]\nid = x\nwindow = 3\n"
	return map[string]string{
		"knn":             src + knn + perNode + params,
		"knn-batched":     src + knn + batched + params,
		"mavgvec":         src + mavgvec + perNode + params,
		"mavgvec-batched": src + mavgvec + batched + params,
	}
}

// TestRemovedParamsRejected: the config layer ignores parameters it does
// not know, so a section that still sets a removed knob must fail at Init,
// naming what replaces it, instead of running differently in silence.
func TestRemovedParamsRejected(t *testing.T) {
	rpcCollectors := func(params string) map[string]string {
		return collectorSections("nodes = a,b\nmode = rpc\naddrs = 127.0.0.1:1,127.0.0.1:2\n" + params)
	}
	for _, tc := range []struct {
		sections        func(params string) map[string]string
		param, wantHint string
	}{
		{rpcCollectors, "shards = 8", "fanout = shards × shard_fanout"},
		{rpcCollectors, "shard_fanout = 16", "fanout = shards × shard_fanout"},
		{rpcCollectors, "batch = true", "wire = columnar"},
		{rpcCollectors, "batch = false", "wire = columnar"}, // set at all, whatever the value
		{analysisSections, "fanout = 4", "min(16, nodes) workers"},
		{analysisSections, "fanout = 1", "min(16, nodes) workers"},
		{analysisSections, "block = 8", "blocks of 64"},
	} {
		name := strings.Fields(tc.param)[0]
		for module, cfgText := range tc.sections(tc.param + "\n") {
			t.Run(module+"/"+tc.param, func(t *testing.T) {
				_, err := initEngine(t, cfgText)
				if err == nil || !strings.Contains(err.Error(), `"`+name+`" was removed`) ||
					!strings.Contains(err.Error(), tc.wantHint) {
					t.Errorf("error = %v, want %q rejected with hint %q", err, name, tc.wantHint)
				}
			})
		}
	}
}

// TestCollectionListParams feeds both collection modules the same malformed
// node and address lists: they parse them one way.
func TestCollectionListParams(t *testing.T) {
	for _, tc := range []struct {
		name, params string
		wantErr      string // "" = the section initializes, with the connections in wantConns
		wantConns    string
	}{
		{"well-formed", "nodes = a,b\naddrs = 127.0.0.1:1,127.0.0.1:2\n", "", "a b"},
		{"trailing-comma", "nodes = a,b,\naddrs = 127.0.0.1:1,127.0.0.1:2,\n", "", "a b"},
		{"blank-entry", "nodes = a, ,b\naddrs = 127.0.0.1:1,,127.0.0.1:2\n", "", "a b"},
		{"only-separators", "nodes = ,\naddrs = 127.0.0.1:1\n", `"nodes" lists nothing`, ""},
		{"missing-addrs", "nodes = a,b\n", `"addrs" missing`, ""},
		{"count-mismatch", "nodes = a,b\naddrs = 127.0.0.1:1\n", "1 addrs for 2 nodes", ""},
		{"dash-for-undelegated-node", "nodes = a,b\naddrs = 127.0.0.1:1,-\n", "undelegated node b", ""},
		{"dash-for-delegated-node", "nodes = a,b\naddrs = 127.0.0.1:1,-\nleaders = 127.0.0.1:3\nleader_ranges = 1-2\n",
			"", "a leader:127.0.0.1:3"},
	} {
		for module, cfgText := range collectorSections("mode = rpc\n" + tc.params) {
			t.Run(module+"/"+tc.name, func(t *testing.T) {
				e, err := initEngine(t, cfgText)
				if tc.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Errorf("error = %v, want substring %q", err, tc.wantErr)
					}
					return
				}
				if err != nil {
					t.Fatalf("Init failed: %v", err)
				}
				mod, _ := e.ModuleOf("c")
				var conns []string
				for name := range mod.(BreakerReporter).ClientHealths() {
					conns = append(conns, name)
				}
				sort.Strings(conns)
				if got := strings.Join(conns, " "); got != tc.wantConns {
					t.Errorf("connections = %q, want %q", got, tc.wantConns)
				}
			})
		}
	}
}
