package modules

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/asdf-project/asdf/internal/analysis"
	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/hadoopsim"
	"github.com/asdf-project/asdf/internal/sadc"
)

// simEnv builds an Env over a simulated cluster.
func simEnv(c *hadoopsim.Cluster) *Env {
	env := NewEnv()
	for _, n := range c.Slaves() {
		env.Procfs[n.Name] = n
		env.TTLogs[n.Name] = n.TaskTrackerLog()
		env.DNLogs[n.Name] = n.DataNodeLog()
	}
	env.Clock = c.Now
	return env
}

func mustEngine(t *testing.T, env *Env, cfgText string) *core.Engine {
	t.Helper()
	cfg, err := config.ParseString(cfgText)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(NewRegistry(env), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runSim ticks cluster and engine in lockstep.
func runSim(t *testing.T, c *hadoopsim.Cluster, e *core.Engine, seconds int) {
	t.Helper()
	for i := 0; i < seconds; i++ {
		c.Tick()
		if err := e.Tick(c.Now()); err != nil {
			t.Fatal(err)
		}
	}
}

// inlineKNNModel returns inline sigma/centroids parameters for a knn
// instance over full sadc node-metric vectors, avoiding a slow training
// run. Two synthetic workload states are enough to exercise the pipeline.
func inlineKNNModel() (sigma, centroids string) {
	dim := len(sadc.NodeMetricNames)
	ones := make([]string, dim)
	lo := make([]string, dim)
	hi := make([]string, dim)
	for i := 0; i < dim; i++ {
		ones[i] = "1"
		lo[i] = "0"
		hi[i] = "2"
	}
	return strings.Join(ones, ","), strings.Join(lo, ",") + ";" + strings.Join(hi, ",")
}

// trainModelFromSim runs a fault-free cluster and trains a validated
// black-box model from all slaves' sadc vectors.
func trainModelFromSim(t *testing.T, slaves int, seconds int, k int) *analysis.Model {
	t.Helper()
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(slaves, 1000))
	if err != nil {
		t.Fatal(err)
	}
	collectors := make([]*sadc.Collector, slaves)
	for i, n := range c.Slaves() {
		collectors[i] = sadc.NewCollector(n)
		if _, err := collectors[i].Collect(); err != nil {
			t.Fatal(err)
		}
	}
	var series [][][]float64
	for s := 0; s < seconds; s++ {
		c.Tick()
		row := make([][]float64, slaves)
		for i := range collectors {
			rec, err := collectors[i].Collect()
			if err != nil {
				t.Fatal(err)
			}
			row[i] = rec.Node
		}
		series = append(series, row)
	}
	indexes, err := sadc.NodeMetricIndexes(sadc.AnalysisMetricNames)
	if err != nil {
		t.Fatal(err)
	}
	model, err := analysis.TrainValidatedModel(series, analysis.TrainOptions{
		K: k, Seed: 7, MetricIndexes: indexes, Perturb: sadc.CPUHogPerturbation(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func TestSadcModuleLocal(t *testing.T) {
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	env := simEnv(c)
	e := mustEngine(t, env, `
[sadc]
id = s0
node = slave01
period = 1

[csv]
id = log
path = `+filepath.Join(t.TempDir(), "out.csv")+`
input[a] = s0.output0
`)
	runSim(t, c, e, 5)
	out := e.OutputPortsOf("s0")[0]
	// First collection is warmup; 4 samples follow.
	if got := out.Published(); got != 4 {
		t.Errorf("published = %d, want 4", got)
	}
	s, ok := out.Last()
	if !ok || len(s.Values) != len(sadc.NodeMetricNames) {
		t.Errorf("last sample has %d values", len(s.Values))
	}
}

func TestSadcModuleConfigErrors(t *testing.T) {
	env := NewEnv()
	for _, cfgText := range []string{
		"[sadc]\nid=s\nperiod=1\n",                        // missing node
		"[sadc]\nid=s\nnode=ghost\n",                      // unknown provider
		"[sadc]\nid=s\nnode=x\nmode=bogus\n",              // bad mode
		"[sadc]\nid=s\nnode=x\nmode=rpc\n",                // rpc without addr
		"[hadoop_log]\nid=h\nnodes=a\n",                   // missing kind
		"[hadoop_log]\nid=h\nkind=tasktracker\n",          // missing nodes
		"[hadoop_log]\nid=h\nkind=bogus\nnodes=a\n",       // bad kind
		"[hadoop_log]\nid=h\nkind=tasktracker\nnodes=a\n", // unregistered node
	} {
		cfg, err := config.ParseString(cfgText)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.NewEngine(NewRegistry(env), cfg); err == nil {
			t.Errorf("config %q should fail engine construction", cfgText)
		}
	}
}

func TestHadoopLogModuleSynchronization(t *testing.T) {
	env := NewEnv()
	bufA := hadooplog.NewBuffer(0)
	bufB := hadooplog.NewBuffer(0)
	env.TTLogs["a"] = bufA
	env.TTLogs["b"] = bufB
	wA := hadooplog.NewWriter(hadooplog.KindTaskTracker, bufA)
	wB := hadooplog.NewWriter(hadooplog.KindTaskTracker, bufB)

	e := mustEngine(t, env, `
[hadoop_log]
id = hl
kind = tasktracker
nodes = a,b
period = 1

[print]
id = p
input[x] = @hl
only_nonzero = false
`)
	base := time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)
	// Node a logs from t=0; node b only from t=3. Timestamps 0..2 must be
	// dropped, not published.
	if err := wA.LaunchTask(base, hadooplog.TaskID(1, true, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := wB.LaunchTask(base.Add(3*time.Second), hadooplog.TaskID(1, true, 1, 0)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := e.Tick(base.Add(time.Duration(i) * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	outs := e.OutputPortsOf("hl")
	if len(outs) != 2 {
		t.Fatalf("hl outputs = %d", len(outs))
	}
	pubA, pubB := outs[0].Published(), outs[1].Published()
	if pubA != pubB {
		t.Errorf("unsynchronized publishes: a=%d b=%d", pubA, pubB)
	}
	if pubA == 0 {
		t.Fatal("nothing published")
	}
	// The first published sample must be at t=3 (first common second).
	mod, _ := e.ModuleOf("hl")
	hl := mod.(*hadoopLogModule)
	if hl.DroppedTimestamps() != 3 {
		t.Errorf("dropped = %d, want 3 (seconds 0..2)", hl.DroppedTimestamps())
	}
	if s, ok := outs[0].Last(); ok && s.Time.Before(base.Add(3*time.Second)) {
		t.Errorf("published pre-sync timestamp %v", s.Time)
	}
}

func TestMavgvecModule(t *testing.T) {
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	env := simEnv(c)
	e := mustEngine(t, env, `
[sadc]
id = s0
node = slave01
period = 1

[mavgvec]
id = mv
window = 3
slide = 3
input[in] = s0.output0

[print]
id = p
input[x] = @mv
only_nonzero = false
`)
	runSim(t, c, e, 10) // 9 samples post-warmup -> windows at 3,6,9
	mod, _ := e.ModuleOf("mv")
	_ = mod
	outs := e.OutputPortsOf("mv")
	if len(outs) != 2 {
		t.Fatalf("mavgvec outputs = %d, want 2 (mean, variance)", len(outs))
	}
	if got := outs[0].Published(); got != 3 {
		t.Errorf("mean published = %d, want 3", got)
	}
	mean, _ := outs[0].Last()
	variance, _ := outs[1].Last()
	if len(mean.Values) != len(sadc.NodeMetricNames) || len(variance.Values) != len(mean.Values) {
		t.Errorf("output dimensions wrong: %d / %d", len(mean.Values), len(variance.Values))
	}
	for _, v := range variance.Values {
		if v < 0 {
			t.Error("negative variance")
		}
	}
}

func TestKnnModuleInlineCentroids(t *testing.T) {
	env := NewEnv()
	bufA := hadooplog.NewBuffer(0)
	env.TTLogs["a"] = bufA
	// Build a tiny synthetic pipeline: hadoop_log provides vectors of 5
	// state counts; knn classifies them against 2 inline centroids.
	e := mustEngine(t, env, `
[hadoop_log]
id = hl
kind = tasktracker
nodes = a
period = 1

[knn]
id = nn
sigma = 1,1,1,1,1,1,1,1
centroids = 0,0,0,0,0,0,0,0; 3.4,0,0,0,0,0,0,0
input[in] = hl.a

[print]
id = p
input[x] = nn.output0
only_nonzero = false
`)
	w := hadooplog.NewWriter(hadooplog.KindTaskTracker, bufA)
	base := time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)
	// Many concurrent maps -> vector far from the origin centroid.
	for i := 0; i < 30; i++ {
		if err := w.LaunchTask(base, hadooplog.TaskID(1, true, i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3; i++ {
		if err := e.Tick(base.Add(time.Duration(i) * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	out := e.OutputPortsOf("nn")[0]
	s, ok := out.Last()
	if !ok {
		t.Fatal("knn produced nothing")
	}
	if s.Scalar() != 1 {
		t.Errorf("state = %v, want 1 (the busy centroid)", s.Scalar())
	}
}

func TestKnnModuleModelFile(t *testing.T) {
	dir := t.TempDir()
	model := &analysis.Model{
		Sigma:     []float64{1, 1},
		Centroids: [][]float64{{0, 0}, {3, 3}},
	}
	path := filepath.Join(dir, "model.json")
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := analysis.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumStates() != 2 {
		t.Errorf("NumStates = %d", loaded.NumStates())
	}
}

func TestIbufferModuleForwardsAndBounds(t *testing.T) {
	env := NewEnv()
	bufA := hadooplog.NewBuffer(0)
	env.TTLogs["a"] = bufA
	e := mustEngine(t, env, `
[hadoop_log]
id = hl
kind = tasktracker
nodes = a
period = 1

[ibuffer]
id = buf
size = 10
input[input] = hl.a

[print]
id = p
input[x] = buf.output0
only_nonzero = false
`)
	w := hadooplog.NewWriter(hadooplog.KindTaskTracker, bufA)
	base := time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)
	if err := w.LaunchTask(base, hadooplog.TaskID(1, true, 0, 0)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if err := e.Tick(base.Add(time.Duration(i) * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	in := e.OutputPortsOf("hl")[0].Published()
	out := e.OutputPortsOf("buf")[0].Published()
	if in == 0 || out != in {
		t.Errorf("ibuffer forwarded %d of %d samples", out, in)
	}
}

func TestPrintModuleFiltersZeroes(t *testing.T) {
	var sink bytes.Buffer
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	env := simEnv(c)
	env.AlarmWriter = &sink
	e := mustEngine(t, env, `
[sadc]
id = s0
node = slave01
period = 1

[print]
id = alarms
label = TestAlarm
input[a] = s0.output0
only_nonzero = false
`)
	runSim(t, c, e, 3)
	if !strings.Contains(sink.String(), "[TestAlarm]") {
		t.Errorf("print output missing label: %q", sink.String())
	}
	if !strings.Contains(sink.String(), "node=slave01") {
		t.Errorf("print output missing origin: %q", sink.String())
	}
}

func TestCsvModuleWritesRows(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	env := simEnv(c)
	e := mustEngine(t, env, fmt.Sprintf(`
[sadc]
id = s0
node = slave02
period = 1

[csv]
id = sink
path = %s
input[a] = s0.output0
`, path))
	runSim(t, c, e, 5)
	if err := e.Flush(c.Now()); err != nil {
		t.Fatal(err)
	}
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(data), "\n")
	if len(lines) != 5 { // header + 4 post-warmup samples
		t.Fatalf("csv has %d lines, want 5: %q", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "time,node,source") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "slave02") {
		t.Errorf("row = %q", lines[1])
	}
}

func readFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	return string(data), err
}

func TestSadcModuleExtraOutputs(t *testing.T) {
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	env := simEnv(c)
	e := mustEngine(t, env, `
[sadc]
id = s0
node = slave01
period = 1
ifaces = eth0, lo
pids = 3001,3002

[print]
id = p
only_nonzero = false
input[a] = s0.net_eth0
input[b] = s0.proc_3001
input[c] = s0.proc_3002
`)
	runSim(t, c, e, 5)
	outs := e.OutputPortsOf("s0")
	// output0 + 2 ifaces + 2 pids.
	if len(outs) != 5 {
		t.Fatalf("sadc created %d outputs, want 5", len(outs))
	}
	byName := make(map[string]*core.OutputPort)
	for _, o := range outs {
		byName[o.Name()] = o
	}
	// The simulated node has eth0 but no lo: eth0 publishes, lo stays
	// silent rather than erroring.
	if byName["net_eth0"].Published() == 0 {
		t.Error("net_eth0 never published")
	}
	if byName["net_lo"].Published() != 0 {
		t.Error("net_lo should have no data on the simulated node")
	}
	s, ok := byName["net_eth0"].Last()
	if !ok || len(s.Values) != len(sadc.NetMetricNames) {
		t.Errorf("net_eth0 vector has %d values, want %d", len(s.Values), len(sadc.NetMetricNames))
	}
	for _, name := range []string{"proc_3001", "proc_3002"} {
		if byName[name].Published() == 0 {
			t.Errorf("%s never published", name)
		}
		s, _ := byName[name].Last()
		if len(s.Values) != len(sadc.ProcMetricNames) {
			t.Errorf("%s vector has %d values, want %d", name, len(s.Values), len(sadc.ProcMetricNames))
		}
	}
}

func TestSadcModuleBadPid(t *testing.T) {
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(1, 5))
	if err != nil {
		t.Fatal(err)
	}
	env := simEnv(c)
	cfg, err := config.ParseString("[sadc]\nid=s\nnode=slave01\npids=abc\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewEngine(NewRegistry(env), cfg); err == nil {
		t.Error("non-numeric pid should fail init")
	}
}
