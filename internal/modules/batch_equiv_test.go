package modules

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/asdf-project/asdf/internal/hadoopsim"
	"github.com/asdf-project/asdf/internal/rpc"
)

// The batched analysis plane's acceptance contract: a multi-node knn or
// mavgvec instance (nodes = N) must produce byte-identical sink output to N
// per-node instances over the same collected data — same values, same
// order, same downstream alarms — however the fleet is collected (per-node
// local, one multi-node local instance, columnar RPC). This layer runs the
// pool's default block, ragged at 70 nodes; other worker and block splits
// of the kernels are covered below it, by the analysis package's
// worker × block table and batch_smooth_test.go.

// batchCollector selects how the fleet is collected for an equivalence
// case: per-node local sadc instances (the zero value), one multi-node
// local instance, or a columnar-wire RPC fleet with loopback daemons.
type batchCollector struct {
	multi bool
	wire  string // "" = local collection; "columnar" = RPC daemons
}

// knnStage renders the classification stage and its sinks over the given
// per-node source ports: N per-node knn instances, or one batched instance
// with nodes = N. Both forms print every
// classified state sample (the strictest byte-level view) and fan into the
// same analysis_bb + alarm sink.
func knnStage(batched bool) func(names, src []string) string {
	return func(names, src []string) string {
		sigma, centroids := inlineKNNModel()
		var b strings.Builder
		states := make([]string, len(names))
		if batched {
			fmt.Fprintf(&b, "[knn]\nid = nn\nsigma = %s\ncentroids = %s\nnodes = %d\n",
				sigma, centroids, len(names))
			for i, s := range src {
				fmt.Fprintf(&b, "input[in%d] = %s\n", i, s)
			}
			b.WriteString("\n")
			for i := range names {
				states[i] = fmt.Sprintf("nn.output%d", i)
			}
		} else {
			for i, s := range src {
				fmt.Fprintf(&b, "[knn]\nid = onenn%d\nsigma = %s\ncentroids = %s\ninput[in] = %s\n\n",
					i, sigma, centroids, s)
				states[i] = fmt.Sprintf("onenn%d.output0", i)
			}
		}
		b.WriteString("[print]\nid = states\nlabel = ST\nonly_nonzero = false\n")
		for i, s := range states {
			fmt.Fprintf(&b, "input[s%d] = %s\n", i, s)
		}
		b.WriteString("\n[analysis_bb]\nid = bb\nthreshold = 0.5\nwindow = 20\nslide = 5\nstates = 2\n")
		for i, s := range states {
			fmt.Fprintf(&b, "input[l%d] = %s\n", i, s)
		}
		b.WriteString("\n[print]\nid = BlackBoxAlarm\nlabel = BB\nonly_nonzero = false\ninput[a] = @bb\n")
		return b.String()
	}
}

// mavgvecStage renders the smoothing stage and its sinks: N per-node
// mavgvec instances, or one batched instance. Every mean and variance
// stream is printed, and the means fan into analysis_wb + alarm sink to
// cover the downstream path.
func mavgvecStage(batched bool) func(names, src []string) string {
	return func(names, src []string) string {
		var b strings.Builder
		means := make([]string, len(names))
		vars_ := make([]string, len(names))
		if batched {
			fmt.Fprintf(&b, "[mavgvec]\nid = smooth\nwindow = 10\nslide = 3\nnodes = %d\n", len(names))
			for i, s := range src {
				fmt.Fprintf(&b, "input[in%d] = %s\n", i, s)
			}
			b.WriteString("\n")
			for i := range names {
				means[i] = fmt.Sprintf("smooth.mean%d", i)
				vars_[i] = fmt.Sprintf("smooth.var%d", i)
			}
		} else {
			for i, s := range src {
				fmt.Fprintf(&b, "[mavgvec]\nid = smooth%d\nwindow = 10\nslide = 3\ninput[in] = %s\n\n", i, s)
				means[i] = fmt.Sprintf("smooth%d.output0", i)
				vars_[i] = fmt.Sprintf("smooth%d.output1", i)
			}
		}
		b.WriteString("[print]\nid = smoothed\nlabel = SM\nonly_nonzero = false\n")
		for i := range names {
			fmt.Fprintf(&b, "input[m%d] = %s\ninput[v%d] = %s\n", i, means[i], i, vars_[i])
		}
		b.WriteString("\n[analysis_wb]\nid = wb\nk = 2\nwindow = 20\nslide = 5\n")
		for i, s := range means {
			fmt.Fprintf(&b, "input[s%d] = %s\n", i, s)
		}
		b.WriteString("\n[print]\nid = SmoothAlarm\nlabel = WB\nonly_nonzero = false\ninput[a] = @wb\n")
		return b.String()
	}
}

// runBatchEquivCase drives one collection + analysis configuration over an
// identically seeded simulated cluster (CPU hog injected mid-run) and
// returns every alarm-sink byte it produced.
func runBatchEquivCase(t *testing.T, slaves int, seed int64, col batchCollector, stage func(names, src []string) string) []byte {
	t.Helper()
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(slaves, seed))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, slaves)
	for i, n := range c.Slaves() {
		names[i] = n.Name
	}

	var env *Env
	var b strings.Builder
	src := make([]string, slaves)
	switch {
	case col.wire != "":
		// A columnar RPC fleet: one loopback daemon per node.
		env = NewEnv()
		env.Clock = c.Now
		var addrs []string
		for _, n := range c.Slaves() {
			srv := rpc.NewServer(ServiceSadc)
			RegisterSadcServer(srv, n)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			addrs = append(addrs, addr.String())
		}
		fmt.Fprintf(&b, "[sadc]\nid = cluster\nnodes = %s\nmode = rpc\naddrs = %s\nperiod = 1\nwire = %s\n\n",
			strings.Join(names, ","), strings.Join(addrs, ","), col.wire)
		for i, n := range names {
			src[i] = "cluster." + n
		}
	case col.multi:
		env = simEnv(c)
		fmt.Fprintf(&b, "[sadc]\nid = cluster\nnodes = %s\nperiod = 1\n\n", strings.Join(names, ","))
		for i, n := range names {
			src[i] = "cluster." + n
		}
	default:
		env = simEnv(c)
		for i, n := range names {
			fmt.Fprintf(&b, "[sadc]\nid = sadc%d\nnode = %s\nperiod = 1\n\n", i, n)
			src[i] = fmt.Sprintf("sadc%d.output0", i)
		}
	}
	var alarms bytes.Buffer
	env.AlarmWriter = &alarms

	b.WriteString(stage(names, src))
	e := mustEngine(t, env, b.String())
	runSim(t, c, e, 60)
	if err := c.InjectFault(1, hadoopsim.FaultCPUHog); err != nil {
		t.Fatal(err)
	}
	runSim(t, c, e, 60)
	if err := e.Flush(c.Now()); err != nil {
		t.Fatal(err)
	}
	return alarms.Bytes()
}

// TestBatchedAnalysisMatchesPerNode asserts the multi-node knn and mavgvec
// forms produce byte-identical sink output to per-node instance fans across
// the collection matrix, including a fleet wider than the pool's default
// 64-row block (two blocks on two workers, the second one ragged).
func TestBatchedAnalysisMatchesPerNode(t *testing.T) {
	cases := []struct {
		name   string
		stage  func(batched bool) func(names, src []string) string
		slaves int
		seed   int64
		col    batchCollector
	}{
		{"knn-local", knnStage, 5, 1501, batchCollector{}},
		// 70 nodes = one full 64-row block + a 6-row tail block.
		{"knn-local-ragged-default-block", knnStage, 70, 1502, batchCollector{}},
		{"knn-multi-node-collection", knnStage, 6, 1503, batchCollector{multi: true}},
		{"knn-columnar-fleet", knnStage, 4, 1504, batchCollector{wire: "columnar"}},
		{"mavgvec-local", mavgvecStage, 5, 1505, batchCollector{}},
		{"mavgvec-local-ragged-default-block", mavgvecStage, 70, 1508, batchCollector{}},
		{"mavgvec-multi-node-collection", mavgvecStage, 6, 1506, batchCollector{multi: true}},
		{"mavgvec-columnar-fleet", mavgvecStage, 4, 1507, batchCollector{wire: "columnar"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			perNode := runBatchEquivCase(t, tc.slaves, tc.seed, tc.col, tc.stage(false))
			if len(perNode) == 0 {
				t.Fatal("per-node run produced no sink output; the comparison would be vacuous")
			}
			batched := runBatchEquivCase(t, tc.slaves, tc.seed, tc.col, tc.stage(true))
			if !bytes.Equal(perNode, batched) {
				t.Errorf("batched sink output differs from per-node\nper-node: %d bytes\nbatched:  %d bytes\nper-node head: %s\nbatched head:  %s",
					len(perNode), len(batched),
					firstLines(string(perNode), 3), firstLines(string(batched), 3))
			}
		})
	}
}
