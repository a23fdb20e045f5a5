package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/asdf-project/asdf/internal/eval"
)

// workload is one set of inputs the benchmark runs. Workloads are defined
// by fpt-core configuration text and public constructors only, so that
// collapsing internals later does not invalidate them.
type workload struct {
	Name string
	Why  string
	// Nodes is the monitored fleet size.
	Nodes int
	// Replay feeds recorded vectors through a source module instead of
	// running the simulator and the collection plane.
	Replay bool
	// Wire is the daemon transport of a fleet workload: columnar or json.
	Wire string
	// Batched selects the multi-node collector and analysis forms; false is
	// the paper's Figure-4 per-node chain.
	Batched bool
	// Leaders is the number of in-process shard leaders the fleet is
	// delegated to (0 = the root sweeps the daemons itself).
	Leaders int
	// Period is the open-loop tick period; 0 is a closed loop, where the
	// next tick starts when the previous one returns.
	Period time.Duration
	// SnapshotEvery writes a state snapshot after every n-th tick (0 = no
	// state manager).
	SnapshotEvery int
}

// closed reports whether the workload is a closed loop.
func (w workload) closed() bool { return w.Period == 0 }

// warmupTicks fills the 60-sample analysis windows, dials every connection
// and negotiates every stream before the timed region; it belongs to
// setup_s. The fault is injected early in it so that the injected node is
// flagged throughout the timed region however short that is.
const (
	warmupTicks    = 70
	faultAtWarmup  = 10
	replayRecNodes = 64  // nodes of the recording run behind the replay source
	replayRecTicks = 240 // recorded seconds, tiled cyclically
)

// workloads are the benchmark's four workloads, in running order. The
// reasons are repeated in BENCHMARK.json and bench/README.md.
var workloads = []workload{
	{
		Name:    "fleet-columnar-512",
		Why:     "best current configuration: rpc, daemon collect and row conversion do most of the work, analysis little",
		Nodes:   512,
		Wire:    "columnar",
		Batched: true,
	},
	{
		Name:  "fleet-json-256",
		Why:   "the paper's Figure-4 chain in rpc mode: JSON codec and 768 per-node instance dispatches per tick instead of 3",
		Nodes: 256,
		Wire:  "json",
	},
	{
		Name:    "analysis-replay-2048",
		Why:     "no simulator and no RPC: analysis, stats, core ports and sinks do all the work, so a collection change must not move it",
		Nodes:   2048,
		Replay:  true,
		Batched: true,
	},
	{
		Name:          "hier-paced-512",
		Why:           "open loop through 4 leaders with state snapshots: the only cover of hierarchy, merge and state, and the only idle time between ticks",
		Nodes:         512,
		Wire:          "columnar",
		Batched:       true,
		Leaders:       4,
		Period:        60 * time.Millisecond,
		SnapshotEvery: 10,
	},
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pipelineSpec describes one fleet pipeline — the system under test or its
// reference — for fleetConfig to render.
type pipelineSpec struct {
	names     []string
	modelPath string
	params    eval.AnalysisParams

	// rpc selects mode = rpc against the given daemon addresses; false is
	// local collection from the Env's providers.
	rpc       bool
	wire      string
	sadcAddrs []string
	logAddrs  []string
	// batched renders one multi-node sadc and one batched knn; false
	// renders a sadc -> knn chain per node.
	batched bool
	// ibuffer puts the paper's size-10 ibuffer between each per-node knn
	// and analysis_bb.
	ibuffer bool
	// leaders delegates every node to these leader addresses, one
	// contiguous range each.
	leaders []string
	ranges  []string
}

// collectorParams renders the rpc-mode parameters shared by the sadc and
// hadoop_log multi-node instances.
func (s pipelineSpec) collectorParams(b *strings.Builder, addrs []string) {
	if !s.rpc {
		return
	}
	if len(s.leaders) > 0 {
		masked := make([]string, len(s.names))
		for i := range masked {
			masked[i] = "-"
		}
		addrs = masked
	}
	fmt.Fprintf(b, "mode = rpc\naddrs = %s\nwire = %s\n", strings.Join(addrs, ","), s.wire)
	if len(s.leaders) > 0 {
		fmt.Fprintf(b, "leaders = %s\nleader_ranges = %s\n",
			strings.Join(s.leaders, ","), strings.Join(s.ranges, ","))
	}
}

// The analysis and sink sections every configuration ends its two pipelines
// with; the caller appends the analysis instances' input lines to the heads.
// The sinks print every verdict, flagged or not, so that the comparison
// against the reference covers every score the analyses produce.
const (
	bbSink = "\n[print]\nid = BlackBoxAlarm\nlabel = BB\nonly_nonzero = false\ninput[a] = @bb\n\n"
	wbSink = "\n[print]\nid = TaskTrackerAlarm\nlabel = WB\nonly_nonzero = false\ninput[a] = @wb\n"
)

func bbHead(p eval.AnalysisParams) string {
	return fmt.Sprintf("[analysis_bb]\nid = bb\nthreshold = %g\nwindow = %d\nslide = %d\nstates = %d\n",
		p.BBThreshold, p.WindowSize, p.WindowSlide, p.NumStates)
}

func wbHead(p eval.AnalysisParams) string {
	return fmt.Sprintf("[analysis_wb]\nid = wb\nk = %g\nwindow = %d\nslide = %d\n", p.WBK, p.WindowSize, p.WindowSlide)
}

// fleetConfig renders the full two-pipeline configuration: sadc -> knn ->
// analysis_bb -> print and hadoop_log (tasktracker) -> analysis_wb -> print.
func fleetConfig(s pipelineSpec) string {
	var b strings.Builder
	p := s.params
	if s.batched {
		fmt.Fprintf(&b, "[sadc]\nid = cluster\nnodes = %s\nperiod = 1\n", strings.Join(s.names, ","))
		s.collectorParams(&b, s.sadcAddrs)
		fmt.Fprintf(&b, "\n[knn]\nid = nn\nmodel_file = %s\nnodes = %d\n", s.modelPath, len(s.names))
		for i, n := range s.names {
			fmt.Fprintf(&b, "input[in%d] = cluster.%s\n", i, n)
		}
		b.WriteString("\n")
	} else {
		for i, n := range s.names {
			fmt.Fprintf(&b, "[sadc]\nid = sadc%d\nnode = %s\nperiod = 1\n", i, n)
			if s.rpc {
				fmt.Fprintf(&b, "mode = rpc\naddr = %s\nwire = %s\n", s.sadcAddrs[i], s.wire)
			}
			fmt.Fprintf(&b, "\n[knn]\nid = onenn%d\nmodel_file = %s\ninput[in] = sadc%d.output0\n\n", i, s.modelPath, i)
			if s.ibuffer {
				fmt.Fprintf(&b, "[ibuffer]\nid = buf%d\nsize = 10\ninput[input] = onenn%d.output0\n\n", i, i)
			}
		}
	}
	b.WriteString(bbHead(p))
	switch {
	case s.batched:
		b.WriteString("input[l] = @nn\n")
	case s.ibuffer:
		for i := range s.names {
			fmt.Fprintf(&b, "input[l%d] = @buf%d\n", i, i)
		}
	default:
		for i := range s.names {
			fmt.Fprintf(&b, "input[l%d] = onenn%d.output0\n", i, i)
		}
	}
	b.WriteString(bbSink)

	fmt.Fprintf(&b, "[hadoop_log]\nid = hl_tt\nkind = tasktracker\nnodes = %s\nperiod = 1\n", strings.Join(s.names, ","))
	s.collectorParams(&b, s.logAddrs)
	b.WriteString("\n" + wbHead(p) + "input[s] = @hl_tt\n" + wbSink)
	return b.String()
}

// mavgvecWindow is the smoothing window of the replay workload's white-box
// pipeline.
const mavgvecWindow = 5

// replayConfig renders the analysis-only configuration over a replay source
// instance: knn -> analysis_bb and mavgvec -> analysis_wb, batched (the
// system under test) or one instance per node (its reference).
func replayConfig(nodes int, modelPath string, p eval.AnalysisParams, batched bool) string {
	var b strings.Builder
	b.WriteString("[replay]\nid = src\n\n")
	if batched {
		fmt.Fprintf(&b, "[knn]\nid = nn\nmodel_file = %s\nnodes = %d\n", modelPath, nodes)
		for i := 0; i < nodes; i++ {
			fmt.Fprintf(&b, "input[in%d] = src.sadc%d\n", i, i)
		}
		fmt.Fprintf(&b, "\n[mavgvec]\nid = smooth\nwindow = %d\nslide = 1\nnodes = %d\n", mavgvecWindow, nodes)
		for i := 0; i < nodes; i++ {
			fmt.Fprintf(&b, "input[in%d] = src.tt%d\n", i, i)
		}
		b.WriteString("\n")
	} else {
		for i := 0; i < nodes; i++ {
			fmt.Fprintf(&b, "[knn]\nid = onenn%d\nmodel_file = %s\ninput[in] = src.sadc%d\n\n", i, modelPath, i)
			fmt.Fprintf(&b, "[mavgvec]\nid = smooth%d\nwindow = %d\nslide = 1\ninput[in] = src.tt%d\n\n", i, mavgvecWindow, i)
		}
	}
	b.WriteString(bbHead(p))
	for i := 0; i < nodes; i++ {
		if batched {
			fmt.Fprintf(&b, "input[l%d] = nn.output%d\n", i, i)
		} else {
			fmt.Fprintf(&b, "input[l%d] = onenn%d.output0\n", i, i)
		}
	}
	b.WriteString(bbSink + wbHead(p))
	for i := 0; i < nodes; i++ {
		if batched {
			fmt.Fprintf(&b, "input[s%d] = smooth.mean%d\n", i, i)
		} else {
			fmt.Fprintf(&b, "input[s%d] = smooth%d.output0\n", i, i)
		}
	}
	b.WriteString(wbSink)
	return b.String()
}
