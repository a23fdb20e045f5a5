package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/asdf-project/asdf/internal/analysis"
	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/modules"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/sadc"
	"github.com/asdf-project/asdf/internal/state"
	"github.com/asdf-project/asdf/internal/stats"
	"github.com/asdf-project/asdf/internal/telemetry"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own files around its calls into the layers. Times are
// nanoseconds since the trace began; Parent 0 means a root span. Spans of
// one fleet tick share its Tick number.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Tick   int    `json:"tick"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id.
func (t *tracer) add(name string, parent, tick int, start time.Time, d time.Duration) int {
	id := len(t.spans) + 1
	st := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Tick: tick, Name: name, Start: st, End: st + d.Nanoseconds()})
	return id
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover. Children may overlap each other and may stick out of
// the parent; overlap is counted once and the overhang not at all.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return (parent.End - parent.Start) - covered
}

// tickSpans turns the region's tick records into spans: one root span per
// fleet tick with the generator, the engine tick, the state snapshot and
// the reference tick as children. It returns the summed self time of the
// root spans — what the benchmark's own loop costs.
func (t *tracer) tickSpans(r *region) (loopSelf time.Duration) {
	for k, tr := range r.ticks {
		root := t.add("tick", 0, k, tr.genStart, tr.end.Sub(tr.genStart))
		first := len(t.spans)
		t.add("hadoopsim.gen", root, k, tr.genStart, tr.gen)
		t.add("core.tick", root, k, tr.start, tr.wall-tr.snap)
		if tr.snap > 0 {
			t.add("state.snapshot", root, k, tr.start.Add(tr.wall-tr.snap), tr.snap)
		}
		t.add("reference.tick", root, k, tr.refStart, tr.ref)
		loopSelf += time.Duration(selfTime(t.spans[root-1], t.spans[first:]))
	}
	return loopSelf
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// scrape is one reading of the telemetry registry, parsed back from its
// text exposition.
type scrape map[string]float64

// takeScrape serializes and re-parses the registry, timing the round trip.
func takeScrape(reg *telemetry.Registry) (scrape, time.Duration, error) {
	t0 := time.Now()
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		return nil, 0, err
	}
	m, err := telemetry.ParseText(&buf)
	return m, time.Since(t0), err
}

// seriesLabel extracts the value of one label from a series identity such
// as `name{addr="127.0.0.1:1",le="0.5"}`.
func seriesLabel(series, label string) string {
	key := label + `="`
	i := strings.Index(series, key)
	if i < 0 {
		return ""
	}
	rest := series[i+len(key):]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}

// deltaBy sums, per value of label, how much every series named name grew
// between two scrapes.
func deltaBy(before, after scrape, name, label string) map[string]float64 {
	out := make(map[string]float64)
	for series, v := range after {
		if series != name && !strings.HasPrefix(series, name+"{") {
			continue
		}
		out[seriesLabel(series, label)] += v - before[series]
	}
	return out
}

func sumValues(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

// instanceKind maps an instance id of the benchmark's configurations to the
// module it instantiates.
func instanceKind(id string) string {
	switch {
	case id == "cluster" || strings.HasPrefix(id, "sadc"):
		return "sadc"
	case id == "hl_tt":
		return "hadoop_log"
	case id == "nn" || strings.HasPrefix(id, "onenn"):
		return "knn"
	case strings.HasPrefix(id, "buf"):
		return "ibuffer"
	case strings.HasPrefix(id, "smooth"):
		return "mavgvec"
	case id == "bb":
		return "analysis_bb"
	case id == "wb":
		return "analysis_wb"
	case id == "BlackBoxAlarm" || id == "TaskTrackerAlarm":
		return "print"
	case id == "src":
		return "replay"
	}
	return "other"
}

// tickProbe samples, after every traced tick, how far the log sync lags: a
// gauge with no cumulative form a scrape could recover.
type tickProbe struct {
	guard state.ReplayGuard
}

func newTickProbe(s *stack) *tickProbe {
	p := &tickProbe{}
	if mod, ok := s.eng.ModuleOf("hl_tt"); ok {
		p.guard, _ = mod.(state.ReplayGuard)
	}
	return p
}

func (p *tickProbe) afterTick(tr *tickRecord) {
	if p.guard == nil {
		return
	}
	if wm, ok := p.guard.ReplayWatermark(); ok {
		tr.holdSec = tr.vsec - wm.Unix()
	}
}

// timeOp runs f n times and returns the mean wall time of a run.
func timeOp(n int, f func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(t0) / time.Duration(n)
}

// probeInputs are inputs captured from the workload for the direct probes:
// a short series of what the collectors publish per node per second.
type probeInputs struct {
	sadc  [][][]float64 // [second][node] raw sadc vector
	tt    [][][]float64 // [second][node] TaskTracker state vector
	lines [][]string    // [node] TaskTracker log lines of those seconds
}

const probeSeconds = 20

// layerProbes calls each layer's public functions directly on inputs
// captured from the workload, one span per probe, and returns the per-layer
// metrics they yield. It runs after the timed region and the correctness
// check, so that ticking the simulator further disturbs neither.
func layerProbes(s *stack, t *tracer) (map[string]float64, error) {
	out := make(map[string]float64)
	a := s.allocs
	root := t.add("probes", 0, -1, time.Now(), 0)
	probe := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		t.add(name, root, -1, t0, time.Since(t0))
		return err
	}

	in := &probeInputs{}
	if s.cluster == nil {
		in.sadc, in.tt = s.rec.sadc[:probeSeconds], s.rec.tt[:probeSeconds]
	} else {
		// procfs/sadc: Collector.Collect over every node, on live ticks.
		err := probe("sadc.collect", func() error {
			slaves := s.cluster.Slaves()
			collectors := make([]*sadc.Collector, len(slaves))
			cursors := make([]uint64, len(slaves))
			for i, n := range slaves {
				collectors[i] = sadc.NewCollector(n)
				if _, err := collectors[i].Collect(); err != nil {
					return err
				}
				_, cursors[i] = n.TaskTrackerLog().ReadFrom(math.MaxUint64)
			}
			var spent time.Duration
			var allocs uint64
			for sec := 0; sec < probeSeconds; sec++ {
				s.cluster.Tick()
				row := make([][]float64, len(slaves))
				o0, _ := a.read()
				t0 := time.Now()
				for i := range collectors {
					rec, err := collectors[i].Collect()
					if err != nil {
						return err
					}
					row[i] = rec.Node
				}
				spent += time.Since(t0)
				o1, _ := a.read()
				allocs += o1 - o0
				in.sadc = append(in.sadc, row)
			}
			calls := float64(probeSeconds * len(slaves))
			out["sadc.collect_us_per_node"] = float64(spent.Nanoseconds()) / 1e3 / calls
			out["sadc.collect_allocs_per_node"] = float64(allocs) / calls
			in.lines = make([][]string, len(slaves))
			for i, n := range slaves {
				in.lines[i], _ = n.TaskTrackerLog().ReadFrom(cursors[i])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}

		// hadooplog: Parser.ParseLine over the captured lines.
		err = probe("hadooplog.parse", func() error {
			var lines, vectors int
			var spent time.Duration
			streams := make([][][]float64, len(in.lines))
			for i, ls := range in.lines {
				p := hadooplog.NewParser(hadooplog.KindTaskTracker)
				t0 := time.Now()
				for _, l := range ls {
					if err := p.ParseLine(l); err != nil {
						return err
					}
				}
				spent += time.Since(t0)
				lines += len(ls)
				p.Flush(s.cluster.Now())
				for _, v := range p.Drain() {
					streams[i] = append(streams[i], v.Counts)
				}
				vectors += len(streams[i])
			}
			nodeTicks := float64(len(in.lines) * probeSeconds)
			if lines > 0 {
				out["hadooplog.parse_ns_per_line"] = float64(spent.Nanoseconds()) / float64(lines)
			}
			out["hadooplog.lines_per_node_tick"] = float64(lines) / nodeTicks
			out["hadooplog.vectors_per_node_tick"] = float64(vectors) / nodeTicks
			// Aligned rows for the white-box probe: as many seconds as the
			// quietest node produced.
			depth := -1
			for _, st := range streams {
				if depth < 0 || len(st) < depth {
					depth = len(st)
				}
			}
			for sec := 0; sec < depth; sec++ {
				row := make([][]float64, len(streams))
				for i := range streams {
					row[i] = streams[i][sec]
				}
				in.tt = append(in.tt, row)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}

		if err := probe("rpc.codec", func() error { return codecProbe(in, out) }); err != nil {
			return nil, err
		}
		if err := probe("rpc.call", func() error { return rttProbe(out) }); err != nil {
			return nil, err
		}
	}

	err := probe("analysis", func() error { return analysisProbe(s, in, out) })
	t.spans[root-1].End = time.Since(t.t0).Nanoseconds()
	return out, err
}

// codecProbe encodes and decodes each node's captured sadc rows through the
// columnar stream codec and through the JSON envelope of sadc.collect.
func codecProbe(in *probeInputs, out map[string]float64) error {
	nodes := len(in.sadc[0])
	rows := float64(nodes * len(in.sadc))
	var encT, decT, jsonT time.Duration
	var colBytes, jsonBytes int
	for n := 0; n < nodes; n++ {
		enc := rpc.NewColumnarEncoder(rpc.StreamSchema{
			Method: modules.MethodSadcMetrics,
			Groups: []rpc.ColumnGroup{{Name: "node", Columns: sadc.NodeMetricNames}},
		})
		dec := rpc.NewColumnarDecoder()
		for sec := range in.sadc {
			vals := in.sadc[sec][n]
			t0 := time.Now()
			enc.Begin()
			if err := enc.AppendRow(int64(sec+1)*int64(time.Second), false, nil, vals); err != nil {
				return err
			}
			frame := enc.Finish()
			t1 := time.Now()
			if err := dec.Decode(frame); err != nil {
				return err
			}
			t2 := time.Now()
			body, err := json.Marshal(sadc.Record{Node: vals})
			if err != nil {
				return err
			}
			var back sadc.Record
			if err := json.Unmarshal(body, &back); err != nil {
				return err
			}
			jsonT += time.Since(t2)
			encT += t1.Sub(t0)
			decT += t2.Sub(t1)
			colBytes += len(frame)
			jsonBytes += len(body)
		}
	}
	out["rpc.columnar_encode_ns_per_row"] = float64(encT.Nanoseconds()) / rows
	out["rpc.columnar_decode_ns_per_row"] = float64(decT.Nanoseconds()) / rows
	out["rpc.json_roundtrip_ns_per_row"] = float64(jsonT.Nanoseconds()) / rows
	out["rpc.columnar_bytes_per_row"] = float64(colBytes) / rows
	out["rpc.json_bytes_per_row"] = float64(jsonBytes) / rows
	return nil
}

// rttProbe times an empty method over a loopback connection.
func rttProbe(out map[string]float64) error {
	srv := rpc.NewServer("bench_noop")
	srv.Handle("bench.noop", func(json.RawMessage) (any, error) { return struct{}{}, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := rpc.Dial(addr.String(), "bench")
	if err != nil {
		return err
	}
	defer c.Close()
	const calls = 2000
	rtts := make([]float64, calls)
	var reply struct{}
	for i := range rtts {
		t0 := time.Now()
		if err := c.Call("bench.noop", nil, &reply); err != nil {
			return err
		}
		rtts[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	out["rpc.call_rtt_us"] = median(rtts)
	return nil
}

// analysisProbe times the analysis and stats kernels at fleet width on the
// captured vectors.
func analysisProbe(s *stack, in *probeInputs, out map[string]float64) error {
	// The replay recording is narrower than the virtual fleet: tile it the
	// way the source does, without the phase offsets.
	width := s.nodes
	at := func(series [][][]float64, sec, i int) []float64 {
		row := series[sec%len(series)]
		return row[i%len(row)]
	}
	dim := len(in.sadc[0][0])
	matrix := make([]float64, width*dim)
	for i := 0; i < width; i++ {
		copy(matrix[i*dim:], at(in.sadc, 0, i))
	}
	states := make([]int, width)
	bc := analysis.NewBatchClassifier(s.model, 1, 0)
	defer bc.Close()
	var cerr error
	per := timeOp(20, func() {
		if err := bc.ClassifyMatrix(matrix, width, dim, states); err != nil {
			cerr = err
		}
	})
	if cerr != nil {
		return cerr
	}
	out["analysis.classify_ns_per_node"] = float64(per.Nanoseconds()) / float64(width)

	scaled := make([]float64, len(s.model.Sigma))
	src := make([]float64, len(s.model.Sigma))
	per = timeOp(20000, func() { _ = stats.LogScaleInto(scaled, src, s.model.Sigma) })
	out["stats.logscale_ns_per_vector"] = float64(per.Nanoseconds())

	// One full window of observations, so that the probe pays for the
	// window-closing evaluation exactly as often as the pipeline does.
	p := s.params
	bb, err := analysis.NewBlackBox(analysis.BlackBoxConfig{Nodes: width, NumStates: p.NumStates,
		WindowSize: p.WindowSize, WindowSlide: p.WindowSlide, Threshold: p.BBThreshold})
	if err != nil {
		return err
	}
	observe := func(n int, f func(sec int) error) (time.Duration, error) {
		t0 := time.Now()
		for sec := 0; sec < n; sec++ {
			if err := f(sec); err != nil {
				return 0, err
			}
		}
		return time.Since(t0) / time.Duration(n), nil
	}
	window := p.WindowSize + p.WindowSlide
	d, err := observe(window, func(sec int) error {
		for i := range states {
			states[i] = (i + sec) % p.NumStates
		}
		_, err := bb.Observe(states)
		return err
	})
	if err != nil {
		return err
	}
	out["analysis.bb_observe_us"] = float64(d.Nanoseconds()) / 1e3

	if len(in.tt) > 0 {
		wb, err := analysis.NewWhiteBox(analysis.WhiteBoxConfig{Nodes: width, Metrics: len(in.tt[0][0]),
			WindowSize: p.WindowSize, WindowSlide: p.WindowSlide, K: p.WBK})
		if err != nil {
			return err
		}
		vectors := make([][]float64, width)
		d, err = observe(window, func(sec int) error {
			for i := range vectors {
				vectors[i] = at(in.tt, sec, i)
			}
			_, err := wb.Observe(vectors)
			return err
		})
		if err != nil {
			return err
		}
		out["analysis.wb_observe_us"] = float64(d.Nanoseconds()) / 1e3

		vs := make([][]float64, width)
		for i := range vs {
			vs[i] = at(in.tt, 0, i)
		}
		dst := make([]float64, len(vs[0]))
		col := make([]float64, width)
		var merr error
		per = timeOp(50, func() {
			if err := stats.MedianVectorInto(dst, col, vs); err != nil {
				merr = err
			}
		})
		if merr != nil {
			return merr
		}
		out["stats.median_ns_per_node"] = float64(per.Nanoseconds()) / float64(width)
	}
	return nil
}

// perLayerNames is every per-layer metric with its unit, in reporting
// order. A metric whose layer a workload does not run reads 0 there.
var perLayerNames = [][2]string{
	{"hadoopsim.gen_ms_per_tick", "ms"}, {"hadoopsim.gen_late_p95_ms", "ms"},
	{"sadc.collect_us_per_node", "us"}, {"sadc.collect_allocs_per_node", "count"},
	{"hadooplog.parse_ns_per_line", "ns"}, {"hadooplog.lines_per_node_tick", "count"},
	{"hadooplog.vectors_per_node_tick", "count"},
	{"rpc.call_rtt_us", "us"}, {"rpc.columnar_encode_ns_per_row", "ns"},
	{"rpc.columnar_decode_ns_per_row", "ns"}, {"rpc.json_roundtrip_ns_per_row", "ns"},
	{"rpc.columnar_bytes_per_row", "B"}, {"rpc.json_bytes_per_row", "B"},
	{"rpc.call_seconds_sum_per_tick", "s"}, {"rpc.calls_per_tick", "count"},
	{"rpc.transport_failures", "count"}, {"rpc.wire_bytes_per_node_tick", "B"},
	{"hierarchy.merge_wait_ms_per_tick", "ms"}, {"hierarchy.partials_per_tick", "count"},
	{"hierarchy.root_hop_bytes_per_node_tick", "B"}, {"hierarchy.leader_sweep_ms_p50", "ms"},
	{"hierarchy.leader_skew_ms", "ms"},
	{"modules.sadc_run_ms_per_tick", "ms"}, {"modules.hlog_run_ms_per_tick", "ms"},
	{"modules.collect_self_ms_per_tick", "ms"}, {"modules.sync_hold_ticks_max", "count"},
	{"modules.sync_partial", "count"}, {"modules.sync_dropped", "count"},
	{"modules.ibuffer_run_ms_per_tick", "ms"}, {"modules.ibuffer_dropped", "count"},
	{"modules.print_run_ms_per_tick", "ms"}, {"modules.rows_printed_per_tick", "count"},
	{"core.sched_self_ms_per_tick", "ms"}, {"core.instances_run_per_tick", "count"},
	{"core.tick_p99_ms", "ms"}, {"core.tick_max_ms", "ms"},
	{"core.build_ms", "ms"},
	{"analysis.knn_run_ms_per_tick", "ms"}, {"analysis.mavgvec_run_ms_per_tick", "ms"},
	{"analysis.bb_run_ms_per_tick", "ms"}, {"analysis.wb_run_ms_per_tick", "ms"},
	{"analysis.classify_ns_per_node", "ns"}, {"analysis.bb_observe_us", "us"},
	{"analysis.wb_observe_us", "us"}, {"analysis.windows_emitted", "count"},
	{"stats.median_ns_per_node", "ns"}, {"stats.logscale_ns_per_vector", "ns"},
	{"state.snapshot_ms", "ms"}, {"state.snapshot_bytes", "B"}, {"state.snapshots", "count"},
	{"telemetry.scrape_ms", "ms"}, {"telemetry.series", "count"}, {"trace.overhead_pct", "%"},
	{"config.parse_ms", "ms"}, {"config.bytes", "B"},
	{"runtime.gc_pause_ms_per_tick", "ms"}, {"runtime.gc_cpu_share", "ratio"},
	{"runtime.peak_rss_mb", "MB"}, {"runtime.goroutines_end", "count"},
	{"bench.loop_self_ms_per_tick", "ms"}, {"bench.failed_op_share", "ratio"},
	{"bench.ticks", "count"},
}

// perLayer assembles the per-layer metrics of a traced region from the
// tick records, the telemetry growth between the two scrapes, the module
// status surfaces and the direct probes.
func perLayer(s *stack, r *region, before, after scrape, probes map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(perLayerNames))
	for k, v := range probes {
		out[k] = v
	}
	n := float64(len(r.ticks))
	nodeTicks := n * float64(s.nodes)
	perTickMS := func(seconds float64) float64 { return seconds * 1e3 / n }

	var gen, coreWall, snap time.Duration
	var snaps int
	var holdMax int64
	lat := r.latencies()
	late := make([]float64, len(r.ticks))
	for i, t := range r.ticks {
		gen += t.gen
		coreWall += t.wall - t.snap
		if t.snap > 0 {
			snap += t.snap
			snaps++
		}
		if t.holdSec > holdMax {
			holdMax = t.holdSec
		}
		late[i] = ms(t.late)
	}
	sort.Float64s(late)
	out["hadoopsim.gen_ms_per_tick"] = ms(gen) / n
	if !s.w.closed() {
		out["hadoopsim.gen_late_p95_ms"] = percentile(late, 0.95)
	}
	out["core.tick_p99_ms"] = percentile(lat, 0.99)
	out["core.tick_max_ms"] = lat[len(lat)-1]
	out["core.build_ms"] = ms(s.times.engineBuild)
	out["config.parse_ms"] = ms(s.times.configParse)
	out["config.bytes"] = float64(s.times.configBytes)
	out["modules.sync_hold_ticks_max"] = float64(holdMax)
	out["bench.ticks"] = n

	// Instance run time and dispatch counts, by module.
	runSec := make(map[string]float64)
	var runAll, dispatches float64
	for id, v := range deltaBy(before, after, "asdf_module_run_seconds_sum", "instance") {
		runSec[instanceKind(id)] += v
		runAll += v
	}
	dispatches = sumValues(deltaBy(before, after, "asdf_module_run_seconds_count", "instance"))
	out["modules.sadc_run_ms_per_tick"] = perTickMS(runSec["sadc"])
	out["modules.hlog_run_ms_per_tick"] = perTickMS(runSec["hadoop_log"])
	out["modules.ibuffer_run_ms_per_tick"] = perTickMS(runSec["ibuffer"])
	out["modules.print_run_ms_per_tick"] = perTickMS(runSec["print"])
	out["analysis.knn_run_ms_per_tick"] = perTickMS(runSec["knn"])
	out["analysis.mavgvec_run_ms_per_tick"] = perTickMS(runSec["mavgvec"])
	out["analysis.bb_run_ms_per_tick"] = perTickMS(runSec["analysis_bb"])
	out["analysis.wb_run_ms_per_tick"] = perTickMS(runSec["analysis_wb"])
	out["core.instances_run_per_tick"] = dispatches / n
	out["core.sched_self_ms_per_tick"] = (ms(coreWall) - runAll*1e3) / n

	// RPC accounting, all hops; blocking wall on the control node's own hop.
	callSec := deltaBy(before, after, "asdf_rpc_call_seconds_sum", "addr")
	callCnt := deltaBy(before, after, "asdf_rpc_call_seconds_count", "addr")
	out["rpc.call_seconds_sum_per_tick"] = sumValues(callSec) / n
	out["rpc.calls_per_tick"] = sumValues(deltaBy(before, after, "asdf_rpc_calls_total", "addr")) / n
	out["rpc.transport_failures"] = sumValues(deltaBy(before, after, "asdf_rpc_transport_failures_total", "addr"))
	out["rpc.wire_bytes_per_node_tick"] = float64(r.wire) / nodeTicks
	if !s.w.Replay {
		out["modules.collect_self_ms_per_tick"] = perTickMS(runSec["sadc"] + runSec["hadoop_log"] - s.blockedSeconds(callSec))
	}

	if len(s.leaderAddrs) > 0 {
		out["hierarchy.merge_wait_ms_per_tick"] = perTickMS(sumValues(deltaBy(before, after, "asdf_hier_merge_wait_seconds_sum", "instance")))
		out["hierarchy.partials_per_tick"] = sumValues(deltaBy(before, after, "asdf_hier_partials_total", "leader")) / n
		out["hierarchy.root_hop_bytes_per_node_tick"] = float64(r.rootHop) / nodeTicks
		means := make([]float64, 0, len(s.leaderAddrs))
		for _, a := range s.leaderAddrs {
			if callCnt[a] > 0 {
				means = append(means, callSec[a]*1e3/callCnt[a])
			}
		}
		if len(means) > 0 {
			sort.Float64s(means)
			out["hierarchy.leader_sweep_ms_p50"] = median(means)
			out["hierarchy.leader_skew_ms"] = means[len(means)-1] - median(means)
		}
	}

	// Status surfaces: sync degradation and ibuffer drops.
	for _, id := range s.eng.Instances() {
		mod, _ := s.eng.ModuleOf(id)
		if sr, ok := mod.(modules.SyncReporter); ok {
			out["modules.sync_partial"] += float64(sr.PartialTimestamps())
			out["modules.sync_dropped"] += float64(sr.DroppedTimestamps())
		}
		if dr, ok := mod.(modules.DropReporter); ok {
			out["modules.ibuffer_dropped"] += float64(dr.IbufferStatus().Dropped)
		}
	}
	rows := float64(r.ticks[len(r.ticks)-1].rowsEnd - r.firstRow)
	out["modules.rows_printed_per_tick"] = rows / n
	out["analysis.windows_emitted"] = rows / float64(s.nodes)

	if s.stateMgr != nil && snaps > 0 {
		out["state.snapshot_ms"] = ms(snap) / float64(snaps)
		out["state.snapshot_bytes"] = float64(s.stateMgr.Status().SnapshotBytes)
		out["state.snapshots"] = float64(snaps)
	}
	out["telemetry.series"] = float64(len(after))
	out["runtime.gc_pause_ms_per_tick"] = ms(r.gcPause) / n
	if r.totalCPU > 0 {
		out["runtime.gc_cpu_share"] = r.gcCPU / r.totalCPU
	}
	out["runtime.peak_rss_mb"] = peakRSSMB()
	return out
}

// blockedSeconds estimates the wall time the control node's collectors
// spent blocked in RPC on their own hop: the summed call time divided by
// how many calls run at once. A sweep of N daemons under fanout f cannot
// finish sooner than that, so run time minus it bounds the collectors' own
// work from above.
func (s *stack) blockedSeconds(callSec map[string]float64) float64 {
	fanout := float64(defaultFanout(s.nodes))
	if len(s.leaderAddrs) > 0 {
		var sum float64
		for _, a := range s.leaderAddrs {
			sum += callSec[a]
		}
		return sum / float64(len(s.leaderAddrs))
	}
	var sadcSum, logSum float64
	for _, a := range s.sadcAddrs {
		sadcSum += callSec[a]
	}
	for _, a := range s.logAddrs {
		logSum += callSec[a]
	}
	if !s.w.Batched {
		// Per-node sadc instances run one after another.
		return sadcSum + logSum/fanout
	}
	return (sadcSum + logSum) / fanout
}

// defaultFanout mirrors the collectors' default concurrent-fetch budget.
func defaultFanout(nodes int) int {
	if nodes < 16 {
		return nodes
	}
	return 16
}

// traceFile is where a workload's spans are written.
func traceFile(outDir, workload string) string {
	return filepath.Join(outDir, fmt.Sprintf("trace-%s.json", workload))
}
