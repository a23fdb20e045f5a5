// Command asdf-bench regenerates every table and figure of the paper's
// evaluation against the simulated cluster substrate and prints
// paper-vs-measured comparisons. Absolute numbers differ (the substrate is
// a simulator, not the authors' EC2 testbed); the shapes — who wins, where
// the knees fall, which faults are slow to localize — are the reproduction
// targets.
//
// Usage:
//
//	asdf-bench -experiment all
//	asdf-bench -experiment fig7a -slaves 16 -duration 2400
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/asdf-project/asdf/internal/analysis"
	"github.com/asdf-project/asdf/internal/eval"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("asdf-bench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "table3 | table4 | fig6a | fig6b | fig7a | fig7b | ablation | workload | hier | wire | detect | all")
	slaves := fs.Int("slaves", 0, "cluster size (0 = default)")
	seed := fs.Int64("seed", 0, "base seed (0 = default)")
	duration := fs.Int("duration", 0, "fault-run seconds (0 = default)")
	csvOut := fs.String("csv", "", "directory to also write each exhibit's data as CSV (for plotting)")
	hierJSON := fs.String("hier-json", "BENCH_hier.json", "output path for the hier experiment's JSON result")
	wireJSON := fs.String("wire-json", "BENCH_wire.json", "output path for the wire experiment's JSON result")
	detectJSON := fs.String("detect-json", "BENCH_detect.json", "output path for the detect experiment's JSON report")
	detectMode := fs.String("detect-mode", "full", "detect matrix sizing: full | reduced (the CI gate uses reduced)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *csvOut != "" {
		if err := os.MkdirAll(*csvOut, 0o755); err != nil {
			return fail(err)
		}
		csvDir = *csvOut
	}

	opts := eval.DefaultOptions()
	if *slaves > 0 {
		opts.Slaves = *slaves
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *duration > 0 {
		opts.FaultDuration = *duration
	}

	want := strings.ToLower(*experiment)
	runAll := want == "all"

	var model *analysis.Model
	needModel := runAll || strings.HasPrefix(want, "fig") || want == "ablation" || want == "workload"
	if needModel {
		fmt.Printf("training black-box model (%d slaves, %d fault-free seconds, %d states)...\n",
			opts.Slaves, opts.TrainSeconds, opts.NumStates)
		var err error
		model, err = eval.TrainDefaultModel(opts.Slaves, opts.Seed, opts.TrainSeconds, opts.NumStates)
		if err != nil {
			return fail(err)
		}
	}

	ok := true
	dispatch := map[string]func() error{
		"table3":   runTable3,
		"table4":   runTable4,
		"fig6a":    func() error { return runFig6a(opts, model) },
		"fig6b":    func() error { return runFig6b(opts, model) },
		"fig7a":    func() error { return runFig7(opts, model, true) },
		"fig7b":    func() error { return runFig7(opts, model, false) },
		"ablation": func() error { return runAblation(opts, model) },
		"workload": func() error { return runWorkload(opts, model) },
		"hier":     func() error { return runHierScale(*hierJSON) },
		"wire":     func() error { return runWire(*wireJSON) },
		"detect":   func() error { return runDetect(*detectJSON, *detectMode) },
	}
	if runAll {
		for _, name := range []string{"table3", "table4", "fig6a", "fig6b", "fig7a", "fig7b", "ablation", "workload"} {
			if err := dispatch[name](); err != nil {
				fmt.Fprintf(os.Stderr, "asdf-bench: %s: %v\n", name, err)
				ok = false
			}
		}
	} else {
		f, known := dispatch[want]
		if !known {
			fmt.Fprintf(os.Stderr, "asdf-bench: unknown experiment %q\n", *experiment)
			return 2
		}
		if err := f(); err != nil {
			return fail(err)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "asdf-bench: %v\n", err)
	return 1
}

// csvDir, when non-empty, receives one CSV file per exhibit.
var csvDir string

// writeCSV emits an exhibit's data for external plotting.
func writeCSV(name string, header []string, rows [][]string) {
	if csvDir == "" {
		return
	}
	var b strings.Builder
	b.WriteString(strings.Join(header, ",") + "\n")
	for _, r := range rows {
		b.WriteString(strings.Join(r, ",") + "\n")
	}
	path := filepath.Join(csvDir, name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "asdf-bench: writing %s: %v\n", path, err)
		return
	}
	fmt.Printf("(wrote %s)\n", path)
}

func runTable3() error {
	rows, err := eval.MeasureTable3(200)
	if err != nil {
		return err
	}
	fmt.Println("\n=== Table 3: monitoring overhead (CPU % of one core at 1 Hz, resident memory) ===")
	fmt.Printf("%-18s %12s %12s %14s %14s\n", "Process", "paper %CPU", "ours %CPU", "paper MB", "ours MB")
	paper := map[string][2]float64{
		"hadoop_log_rpcd": {0.0245, 2.36},
		"sadc_rpcd":       {0.3553, 0.77},
		"fpt-core":        {0.8063, 5.11},
	}
	for _, r := range rows {
		p := paper[r.Process]
		fmt.Printf("%-18s %12.4f %12.4f %14.2f %14.2f\n", r.Process, p[0], r.CPUPct, p[1], r.MemoryMB)
	}
	fmt.Println("shape target: per-node daemons well under 1% CPU; fpt-core the heaviest.")
	return nil
}

func runTable4() error {
	rows, err := eval.MeasureTable4(60)
	if err != nil {
		return err
	}
	fmt.Println("\n=== Table 4: RPC bandwidth (static setup kB, per-iteration kB/s at 1 Hz) ===")
	fmt.Printf("%-10s %14s %14s %16s %16s\n", "RPC type", "paper static", "ours static", "paper kB/s", "ours kB/s")
	paper := map[string][2]float64{
		"sadc-tcp":  {1.98, 1.22},
		"hl-dn-tcp": {2.04, 0.31},
		"hl-tt-tcp": {2.04, 0.32},
		"TCP Sum":   {6.06, 1.85},
	}
	for _, r := range rows {
		p := paper[r.RPCType]
		fmt.Printf("%-10s %14.2f %14.2f %16.2f %16.2f\n", r.RPCType, p[0], r.StaticKB, p[1], r.PerIterKBs)
	}
	fmt.Println("shape target: static setup a few kB; steady-state monitoring a few kB/s per node.")
	return nil
}

func runFig6a(opts eval.Options, model *analysis.Model) error {
	points, err := eval.Figure6a(opts, model, eval.Figure6aThresholds())
	if err != nil {
		return err
	}
	fmt.Println("\n=== Figure 6(a): black-box false-positive rate vs threshold (problem-free GridMix) ===")
	fmt.Printf("%-10s %10s\n", "threshold", "FPR %")
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		fmt.Printf("%-10.0f %10.1f  %s\n", p.Param, p.FPR*100, bar(p.FPR))
		rows = append(rows, []string{fmt.Sprint(p.Param), fmt.Sprintf("%.4f", p.FPR)})
	}
	writeCSV("fig6a.csv", []string{"threshold", "fpr"}, rows)
	fmt.Println("shape target (paper): FPR drops rapidly with threshold; little improvement past the knee (~60 in the paper; similar here).")
	return nil
}

func runFig6b(opts eval.Options, model *analysis.Model) error {
	points, err := eval.Figure6b(opts, model, eval.Figure6bKs())
	if err != nil {
		return err
	}
	fmt.Println("\n=== Figure 6(b): white-box false-positive rate vs k (problem-free GridMix) ===")
	fmt.Printf("%-10s %10s\n", "k", "FPR %")
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		fmt.Printf("%-10.1f %10.2f  %s\n", p.Param, p.FPR*100, bar(p.FPR))
		rows = append(rows, []string{fmt.Sprint(p.Param), fmt.Sprintf("%.4f", p.FPR)})
	}
	writeCSV("fig6b.csv", []string{"k", "fpr"}, rows)
	fmt.Println("shape target (paper): FPR under a few %, flat past k = 3.")
	return nil
}

func runFig7(opts eval.Options, model *analysis.Model, accuracy bool) error {
	params := eval.DefaultParams(model.NumStates())
	results, err := eval.Figure7(opts, model, params)
	if err != nil {
		return err
	}
	approaches := []eval.Approach{eval.ApproachBlackBox, eval.ApproachWhiteBox, eval.ApproachCombined}
	if accuracy {
		fmt.Println("\n=== Figure 7(a): balanced accuracy per fault (%) ===")
		fmt.Printf("%-12s %12s %12s %12s\n", "fault", "black-box", "white-box", "combined")
		for _, r := range results {
			fmt.Printf("%-12s", r.Fault)
			for _, a := range approaches {
				fmt.Printf(" %11.0f%%", r.Outcomes[a].BalancedAccuracy*100)
			}
			fmt.Println()
		}
		fmt.Printf("%-12s", "MEAN")
		for _, a := range approaches {
			fmt.Printf(" %11.0f%%", eval.MeanBalancedAccuracy(results, a)*100)
		}
		fmt.Println()
		rows := make([][]string, 0, len(results))
		for _, r := range results {
			rows = append(rows, []string{r.Fault.String(),
				fmt.Sprintf("%.4f", r.Outcomes[eval.ApproachBlackBox].BalancedAccuracy),
				fmt.Sprintf("%.4f", r.Outcomes[eval.ApproachWhiteBox].BalancedAccuracy),
				fmt.Sprintf("%.4f", r.Outcomes[eval.ApproachCombined].BalancedAccuracy)})
		}
		writeCSV("fig7a.csv", []string{"fault", "blackbox_ba", "whitebox_ba", "combined_ba"}, rows)
		fmt.Println("paper means: black-box 71%, white-box 78%, combined 80%.")
		fmt.Println("shape targets: BB strong on resource faults, weak on HADOOP-1152/2080; WB strong there; combined dominates both.")
	} else {
		fmt.Println("\n=== Figure 7(b): fingerpointing latency per fault (seconds; -1 = never confidently localized) ===")
		fmt.Printf("%-12s %12s %12s %12s\n", "fault", "black-box", "white-box", "combined")
		for _, r := range results {
			fmt.Printf("%-12s", r.Fault)
			for _, a := range approaches {
				fmt.Printf(" %12.0f", r.Outcomes[a].LatencySec)
			}
			fmt.Println()
		}
		rows := make([][]string, 0, len(results))
		for _, r := range results {
			rows = append(rows, []string{r.Fault.String(),
				fmt.Sprintf("%.0f", r.Outcomes[eval.ApproachBlackBox].LatencySec),
				fmt.Sprintf("%.0f", r.Outcomes[eval.ApproachWhiteBox].LatencySec),
				fmt.Sprintf("%.0f", r.Outcomes[eval.ApproachCombined].LatencySec)})
		}
		writeCSV("fig7b.csv", []string{"fault", "blackbox_s", "whitebox_s", "combined_s"}, rows)
		fmt.Println("paper: ~200 s for most faults (3-window confidence); longest for the dormant reduce faults (HADOOP-1152/2080).")
		fmt.Println("shape targets: resource faults localize within a few windows; HADOOP-1152 is the slowest.")
	}
	return nil
}

func runAblation(opts eval.Options, model *analysis.Model) error {
	params := eval.DefaultParams(model.NumStates())
	rows, err := eval.Ablation(opts, params)
	if err != nil {
		return err
	}
	fmt.Println("\n=== Ablation: the design choices of DESIGN.md §5a, each reverted ===")
	fmt.Printf("%-46s %10s %10s\n", "variant", "mean BA %", "clean FPR %")
	for _, r := range rows {
		fmt.Printf("%-46s %9.0f%% %10.1f%%\n", r.Variant, r.MeanBA*100, r.CleanFPR*100)
	}
	fmt.Println("expectations: stall metrics carry the white-box hang detection; metric")
	fmt.Println("selection and validated training each buy black-box accuracy and robustness.")
	return nil
}

func runWorkload(opts eval.Options, model *analysis.Model) error {
	params := eval.DefaultParams(model.NumStates())
	res, err := eval.WorkloadChange(opts, model, params)
	if err != nil {
		return err
	}
	fmt.Println("\n=== Workload change (§2.1): peer comparison vs static-threshold baseline ===")
	fmt.Printf("%-34s %12s %12s\n", "approach", "FPR before", "FPR after")
	fmt.Printf("%-34s %11.1f%% %11.1f%%\n", "ASDF peer comparison (black-box)", res.PeerFPRBefore*100, res.PeerFPRAfter*100)
	fmt.Printf("%-34s %11.1f%% %11.1f%%\n", "static thresholds (rule baseline)", res.RuleFPRBefore*100, res.RuleFPRAfter*100)
	fmt.Printf("the GridMix composition switches from light (webdataScan+combiner) to heavy\n")
	fmt.Printf("(javaSort+monsterQuery) at t = %d s; the run is fault-free throughout, so\n", res.SwitchAtSec)
	fmt.Println("every alarm is a false positive. Peer comparison rides through the change;")
	fmt.Println("thresholds calibrated on the light phase fire persistently after it (§2.1).")
	return nil
}

// runHierScale measures the hierarchical collection plane's per-tick
// latency — the fleet delegated to 2/4/8 shard leaders — against the
// single-process sweep at growing cluster sizes and writes the result as
// JSON (the committed BENCH_hier.json artifact).
func runHierScale(jsonPath string) error {
	cfg := eval.DefaultHierScaleConfig()
	points, err := eval.MeasureHierScaling(cfg)
	if err != nil {
		return err
	}
	fmt.Println("\n=== Hierarchy scaling: per-tick collection latency, single process vs shard leaders ===")
	fmt.Printf("(simulated daemons %v away; each leader sweeps with %d workers; columnar root hop)\n",
		cfg.RPCLatency, cfg.LeaderFanout)
	fmt.Printf("%-8s %8s %14s %10s\n", "nodes", "leaders", "per-tick ms", "speedup")
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		fmt.Printf("%-8d %8d %14.2f %9.1fx\n", p.Nodes, p.Leaders, p.PerTickMs, p.SpeedupVsSingle)
		rows = append(rows, []string{fmt.Sprint(p.Nodes), fmt.Sprint(p.Leaders),
			fmt.Sprintf("%.3f", p.PerTickMs), fmt.Sprintf("%.2f", p.SpeedupVsSingle)})
	}
	writeCSV("hierscale.csv", []string{"nodes", "leaders", "per_tick_ms", "speedup"}, rows)
	fmt.Println("shape target: leader fleets hold per-tick latency roughly flat as nodes grow; clear win at >= 1024 nodes.")
	if jsonPath != "" {
		out := struct {
			Experiment   string                `json:"experiment"`
			RPCLatencyUS int64                 `json:"rpc_latency_us"`
			LeaderFanout int                   `json:"leader_fanout"`
			Ticks        int                   `json:"ticks"`
			Points       []eval.HierScalePoint `json:"points"`
		}{"hier", cfg.RPCLatency.Microseconds(), cfg.LeaderFanout, cfg.Ticks, points}
		if err := writeReportAtomic(jsonPath, out); err != nil {
			return err
		}
		fmt.Printf("(wrote %s)\n", jsonPath)
	}
	return nil
}

// runWire measures the JSON vs columnar wire cost of one collection tick
// at growing cluster sizes and writes the result as JSON (the committed
// BENCH_wire.json artifact).
func runWire(jsonPath string) error {
	cfg := eval.DefaultWireScaleConfig()
	points, err := eval.MeasureWireScaling(cfg)
	if err != nil {
		return err
	}
	fmt.Println("\n=== Wire format: full-cluster bytes per collection tick, JSON vs columnar ===")
	fmt.Printf("(%d columns per node, %d drifting per tick, %d ticks)\n",
		cfg.Columns, cfg.ChangedPerTick, cfg.Ticks)
	fmt.Printf("%-8s %10s %16s %14s %12s\n", "nodes", "wire", "bytes/tick", "ns/metric", "reduction")
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		fmt.Printf("%-8d %10s %16.0f %14.1f %11.1fx\n",
			p.Nodes, p.Wire, p.BytesPerTick, p.NsPerMetric, p.ReductionVsJSON)
		rows = append(rows, []string{fmt.Sprint(p.Nodes), p.Wire,
			fmt.Sprintf("%.0f", p.BytesPerTick), fmt.Sprintf("%.2f", p.NsPerMetric),
			fmt.Sprintf("%.2f", p.ReductionVsJSON)})
	}
	writeCSV("wirescale.csv", []string{"nodes", "wire", "bytes_per_tick", "ns_per_metric", "reduction_vs_json"}, rows)
	fmt.Println("shape target: columnar several-x fewer bytes per tick at steady state (>= 5x by 512 nodes), no slower to serialize.")
	if jsonPath != "" {
		out := struct {
			Experiment     string                `json:"experiment"`
			Columns        int                   `json:"columns"`
			ChangedPerTick int                   `json:"changed_per_tick"`
			Ticks          int                   `json:"ticks"`
			Points         []eval.WireScalePoint `json:"points"`
		}{"wire", cfg.Columns, cfg.ChangedPerTick, cfg.Ticks, points}
		if err := writeReportAtomic(jsonPath, out); err != nil {
			return err
		}
		fmt.Printf("(wrote %s)\n", jsonPath)
	}
	return nil
}

// writeReportAtomic writes a JSON report via a temp file and rename, so a
// crashed or interrupted run never leaves a truncated committed artifact.
func writeReportAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(data, '\n'))
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// runDetect runs the detection-quality matrix — every injectable fault ×
// GridMix workload, scored under all three approaches — and writes the
// report as JSON (the committed BENCH_detect.json artifact; the CI
// detect-quality gate holds the reduced matrix against .github/detect-floor.json).
func runDetect(jsonPath, mode string) error {
	var cfg eval.DetectConfig
	switch mode {
	case "full":
		cfg = eval.DefaultDetectConfig()
	case "reduced":
		cfg = eval.ReducedDetectConfig()
	default:
		return fmt.Errorf("unknown detect mode %q (want full or reduced)", mode)
	}
	fmt.Printf("detect matrix (%s): %d faults x %d workloads, %d slaves, %d s per cell\n",
		mode, len(cfg.Faults), len(cfg.Workloads), cfg.Slaves, cfg.DurationSec)
	rep, err := eval.RunDetect(cfg, mode)
	if err != nil {
		return err
	}
	fmt.Println("\n=== Detection quality: per-fault summary (combined approach across workloads) ===")
	fmt.Printf("%-14s %10s %10s %10s %12s\n", "fault", "TPR", "FPR", "bal acc", "detect s")
	rows := make([][]string, 0, len(rep.Cells))
	for _, c := range rep.Cells {
		s := c.Scores[eval.ApproachCombined.String()]
		rows = append(rows, []string{c.Fault, c.Workload,
			fmt.Sprintf("%.4f", s.TPR), fmt.Sprintf("%.4f", s.FPR),
			fmt.Sprintf("%.4f", s.BalancedAccuracy), fmt.Sprintf("%.0f", s.TimeToDetectionSec)})
	}
	for _, f := range rep.Faults {
		key := eval.ApproachCombined.String()
		var tprSum, fprSum float64
		n := 0
		for _, c := range rep.Cells {
			if c.Fault == f.Fault {
				tprSum += c.Scores[key].TPR
				fprSum += c.Scores[key].FPR
				n++
			}
		}
		fmt.Printf("%-14s %10.2f %10.2f %10.2f %12.0f\n", f.Fault,
			tprSum/float64(n), fprSum/float64(n), f.BalancedAccuracy[key], f.TimeToDetectionSec[key])
	}
	writeCSV("detect.csv", []string{"fault", "workload", "tpr", "fpr", "balanced_accuracy", "time_to_detection_sec"}, rows)
	fmt.Println("shape targets: resource + hang faults detected within a few windows; slow-burn")
	fmt.Println("faults (MemLeak, DiskDegrade, GCPause duty cycle) evade the 60 s peer window.")
	if jsonPath != "" {
		var buf bytes.Buffer
		if err := rep.Encode(&buf); err != nil {
			return err
		}
		if err := writeFileAtomic(jsonPath, buf.Bytes()); err != nil {
			return err
		}
		fmt.Printf("(wrote %s)\n", jsonPath)
	}
	return nil
}

func bar(frac float64) string {
	n := int(frac * 40)
	if n > 40 {
		n = 40
	}
	return strings.Repeat("#", n)
}
