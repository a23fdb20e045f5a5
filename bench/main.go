// Command bench is the repository's benchmark: it drives the real stack —
// simulated nodes behind real sadc and hadoop_log RPC servers on loopback
// TCP, the wire, leaders, the §3.7 sync, knn, the two analyses and the
// sinks — from one process, checks sink output against a reference engine,
// and prints every metric by name with its unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// report is the -json file: every run written to it so far. Each
// invocation appends its runs, so that a set of runs (one per seed) builds
// up in one file for -compare to take medians and spreads over.
type report struct {
	Runs []*result `json:"runs"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run only this workload and end with the one-line JSON result (default: all four)")
	seed := fs.Int64("seed", 11, "seed of the cluster, the fault node and the replay phases")
	seconds := fs.Float64("seconds", 10, "how long each workload's timed region measures")
	trace := fs.Int("trace", 0, "1 = the traced run, which reports the per-layer metrics instead")
	jsonPath := fs.String("json", "", "append every metric of this invocation to the runs in this report file")
	compare := fs.Bool("compare", false, "compare two -json reports: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two report files")
			return 2
		}
		return compareReports(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}

	todo := workloads
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		todo = []workload{w}
	}
	outDir, err := outputDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var rep report
	if *jsonPath != "" {
		if err := readReport(*jsonPath, &rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	var last *result
	failed := false
	for i, w := range todo {
		if i > 0 {
			// One workload's heap must not bill the next.
			runtime.GC()
		}
		res, err := runWorkload(w, runOptions{seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: outDir})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		rep.Runs = append(rep.Runs, res)
		last = res
		printResult(res)
		if !res.Correct {
			failed = true
			for _, p := range res.Problems {
				fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.Name, p)
			}
		}
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	if *workloadName != "" {
		if err := printContractLine(last); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

// outputDir is bench/out, wherever the command was started from: beside
// this package's sources when run from the repository root, or ./out when
// run from the package directory.
func outputDir() (string, error) {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Abs(filepath.Join("bench", "out"))
	}
	return filepath.Abs("out")
}

// printResult prints one `name unit value` line per metric.
func printResult(res *result) {
	fmt.Printf("# %s seed=%d nodes=%d ticks=%d rows=%d failed=%d\n",
		res.Workload, res.Seed, res.Nodes, res.Ticks, res.Attempted, res.Failed)
	for _, m := range res.Metrics {
		fmt.Printf("%s/%s %s %v\n", res.Workload, m.Name, m.Unit, m.Value)
	}
}

// printContractLine prints the single JSON object the benchmark driver
// reads from the last line of standard output.
func printContractLine(res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value, len(res.Metrics))}
	for _, m := range res.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// readReport loads the runs an earlier invocation wrote; a missing file is
// an empty report.
func readReport(path string, rep *report) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
