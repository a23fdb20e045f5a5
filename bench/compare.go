package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricSpec is one end-to-end metric's entry in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpecs reads the end-to-end metric bounds from BENCHMARK.json, found
// at the repository root whether the command runs there or in bench/.
func loadSpecs() (map[string]metricSpec, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found here or one level up: %w", err)
	}
	var file struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	specs := make(map[string]metricSpec, len(file.EndToEnd))
	for _, s := range file.EndToEnd {
		specs[s.Name] = s
	}
	return specs, nil
}

// series collects, per workload/metric, the values of every run in a report.
type series struct {
	unit   string
	values []float64
}

func loadSeries(path string) (map[string]*series, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]*series)
	var order []string
	for _, res := range rep.Runs {
		for _, m := range res.Metrics {
			key := res.Workload + "/" + m.Name
			s, ok := out[key]
			if !ok {
				s = &series{unit: m.Unit}
				out[key] = s
				order = append(order, key)
			}
			s.values = append(s.values, m.Value)
		}
	}
	return out, order, nil
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, by the exclusive method Python's
// statistics.quantiles(values, n=4) uses; ok is false below two values or
// with a zero median.
func quartileSpread(values []float64) (spread float64, ok bool) {
	n := len(values)
	med := median(values)
	if n < 2 || med == 0 {
		return 0, false
	}
	s := sortedCopy(values)
	q := func(k int) float64 {
		// Position k*(n+1)/4, 1-based; the index is clamped before the
		// interpolation weight is taken, as Python does.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	spread = (q(3) - q(1)) / med
	if spread < 0 {
		spread = -spread
	}
	return spread, true
}

// judge compares the medians of one metric in two reports against its
// bound: worse when b is worse than a by more than the bound, unresolved
// when either side's run-to-run spread is wider than the bound, else ok.
func judge(spec metricSpec, a, b []float64) (ratio float64, status string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	ratio = mb / ma
	for _, side := range [][]float64{a, b} {
		if sp, ok := quartileSpread(side); ok && sp > spec.Bound {
			return ratio, "unresolved"
		}
	}
	worse := ratio > 1+spec.Bound
	if spec.Better == "higher" {
		worse = ratio < 1-spec.Bound
	}
	if worse {
		return ratio, "worse"
	}
	return ratio, "ok"
}

// compareReports prints, for each metric of each workload present in both
// reports, both medians, the ratio b/a with a as its base, the metric's
// bound and the judgement. Metrics without a bound (the per-layer ones) get
// the ratio only. It returns 1 when any metric is worse.
func compareReports(w io.Writer, pathA, pathB string) int {
	specs, err := loadSpecs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, order, err := loadSeries(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, _, err := loadSeries(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	sort.Strings(order)
	fmt.Fprintf(w, "%-52s %-6s %14s %14s %9s %6s  %s\n", "workload/metric", "unit",
		fmt.Sprintf("a (n=%d)", runsOf(a)), fmt.Sprintf("b (n=%d)", runsOf(b)), "b/a", "bound", "status")
	code := 0
	for _, key := range order {
		sa, sb := a[key], b[key]
		if sb == nil {
			continue
		}
		spec, bounded := specs[metricName(key)]
		if !bounded {
			ratio := 0.0
			if ma := median(sa.values); ma != 0 {
				ratio = median(sb.values) / ma
			}
			fmt.Fprintf(w, "%-52s %-6s %14.6g %14.6g %9.4f %6s  -\n", key, sa.unit,
				median(sa.values), median(sb.values), ratio, "-")
			continue
		}
		ratio, status := judge(spec, sa.values, sb.values)
		if status == "worse" {
			code = 1
		}
		fmt.Fprintf(w, "%-52s %-6s %14.6g %14.6g %9.4f %6.2f  %s\n", key, sa.unit,
			median(sa.values), median(sb.values), ratio, spec.Bound, status)
	}
	return code
}

// metricName is the part of a workload/metric key after the slash.
func metricName(key string) string {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '/' {
			return key[i+1:]
		}
	}
	return key
}

// runsOf reports the largest number of runs any metric of a report has.
func runsOf(m map[string]*series) int {
	n := 0
	for _, s := range m {
		if len(s.values) > n {
			n = len(s.values)
		}
	}
	return n
}
