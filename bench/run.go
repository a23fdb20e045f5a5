package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// setupRepeats is how many times an untraced run sets the whole stack up;
// setup_s is the median, and the last stack built is the one measured.
const setupRepeats = 3

// runOptions are the settings of one run of one workload.
type runOptions struct {
	seed    int64
	seconds float64
	traced  bool
	nodes   int    // 0 = the workload's own fleet size
	outDir  string // bench/out: scratch files and trace output
}

// result is one run of one workload, as written to the -json report and,
// reduced to the contract's four keys, to the last line of standard output.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Nodes     int      `json:"nodes"`
	Ticks     int      `json:"ticks"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Metrics   []metric `json:"metrics"`
}

// verdict is the correctness check of one stack after its region: sink
// output against the reference's, run errors, and the injected node.
type verdict struct {
	diff      rowDiff
	runErrors int
	flagged   bool
}

// check flushes both engines, so that neither holds back rows the other has
// written, and compares everything the sinks wrote since the engines were
// built.
func (s *stack) check() verdict {
	_ = s.eng.Flush(s.vnow) // only fails on a real-time engine
	_ = s.ref.Flush(s.vnow)
	sys := s.sink.rows()
	return verdict{
		diff:      compareRows(s.refSink.rows(), sys),
		runErrors: int(s.runErrs.Load()),
		flagged:   flagged(sys, s.faultNodeName()),
	}
}

// apply records the verdict in the result.
func (v verdict) apply(res *result, which string) {
	res.Attempted += v.diff.Reference
	res.Failed += v.diff.failed() + v.runErrors
	if f := v.diff.failed(); f > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf(
			"%s: sink output differs from the reference: %d missing, %d extra, %d differing, %d degraded of %d rows",
			which, v.diff.Missing, v.diff.Extra, v.diff.Differing, v.diff.Degraded, v.diff.Reference))
	}
	if v.runErrors > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%s: %d module run errors", which, v.runErrors))
	}
	if v.diff.Reference == 0 {
		res.Problems = append(res.Problems, which+": the reference produced no rows")
	}
	if !v.flagged {
		res.Problems = append(res.Problems, which+": the injected node was never flagged")
	}
}

// runWorkload runs one workload once: untraced for the end-to-end metrics,
// or traced for the per-layer ones. It checks its own hygiene: when it
// returns, every goroutine it started has ended.
func runWorkload(w workload, opt runOptions) (*result, error) {
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	res := &result{Workload: w.Name, Seed: opt.seed, Seconds: opt.seconds, Traced: opt.traced}
	baseGoroutines := runtime.NumGoroutine()
	var err error
	if opt.traced {
		err = runTraced(w, opt, res, baseGoroutines)
	} else {
		err = runUntraced(w, opt, res, baseGoroutines)
	}
	if err != nil {
		return nil, err
	}
	for _, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not a finite number", m.Name)
		}
	}
	if n, ok := settleGoroutines(baseGoroutines); !ok {
		res.Problems = append(res.Problems, fmt.Sprintf(
			"goroutine leak: %d goroutines after the workload, %d before it", n, baseGoroutines))
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// finish tears a measured stack down and returns what the system under test
// kept resident: live heap with it minus live heap once it is released. The
// simulator, the reference engine and the benchmark's own records are alive
// at both readings and cancel out. The second reading waits until the
// servers' connection goroutines have exited (their stacks pin the
// connection buffers) and runs one collection ahead of the measured one, so
// that memory held only by pending finalizers is gone too.
func finish(s *stack, r *region, baseGoroutines int) uint64 {
	s.release()
	settleGoroutines(baseGoroutines)
	runtime.GC()
	without := liveHeapBytes()
	s.discard()
	if r.liveBytes <= without {
		return 0
	}
	return r.liveBytes - without
}

func runUntraced(w workload, opt runOptions, res *result, baseGoroutines int) error {
	var s *stack
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.release()
			s.discard()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if s, err = buildStack(w, opt.nodes, opt.seed, false, opt.outDir); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.Nodes = s.nodes
	runtime.GC()
	r := s.runRegion(time.Duration(opt.seconds * float64(time.Second)))
	res.Ticks = len(r.ticks)
	if !supported(len(r.ticks), 0.95) {
		fmt.Fprintf(os.Stderr, "bench: %s: tick_p95_ms has only %d of %d samples beyond it, fewer than %d: lengthen --seconds\n",
			w.Name, samplesBeyond(len(r.ticks), 0.95), len(r.ticks), minBeyond)
	}
	s.check().apply(res, "untraced")
	resident := finish(s, r, baseGoroutines)
	var err error
	res.Metrics, err = endToEnd(s, r, time.Duration(median(setups)*float64(time.Second)), resident)
	return err
}

// runTraced measures the per-layer metrics. Half the time goes to an
// untraced stack and half to a traced one, same seed, so that the cost of
// tracing (trace.overhead_pct) comes from one process on one machine state.
func runTraced(w workload, opt runOptions, res *result, baseGoroutines int) error {
	half := time.Duration(opt.seconds * float64(time.Second) / 2)

	plain, err := buildStack(w, opt.nodes, opt.seed, false, opt.outDir)
	if err != nil {
		return err
	}
	runtime.GC()
	pr := plain.runRegion(half)
	plain.check().apply(res, "untraced")
	finish(plain, pr, baseGoroutines)
	if len(pr.ticks) == 0 {
		return fmt.Errorf("no tick completed in the untraced half")
	}

	s, err := buildStack(w, opt.nodes, opt.seed, true, opt.outDir)
	if err != nil {
		return err
	}
	res.Nodes = s.nodes
	s.probe = newTickProbe(s)
	tr := newTracer()
	runtime.GC()
	before, _, err := takeScrape(s.reg)
	if err != nil {
		return err
	}
	r := s.runRegion(half)
	if len(r.ticks) == 0 {
		return fmt.Errorf("no tick completed in the traced half")
	}
	res.Ticks = len(r.ticks)
	after, scrapeTime, err := takeScrape(s.reg)
	if err != nil {
		return err
	}
	v := s.check()
	v.apply(res, "traced")
	loopSelf := tr.tickSpans(r)
	probes, err := layerProbes(s, tr)
	if err != nil {
		return err
	}
	values := perLayer(s, r, before, after, probes)
	values["telemetry.scrape_ms"] = ms(scrapeTime)
	values["bench.loop_self_ms_per_tick"] = ms(loopSelf) / float64(len(r.ticks))
	if v.diff.Reference > 0 {
		values["bench.failed_op_share"] = float64(v.diff.failed()+v.runErrors) / float64(v.diff.Reference)
	}
	plainP50 := percentile(pr.latencies(), 0.50)
	values["trace.overhead_pct"] = (percentile(r.latencies(), 0.50) - plainP50) / plainP50 * 100
	finish(s, r, baseGoroutines)
	// Read once the servers' connection loops have had time to exit;
	// runWorkload asserts the same count against the pre-workload value.
	goroutines, _ := settleGoroutines(baseGoroutines)
	values["runtime.goroutines_end"] = float64(goroutines)

	for _, nu := range perLayerNames {
		res.Metrics = append(res.Metrics, metric{Name: nu[0], Unit: nu[1], Value: values[nu[0]], Samples: len(r.ticks)})
	}
	return tr.write(traceFile(opt.outDir, w.Name))
}
