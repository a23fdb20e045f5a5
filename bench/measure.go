package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// tickRecord is everything measured about one fleet tick.
type tickRecord struct {
	vsec  int64         // virtual second the tick collected
	due   time.Time     // open loop: when the tick was due
	start time.Time     // wall time Engine.Tick was entered
	gen   time.Duration // Cluster.Tick wall time (excluded everywhere)
	late  time.Duration // open loop: generator start minus due time
	wall  time.Duration // Engine.Tick plus, when taken, the state snapshot
	snap  time.Duration // the snapshot's part of wall
	// latency is what tick_p50_ms reports: wall in a closed loop; in an
	// open loop completion minus due time minus this tick's generator time,
	// so a stall's cost to later ticks is counted.
	latency time.Duration
	// sysBefore is the system's own elapsed time before this tick: the sum
	// of wall over the earlier ticks. Verdict ages are taken on this clock
	// in a closed loop, so the generator and the reference do not age rows.
	sysBefore time.Duration
	cpu       time.Duration // process CPU during wall
	allocs    uint64        // heap objects allocated during Engine.Tick
	bytes     uint64        // heap bytes allocated during Engine.Tick
	rowsEnd   int           // rows the sink held when the tick returned
	genStart  time.Time     // wall time the generator was entered
	refStart  time.Time     // wall time the reference tick was entered
	ref       time.Duration // reference Engine.Tick wall time (excluded everywhere)
	end       time.Time     // wall time the whole step returned
	holdSec   int64         // traced: seconds the log sync is holding back
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss is in KiB on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// allocCounters reads the cumulative heap allocation counters.
type allocCounters struct{ s [2]metrics.Sample }

func newAllocCounters() *allocCounters {
	a := &allocCounters{}
	a.s[0].Name = "/gc/heap/allocs:objects"
	a.s[1].Name = "/gc/heap/allocs:bytes"
	return a
}

func (a *allocCounters) read() (objects, bytes uint64) {
	metrics.Read(a.s[:])
	return a.s[0].Value.Uint64(), a.s[1].Value.Uint64()
}

// liveHeapBytes is the heap in use after a forced, completed collection.
func liveHeapBytes() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// step runs one fleet tick: the generator, then the system under test
// (timed into tr), then the reference in lock-step on the same inputs.
func (s *stack) step(tr *tickRecord) {
	tr.genStart = time.Now()
	if !tr.due.IsZero() {
		tr.late = tr.genStart.Sub(tr.due)
	}
	if s.cluster != nil {
		s.cluster.Tick()
		s.vnow = s.cluster.Now()
	} else {
		s.vnow = s.vnow.Add(time.Second)
	}
	tr.gen = time.Since(tr.genStart)
	tr.vsec = s.vnow.Unix()
	s.ticks++

	o0, b0 := s.allocs.read()
	c0 := cpuTime()
	tr.start = time.Now()
	_ = s.eng.Tick(s.vnow) // only fails on a real-time engine
	o1, b1 := s.allocs.read()
	if s.stateMgr != nil && s.ticks%s.w.SnapshotEvery == 0 {
		t := time.Now()
		if err := s.stateMgr.SnapshotNow(); err != nil {
			s.runErrs.Add(1)
		}
		tr.snap = time.Since(t)
	}
	tr.wall = time.Since(tr.start)
	tr.cpu = cpuTime() - c0
	tr.allocs, tr.bytes = o1-o0, b1-b0
	tr.rowsEnd = s.sink.len()
	tr.latency = tr.wall
	if !tr.due.IsZero() {
		tr.latency = tr.start.Add(tr.wall).Sub(tr.due) - tr.gen
	}
	if s.probe != nil {
		s.probe.afterTick(tr)
	}

	tr.refStart = time.Now()
	_ = s.ref.Tick(s.vnow)
	tr.end = time.Now()
	tr.ref = tr.end.Sub(tr.refStart)
}

// region is the timed part of one run of one workload.
type region struct {
	ticks     []tickRecord
	wire      uint64 // wire bytes over every hop during the region
	rootHop   uint64 // of which on the control node's leader links
	gcPause   time.Duration
	gcCPU     float64 // seconds of CPU the collector used
	totalCPU  float64 // seconds of CPU the process had available
	firstRow  int     // sink rows before the region
	liveBytes uint64  // heap in use after a forced GC at the end
}

// runRegion ticks the stack for the given wall time: closed loop, or on
// the workload's schedule.
func (s *stack) runRegion(d time.Duration) *region {
	r := &region{ticks: make([]tickRecord, 0, 1<<14), firstRow: s.sink.len()}
	w0, h0 := s.wireBytes()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := readCPUClasses()

	t0 := time.Now()
	var sys time.Duration
	for k := 0; ; k++ {
		var tr tickRecord
		if !s.w.closed() {
			tr.due = t0.Add(time.Duration(k) * s.w.Period)
			if tr.due.Sub(t0) >= d {
				break
			}
			if wait := time.Until(tr.due); wait > 0 {
				time.Sleep(wait)
			}
		} else if time.Since(t0) >= d {
			break
		}
		tr.sysBefore = sys
		s.step(&tr)
		sys += tr.wall
		r.ticks = append(r.ticks, tr)
	}

	runtime.ReadMemStats(&m1)
	gc1 := readCPUClasses()
	r.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	r.gcCPU = gc1[0] - gc0[0]
	r.totalCPU = gc1[1] - gc0[1]
	w1, h1 := s.wireBytes()
	r.wire, r.rootHop = w1-w0, h1-h0
	r.liveBytes = liveHeapBytes()
	return r
}

// latencies returns the region's tick latencies in milliseconds, ascending.
func (r *region) latencies() []float64 {
	lat := make([]float64, len(r.ticks))
	for i, t := range r.ticks {
		lat[i] = ms(t.latency)
	}
	sort.Float64s(lat)
	return lat
}

// readCPUClasses reads the runtime's estimate of CPU seconds spent in the
// collector and available in total.
func readCPUClasses() [2]float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// verdictAge is the sample-to-alarm age: for every row the sink wrote during
// the region whose window ended on a tick of the region, the time from that
// tick's start (or due time) to the write. It includes the §3.7 sync hold,
// ibuffer batching and analysis. The two pipelines age differently — a
// white-box second is held until every node has moved past it — so the
// median is taken per pipeline and the slower pipeline's is reported; the
// median over both would sit in the gap between the two clusters.
func (s *stack) verdictAge(r *region) (p50 time.Duration, rows int) {
	if len(r.ticks) == 0 {
		return 0, 0
	}
	first := r.ticks[0].vsec
	ages := make(map[byte][]float64) // by the label's first letter: B or W
	row := r.firstRow
	for j := range r.ticks {
		tj := &r.ticks[j]
		for ; row < tj.rowsEnd; row++ {
			line := s.sink.row(row)
			t, ok := rowTime(line)
			if !ok {
				continue
			}
			i := t.Unix() - first
			if i < 0 || i > int64(j) {
				continue // window ended in the warm-up
			}
			ti := &r.ticks[i]
			at := s.sink.at[row]
			age := at.Sub(ti.due) - ti.gen
			if s.w.closed() {
				age = tj.sysBefore + at.Sub(tj.start) - ti.sysBefore
			}
			ages[line[1]] = append(ages[line[1]], float64(age))
			rows++
		}
	}
	for _, a := range ages {
		if m := time.Duration(median(a)); m > p50 {
			p50 = m
		}
	}
	return p50, rows
}

// flagged reports whether any sink row raised an alarm (first value 1) on
// the named node.
func flagged(rows []string, node string) bool {
	needle := " node=" + node + " "
	for _, r := range rows {
		if strings.Contains(r, needle) && strings.Contains(r, " values=[1 ") {
			return true
		}
	}
	return false
}

// faultNodeName is the name print rows carry for the injected node.
func (s *stack) faultNodeName() string {
	if s.cluster != nil {
		return s.cluster.Slave(s.faultNode).Name
	}
	// Every virtual node replaying the recorded faulty node is faulty; the
	// first of them has the recorded node's own index.
	return fmt.Sprintf("v%04d", s.faultNode)
}

// metric is one reported number.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples,omitempty"`
}

// endToEndNames is every end-to-end metric with its unit, in reporting
// order; BENCHMARK.json fixes a regression bound for each.
var endToEndNames = [][2]string{
	{"setup_s", "s"}, {"tick_p50_ms", "ms"}, {"tick_p95_ms", "ms"},
	{"node_ticks_per_s", "1/s"}, {"cpu_us_per_node_tick", "us"},
	{"allocs_per_node_tick", "count"}, {"alloc_bytes_per_node_tick", "B"},
	{"live_heap_mb", "MB"}, {"verdict_age_p50_ms", "ms"},
}

// endToEnd computes the end-to-end metrics of a region, each over the
// region's ticks. setup is the median set-up time of the run; stackBytes
// what the system under test kept resident (live heap with it minus live
// heap without it).
func endToEnd(s *stack, r *region, setup time.Duration, stackBytes uint64) ([]metric, error) {
	n := len(r.ticks)
	if n == 0 {
		return nil, fmt.Errorf("no tick completed in the timed region")
	}
	lat := r.latencies()
	var wall, cpu time.Duration
	var allocs, bytes uint64
	for _, t := range r.ticks {
		wall += t.wall
		cpu += t.cpu
		allocs += t.allocs
		bytes += t.bytes
	}
	nodeTicks := float64(s.nodes) * float64(n)
	age, aged := s.verdictAge(r)
	if aged == 0 {
		return nil, fmt.Errorf("no verdict row was written in the timed region (%d ticks)", n)
	}
	values := map[string]float64{
		"setup_s":                   setup.Seconds(),
		"tick_p50_ms":               percentile(lat, 0.50),
		"tick_p95_ms":               percentile(lat, 0.95),
		"node_ticks_per_s":          nodeTicks / wall.Seconds(),
		"cpu_us_per_node_tick":      float64(cpu.Microseconds()) / nodeTicks,
		"allocs_per_node_tick":      float64(allocs) / nodeTicks,
		"alloc_bytes_per_node_tick": float64(bytes) / nodeTicks,
		"live_heap_mb":              float64(stackBytes) / (1 << 20),
		"verdict_age_p50_ms":        ms(age),
	}
	out := make([]metric, len(endToEndNames))
	for i, nu := range endToEndNames {
		out[i] = metric{Name: nu[0], Unit: nu[1], Value: values[nu[0]], Samples: n}
	}
	return out, nil
}
