package hadooplog

import (
	"testing"
)

func metricIdx(t *testing.T, kind Kind, name string) int {
	t.Helper()
	for i, n := range MetricNamesFor(kind) {
		if n == name {
			return i
		}
	}
	t.Fatalf("metric %q not in %v layout", name, kind)
	return -1
}

func TestMetricDims(t *testing.T) {
	if got := MetricDims(KindTaskTracker); got != len(TaskTrackerStates)+3 {
		t.Errorf("tasktracker dims = %d", got)
	}
	if got := MetricDims(KindDataNode); got != len(DataNodeStates)+1 {
		t.Errorf("datanode dims = %d", got)
	}
	if MetricNamesFor(Kind(99)) != nil {
		t.Error("unknown kind should return nil")
	}
	// The parser asks for the dimension per emitted vector on every node:
	// it must agree with the name layout and allocate nothing.
	for _, kind := range []Kind{KindTaskTracker, KindDataNode, Kind(99)} {
		if got, want := MetricDims(kind), len(MetricNamesFor(kind)); got != want {
			t.Errorf("MetricDims(%v) = %d, layout has %d names", kind, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { _ = MetricDims(kind) }); n != 0 {
			t.Errorf("MetricDims(%v) allocates %.0f times", kind, n)
		}
		if p := NewParser(kind); p.dims != MetricDims(kind) {
			t.Errorf("parser for %v keeps dimension %d, want %d", kind, p.dims, MetricDims(kind))
		}
	}
}

func TestMapStallGrowsForSilentMap(t *testing.T) {
	w, p, buf := parserFor(t, KindTaskTracker)
	id := TaskID(1, true, 0, 0)
	mustNoErr(t, w.LaunchTask(ts(0), id))
	feed(t, p, buf)
	// Silence for grace + 30 seconds.
	p.Flush(ts(mapStallGraceSec + 30))
	vecs := p.Drain()
	mi := metricIdx(t, KindTaskTracker, "MapStallSec")

	// Within the grace period: zero.
	if got := vecs[mapStallGraceSec-1].Counts[mi]; got != 0 {
		t.Errorf("stall within grace = %v, want 0", got)
	}
	// Past the grace period: grows linearly.
	if got := vecs[mapStallGraceSec+10].Counts[mi]; got != 10 {
		t.Errorf("stall at grace+10 = %v, want 10", got)
	}
	if got := vecs[mapStallGraceSec+29].Counts[mi]; got != 29 {
		t.Errorf("stall at grace+29 = %v, want 29", got)
	}
}

func TestMapStallResetsOnCompletion(t *testing.T) {
	w, p, buf := parserFor(t, KindTaskTracker)
	id := TaskID(1, true, 0, 0)
	mustNoErr(t, w.LaunchTask(ts(0), id))
	mustNoErr(t, w.TaskDone(ts(mapStallGraceSec+20), id))
	feed(t, p, buf)
	p.Flush(ts(mapStallGraceSec + 25))
	vecs := p.Drain()
	mi := metricIdx(t, KindTaskTracker, "MapStallSec")
	if got := vecs[mapStallGraceSec+10].Counts[mi]; got != 10 {
		t.Errorf("stall before completion = %v, want 10", got)
	}
	if got := vecs[mapStallGraceSec+22].Counts[mi]; got != 0 {
		t.Errorf("stall after completion = %v, want 0", got)
	}
}

func TestReduceStallIgnoresProgressingTask(t *testing.T) {
	w, p, buf := parserFor(t, KindTaskTracker)
	id := TaskID(2, false, 0, 0)
	mustNoErr(t, w.LaunchTask(ts(0), id))
	// Progress lines every 5 seconds: never silent beyond grace.
	for s := 5; s <= 300; s += 5 {
		mustNoErr(t, w.ReduceProgress(ts(s), id, float64(s)/10, PhaseCopy))
	}
	feed(t, p, buf)
	p.Flush(ts(301))
	vecs := p.Drain()
	ri := metricIdx(t, KindTaskTracker, "ReduceStallSec")
	for s, v := range vecs {
		if v.Counts[ri] != 0 {
			t.Fatalf("progressing reduce shows stall %v at second %d", v.Counts[ri], s)
		}
	}
}

func TestReduceStallGrowsWhenProgressStops(t *testing.T) {
	w, p, buf := parserFor(t, KindTaskTracker)
	id := TaskID(2, false, 1, 0)
	mustNoErr(t, w.LaunchTask(ts(0), id))
	mustNoErr(t, w.ReduceProgress(ts(5), id, 10, PhaseCopy))
	mustNoErr(t, w.ReduceProgress(ts(10), id, 33.4, PhaseSort))
	// Then silence: hung at sort (HADOOP-2080).
	feed(t, p, buf)
	horizon := 10 + reduceStallGraceSec + 40
	p.Flush(ts(horizon))
	vecs := p.Drain()
	ri := metricIdx(t, KindTaskTracker, "ReduceStallSec")
	si := metricIdx(t, KindTaskTracker, "ReduceSort")
	at := 10 + reduceStallGraceSec + 25
	if got := vecs[at].Counts[ri]; got != 25 {
		t.Errorf("stall at last-event+grace+25 = %v, want 25", got)
	}
	if got := vecs[at].Counts[si]; got != 1 {
		t.Errorf("hung reduce should still count in ReduceSort: %v", got)
	}
}

func TestRecentTaskFailuresWindow(t *testing.T) {
	w, p, buf := parserFor(t, KindTaskTracker)
	// Three failures at t=0, 10, 20 (launch first so states make sense).
	for i := 0; i < 3; i++ {
		id := TaskID(3, false, i, 0)
		mustNoErr(t, w.LaunchTask(ts(i*10), id))
		mustNoErr(t, w.TaskFailed(ts(i*10+1), id, "java.io.IOException"))
	}
	feed(t, p, buf)
	p.Flush(ts(failureHistory + 60))
	vecs := p.Drain()
	fi := metricIdx(t, KindTaskTracker, "RecentTaskFailures")

	if got := vecs[30].Counts[fi]; got != 3 {
		t.Errorf("failures at t=30 = %v, want 3", got)
	}
	// After the history window passes the first failure (t=1+300).
	if got := vecs[failureHistory+5].Counts[fi]; got != 2 {
		t.Errorf("failures at t=%d = %v, want 2", failureHistory+5, got)
	}
	if got := vecs[failureHistory+30].Counts[fi]; got != 0 {
		t.Errorf("failures at t=%d = %v, want 0", failureHistory+30, got)
	}
}

func TestWriteBlockStall(t *testing.T) {
	w, p, buf := parserFor(t, KindDataNode)
	blk := BlockID(42)
	mustNoErr(t, w.ReceivingBlock(ts(0), blk, "10.0.0.1:50010", "10.0.0.2:50010"))
	feed(t, p, buf)
	p.Flush(ts(writeBlockGraceSec + 20))
	vecs := p.Drain()
	wi := metricIdx(t, KindDataNode, "WriteBlockStallSec")
	if got := vecs[writeBlockGraceSec-1].Counts[wi]; got != 0 {
		t.Errorf("write stall within grace = %v, want 0", got)
	}
	if got := vecs[writeBlockGraceSec+10].Counts[wi]; got != 10 {
		t.Errorf("write stall at grace+10 = %v, want 10", got)
	}
}

func TestDerivedMetricsZeroOnIdleNode(t *testing.T) {
	w, p, buf := parserFor(t, KindTaskTracker)
	id := TaskID(1, true, 0, 0)
	mustNoErr(t, w.LaunchTask(ts(0), id))
	mustNoErr(t, w.TaskDone(ts(20), id))
	feed(t, p, buf)
	p.Flush(ts(500))
	vecs := p.Drain()
	for _, name := range []string{"MapStallSec", "ReduceStallSec", "RecentTaskFailures"} {
		mi := metricIdx(t, KindTaskTracker, name)
		if got := vecs[400].Counts[mi]; got != 0 {
			t.Errorf("%s on idle node = %v, want 0", name, got)
		}
	}
}
