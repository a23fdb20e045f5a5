package main

import (
	"fmt"
	"testing"
)

func bbRow(sec int, node string, flag int, score float64) string {
	return fmt.Sprintf("[BB] 2026-01-01 00:00:%02d node=%s source=analysis_bb values=[%d %g]", sec, node, flag, score)
}

func TestCompareRows(t *testing.T) {
	ref := []string{
		bbRow(15, "slave01", 0, 4), bbRow(15, "slave02", 1, 80),
		bbRow(30, "slave01", 0, 6), bbRow(30, "slave02", 1, 90),
	}
	if d := compareRows(ref, ref); d.failed() != 0 || d.Reference != 4 {
		t.Errorf("identical output: %+v", d)
	}
	// Order does not matter: the two engines may emit on different ticks.
	if d := compareRows(ref, []string{ref[3], ref[0], ref[2], ref[1]}); d.failed() != 0 {
		t.Errorf("reordered output: %+v", d)
	}
	sys := []string{
		ref[0],                                     // same
		bbRow(15, "slave02", 1, 81),                // differing score
		ref[2] + " degraded=1",                     // gap-fill substitute
		bbRow(45, "slave01", 0, 1),                 // extra
		bbRow(45, "slave02", 0, 1) + " degraded=1", // extra and degraded
	} // ref[3] is missing
	d := compareRows(ref, sys)
	want := rowDiff{Reference: 4, Missing: 1, Extra: 2, Differing: 1, Degraded: 2}
	if d != want {
		t.Errorf("got %+v, want %+v", d, want)
	}
	if d.failed() != 6 {
		t.Errorf("failed = %d, want 6", d.failed())
	}
	// A key emitted twice is matched occurrence by occurrence.
	d = compareRows([]string{ref[0], ref[0]}, []string{ref[0]})
	if d.Missing != 1 || d.Extra != 0 {
		t.Errorf("duplicate key: %+v", d)
	}
}

func TestSinkCaptureRows(t *testing.T) {
	c := newSinkCapture(true)
	lines := []string{bbRow(15, "slave01", 0, 4), bbRow(16, "slave02", 1, 80)}
	for _, l := range lines {
		if _, err := fmt.Fprintf(c, "%s\n", l); err != nil {
			t.Fatal(err)
		}
	}
	got := c.rows()
	if len(got) != 2 || got[0] != lines[0] || got[1] != lines[1] || len(c.at) != 2 {
		t.Fatalf("rows = %q, stamps = %d", got, len(c.at))
	}
	ts, ok := rowTime(c.row(1))
	if !ok || ts.Second() != 16 || ts.Year() != 2026 {
		t.Errorf("rowTime = %v, %v", ts, ok)
	}
	if !flagged(got, "slave02") || flagged(got, "slave01") || flagged(got, "slave0") {
		t.Errorf("flagged: slave02 %v slave01 %v slave0 %v",
			flagged(got, "slave02"), flagged(got, "slave01"), flagged(got, "slave0"))
	}
}
