package modules

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/asdf-project/asdf/internal/core"
)

// fmtRow is the print row as fmt renders it — the format every consumer of
// the alarm stream was written against — and the oracle for writeRow.
func fmtRow(label string, origin core.Origin, s core.Sample) string {
	parts := make([]string, len(s.Values))
	for i, v := range s.Values {
		parts[i] = strconv.FormatFloat(v, 'g', 6, 64)
	}
	degraded := ""
	if s.Degraded {
		degraded = " degraded=1"
	}
	return fmt.Sprintf("[%s] %s node=%s source=%s values=%s%s\n",
		label, s.Time.Format("2006-01-02 15:04:05"),
		origin.Node, origin.Source, "["+strings.Join(parts, " ")+"]", degraded)
}

// rowWriter keeps every Write as its own element.
type rowWriter struct{ writes []string }

func (w *rowWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, string(p))
	return len(p), nil
}

func TestPrintRowMatchesFmt(t *testing.T) {
	utc := time.Date(2026, 1, 1, 0, 1, 15, 0, time.UTC)
	east := time.FixedZone("east", 5*3600+1800)
	origin := core.Origin{Node: "slave07", Source: "analysis_wb", Metric: "alarm"}
	samples := []core.Sample{
		{Time: utc, Values: []float64{1, 3.14159265}},
		{Time: utc, Values: []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}},
		{Time: utc, Values: []float64{1e21, 1e-7, 123456.7, 0.000123456789}},
		{Time: utc},
		{Time: utc.Add(time.Second), Values: []float64{0, 0.5}, Degraded: true},
		// The same instant in another zone prints differently.
		{Time: utc.Add(time.Second).In(east), Values: []float64{2}},
		{},
	}
	m := &printModule{label: "WB"}
	w := &rowWriter{}
	for _, s := range samples {
		m.writeRow(w, origin, s)
	}
	if len(w.writes) != len(samples) {
		t.Fatalf("%d rows took %d Writes; a consumer reads each Write as one row", len(samples), len(w.writes))
	}
	for i, s := range samples {
		if want := fmtRow("WB", origin, s); w.writes[i] != want {
			t.Errorf("row %d:\n got %q\nwant %q", i, w.writes[i], want)
		}
	}
	// Literal rows, so the oracle above cannot drift with the code.
	for i, want := range []string{
		"[WB] 2026-01-01 00:01:15 node=slave07 source=analysis_wb values=[1 3.14159]\n",
		"[WB] 2026-01-01 00:01:15 node=slave07 source=analysis_wb values=[NaN +Inf -Inf -0]\n",
		"[WB] 2026-01-01 00:01:15 node=slave07 source=analysis_wb values=[1e+21 1e-07 123457 0.000123457]\n",
		"[WB] 2026-01-01 00:01:15 node=slave07 source=analysis_wb values=[]\n",
		"[WB] 2026-01-01 00:01:16 node=slave07 source=analysis_wb values=[0 0.5] degraded=1\n",
		"[WB] 2026-01-01 05:31:16 node=slave07 source=analysis_wb values=[2]\n",
		"[WB] 0001-01-01 00:00:00 node=slave07 source=analysis_wb values=[]\n",
	} {
		if w.writes[i] != want {
			t.Errorf("row %d:\n got %q\nwant %q", i, w.writes[i], want)
		}
	}
	if m.printed != uint64(len(samples)) {
		t.Errorf("printed = %d, want %d", m.printed, len(samples))
	}
}

func TestPrintRowAllocatesNothing(t *testing.T) {
	m := &printModule{label: "BB"}
	origin := core.Origin{Node: "v0001", Source: "analysis_bb"}
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	s := core.Sample{Time: at, Values: []float64{1, 61.25}}
	m.writeRow(io.Discard, origin, s) // sizes the row buffer
	if allocs := testing.AllocsPerRun(200, func() {
		s.Time = s.Time.Add(time.Second)
		m.writeRow(io.Discard, origin, s)
	}); allocs != 0 {
		t.Errorf("writeRow allocates %v times per row, want 0", allocs)
	}
}

func BenchmarkPrintRow(b *testing.B) {
	m := &printModule{label: "WB"}
	origin := core.Origin{Node: "v0001", Source: "analysis_wb"}
	s := core.Sample{Time: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), Values: []float64{1, 3.14159265}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.writeRow(io.Discard, origin, s)
	}
}
