package main

import (
	"bytes"
	"strings"
	"time"
)

// sinkCapture is the alarm writer handed to the print sinks. Each Write is
// one whole row (print formats a line and writes it once). Rows go into one
// growing arena so that capturing a row costs no allocation of its own, and
// the write time of each row is kept for the verdict-age metric.
type sinkCapture struct {
	arena []byte
	ends  []int // end offset in arena of each row
	stamp bool
	at    []time.Time // write time of each row; only when stamp is set
}

func newSinkCapture(stamp bool) *sinkCapture {
	return &sinkCapture{
		arena: make([]byte, 0, 4<<20),
		ends:  make([]int, 0, 1<<16),
		stamp: stamp,
		at:    make([]time.Time, 0, 1<<16),
	}
}

func (c *sinkCapture) Write(p []byte) (int, error) {
	c.arena = append(c.arena, p...)
	c.ends = append(c.ends, len(c.arena))
	if c.stamp {
		c.at = append(c.at, time.Now())
	}
	return len(p), nil
}

// len reports the number of captured rows.
func (c *sinkCapture) len() int { return len(c.ends) }

// row returns row i without its trailing newline.
func (c *sinkCapture) row(i int) []byte {
	start := 0
	if i > 0 {
		start = c.ends[i-1]
	}
	return bytes.TrimSuffix(c.arena[start:c.ends[i]], []byte("\n"))
}

// rows returns every captured row as a string.
func (c *sinkCapture) rows() []string {
	out := make([]string, c.len())
	for i := range out {
		out[i] = string(c.row(i))
	}
	return out
}

// printTimeLayout is the timestamp layout of a print row:
// "[label] 2006-01-02 15:04:05 node=... source=... values=[...]".
const printTimeLayout = "2006-01-02 15:04:05"

// rowTime parses the window-end timestamp of a print row.
func rowTime(row []byte) (time.Time, bool) {
	i := bytes.Index(row, []byte("] "))
	if i < 0 || len(row) < i+2+len(printTimeLayout) {
		return time.Time{}, false
	}
	t, err := time.Parse(printTimeLayout, string(row[i+2:i+2+len(printTimeLayout)]))
	return t, err == nil
}

// rowKey is the part of a print row that identifies the verdict: label,
// timestamp and node. Everything after it is the verdict's content.
func rowKey(row string) string {
	if i := strings.Index(row, " source="); i >= 0 {
		return row[:i]
	}
	return row
}

// rowDiff counts how the system's sink output departs from the reference's.
type rowDiff struct {
	Reference int // rows the reference produced
	Missing   int // reference rows with no system row of the same key
	Extra     int // system rows with no reference row of the same key
	Differing int // same key, different bytes
	Degraded  int // system rows tagged degraded=1 (gap-fill substitutes)
}

// failed is the number of failed operations: every way a row can be wrong.
func (d rowDiff) failed() int { return d.Missing + d.Extra + d.Differing + d.Degraded }

// compareRows compares sink output byte for byte, row order aside: the
// reference and the system may emit the same verdict on different ticks. A
// key emitted more than once is matched occurrence by occurrence.
func compareRows(reference, system []string) rowDiff {
	d := rowDiff{Reference: len(reference)}
	want := make(map[string][]string, len(reference))
	for _, r := range reference {
		k := rowKey(r)
		want[k] = append(want[k], r)
	}
	for _, r := range system {
		degraded := strings.HasSuffix(r, " degraded=1")
		if degraded {
			d.Degraded++
		}
		k := rowKey(r)
		q := want[k]
		if len(q) == 0 {
			d.Extra++
			continue
		}
		// A degraded row is already counted once; do not count it again
		// as differing.
		if q[0] != r && !degraded {
			d.Differing++
		}
		want[k] = q[1:]
	}
	for _, q := range want {
		d.Missing += len(q)
	}
	return d
}
