// Package hierarchy defines the wire protocol between a root control node
// and its shard-leader processes (asdf-shardd).
//
// A single process sweeping the whole fleet plateaus because it owns every
// daemon connection and every analysis tick. The hierarchical topology
// splits the node range across processes: each leader runs the collection
// plane (managed per-daemon connections, bounded-pool sweeps, columnar wire)
// for a contiguous node-index range and serves merged per-tick partials
// upward;
// the root re-merges partials by node index, so sink output stays
// byte-identical to the single-process configuration.
//
// The leader→root hop reuses the existing RPC machinery both ways: a JSON
// sweep method (one request/response per tick, carrying per-node records
// plus leader accounting), and a columnar stream counterpart (one delta-
// encoded row per node per tick, one schema group per node) for wire =
// columnar roots — including the credit-windowed server-push subscription
// mode. This package holds only the protocol: method names, request and
// response shapes, node-range arithmetic, and the leader accounting struct.
// The leader implementation lives in internal/modules (reusing the modules'
// source stack and sweep); the binary is cmd/asdf-shardd.
package hierarchy

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ServiceLeader is the RPC service name an asdf-shardd leader announces in
// its hello.
const ServiceLeader = "asdf_shardd"

// RPC methods served by a leader.
const (
	// MethodSadcSweep runs one collection sweep over the leader's node
	// range and returns every node's record (JSON hop).
	MethodSadcSweep = "hier.sadc.sweep"
	// MethodLogSweep fetches newly finalized state vectors from every node
	// in the leader's range (JSON hop).
	MethodLogSweep = "hier.hlog.sweep"
	// MethodStatus returns the leader's accounting snapshot without
	// triggering a sweep.
	MethodStatus = "hier.status"
	// MethodSadcStream is the columnar counterpart of MethodSadcSweep: one
	// row per node per tick in a single narrow group whose leading
	// NodeIndexColumn column carries the node's offset within the range.
	// A node that failed this tick simply has no row.
	MethodSadcStream = "hier.sadc"
	// MethodLogStream is the columnar counterpart of MethodLogSweep: one
	// row per newly finalized per-second vector, tagged the same way; a
	// quiet tick is an empty frame.
	MethodLogStream = "hier.hlog"
)

// NodeIndexColumn is the leading column of every partial-stream row: the
// row's node offset within the leader's range. Keeping the node in a row
// column — rather than one schema group per node — keeps decoded rows
// O(metric width) regardless of range size.
const NodeIndexColumn = "__node_index"

// Range is a half-open node-index range [Start, End) delegated to one
// leader, in the root instance's node-list order.
type Range struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Len is the number of nodes in the range.
func (r Range) Len() int { return r.End - r.Start }

// Contains reports whether node index i falls in the range.
func (r Range) Contains(i int) bool { return i >= r.Start && i < r.End }

// String renders the range in the configuration syntax, e.g. "0-64".
func (r Range) String() string {
	return strconv.Itoa(r.Start) + "-" + strconv.Itoa(r.End)
}

// ParseRange parses one "start-end" half-open range.
func ParseRange(s string) (Range, error) {
	lo, hi, ok := strings.Cut(strings.TrimSpace(s), "-")
	if !ok {
		return Range{}, fmt.Errorf("hierarchy: range %q: want start-end", s)
	}
	start, err := strconv.Atoi(strings.TrimSpace(lo))
	if err != nil {
		return Range{}, fmt.Errorf("hierarchy: range %q: %v", s, err)
	}
	end, err := strconv.Atoi(strings.TrimSpace(hi))
	if err != nil {
		return Range{}, fmt.Errorf("hierarchy: range %q: %v", s, err)
	}
	r := Range{Start: start, End: end}
	if start < 0 || end <= start {
		return Range{}, fmt.Errorf("hierarchy: range %q: want 0 <= start < end", s)
	}
	return r, nil
}

// ParseRanges parses a comma-separated list of half-open ranges
// ("0-64,64-128") and rejects overlaps. Ranges need not cover every node:
// undelegated indexes stay with the caller. n bounds the valid index space;
// n < 0 skips the bound check (for callers that validate later).
func ParseRanges(s string, n int) ([]Range, error) {
	var out []Range
	for _, part := range strings.Split(s, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		r, err := ParseRange(part)
		if err != nil {
			return nil, err
		}
		if n >= 0 && r.End > n {
			return nil, fmt.Errorf("hierarchy: range %s exceeds %d nodes", r, n)
		}
		for _, prev := range out {
			if r.Start < prev.End && prev.Start < r.End {
				return nil, fmt.Errorf("hierarchy: ranges %s and %s overlap", prev, r)
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// Stats is a leader's cumulative accounting, piggybacked on every JSON
// sweep response and served on MethodStatus, so the root's operator surface
// can federate leader health without a second connection.
type Stats struct {
	// Nodes is the size of the leader's configured node range.
	Nodes int `json:"nodes"`
	// Sweeps counts completed sweeps since the leader booted. A root that
	// sees this regress knows the leader restarted.
	Sweeps uint64 `json:"sweeps"`
	// NodeErrors counts failed per-node fetches across all sweeps.
	NodeErrors uint64 `json:"node_errors"`
	// OpenBreakers is the current count of leader→daemon circuit breakers
	// standing open.
	OpenBreakers int `json:"open_breakers"`
}

// SadcRecord is one node's sweep result on the JSON hop. Exactly one of
// Node or Err is meaningful: a failed fetch ships its error string and no
// vector.
type SadcRecord struct {
	// Warmup marks a record still priming its rate baseline (first collect
	// after the daemon-side collector was created); the root skips it
	// exactly as it skips a direct warmup record.
	Warmup bool `json:"w,omitempty"`
	// Node is the 64-column node-level metric vector.
	Node []float64 `json:"n,omitempty"`
	// Err is the per-node fetch error, empty on success.
	Err string `json:"e,omitempty"`
}

// SadcSweepResponse is the MethodSadcSweep reply: one record per node in
// range order.
type SadcSweepResponse struct {
	Records []SadcRecord `json:"records"`
	Stats   Stats        `json:"stats"`
}

// LogVector is one finalized per-second state vector on the JSON hop.
type LogVector struct {
	Time   time.Time `json:"t"`
	Counts []float64 `json:"c"`
}

// LogNode is one node's sweep result on the JSON hop: its newly finalized
// vectors, or its fetch error.
type LogNode struct {
	Vectors []LogVector `json:"v,omitempty"`
	Err     string      `json:"e,omitempty"`
}

// LogSweepResponse is the MethodLogSweep reply: one entry per node in
// range order.
type LogSweepResponse struct {
	Nodes []LogNode `json:"nodes"`
	Stats Stats     `json:"stats"`
}

// StatusResponse is the MethodStatus reply.
type StatusResponse struct {
	// Name is the leader's configured name.
	Name string `json:"name"`
	// Sadc and Log carry the per-plane accounting; nil when the leader
	// does not run that plane.
	Sadc *Stats `json:"sadc,omitempty"`
	Log  *Stats `json:"hadoop_log,omitempty"`
}

// StreamRequest opens a columnar sweep stream (MethodSadcStream or
// MethodLogStream). Nodes echoes the root's node names for the leader's
// range so the schema the leader builds matches the root's expectation
// column for column; a mismatch with the leader's own configuration is an
// open-time error rather than silent misattribution.
type StreamRequest struct {
	Nodes []string `json:"nodes"`
}
