package modules

import (
	"fmt"
	"sync"
	"time"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/hierarchy"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/sadc"
	"github.com/asdf-project/asdf/internal/telemetry"
)

// The root side of the hierarchical collection plane: a multi-node
// collection instance can delegate contiguous node-index ranges to
// asdf-shardd leader processes via
//
//	leaders       = host1:port,host2:port
//	leader_ranges = 0-64,64-128
//
// Each leader sweeps its range locally and returns a merged per-tick
// partial; the root re-merges partials into the same per-node scratch the
// direct fetch path fills, by node index, so the publish loop — and
// therefore sink output — is byte-identical to the single-process
// configuration. Undelegated indexes keep their direct per-daemon
// connections (their addrs entries stay real; delegated entries are "-"),
// so one instance can mix direct and delegated ranges.
//
// The root→leader hop follows the instance's wire parameter: JSON sweeps
// (one request/response per tick) or the columnar stream counterpart —
// including subscribe mode — with the same permanent per-leader JSON
// fallback the per-daemon columnar sources use. Each leader connection is a
// managed client: a dead leader trips a breaker and surfaces per-tick
// errors for its whole range, so it degrades exactly like a dead node —
// feeding the same supervisor failure budget, quarantine, degrade gap-fill,
// and adaptive-controller observations — and its breaker state persists
// through -state-file like any daemon's.

// errNoPartial is the synthesized per-node error for a range index the
// leader's columnar partial carried no row for (the node failed at the
// leader; the JSON hop ships the real error string instead).
type errNoPartial struct {
	addr string
	node int
}

func (e *errNoPartial) Error() string {
	return fmt.Sprintf("leader %s: no record for node index %d this tick", e.addr, e.node)
}

// parseHierParams reads the leaders / leader_ranges parameters. Both are
// absent (nil result) or both present, parallel, with valid in-bounds
// non-overlapping ranges; delegation requires mode = rpc.
func parseHierParams(cfg *config.Instance, module, mode string, n int) ([]string, []hierarchy.Range, error) {
	addrs := splitList(cfg.StringParam("leaders", ""))
	rangesParam := cfg.StringParam("leader_ranges", "")
	if len(addrs) == 0 {
		if rangesParam != "" {
			return nil, nil, fmt.Errorf("%s: leader_ranges without leaders", module)
		}
		return nil, nil, nil
	}
	if mode != "rpc" {
		return nil, nil, fmt.Errorf("%s: leaders requires mode = rpc", module)
	}
	ranges, err := hierarchy.ParseRanges(rangesParam, n)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", module, err)
	}
	if len(ranges) != len(addrs) {
		return nil, nil, fmt.Errorf("%s: %d leaders for %d leader_ranges", module, len(addrs), len(ranges))
	}
	return addrs, ranges, nil
}

// markDelegated flips the delegated flag for every index covered by ranges.
func markDelegated(n int, ranges []hierarchy.Range) []bool {
	if len(ranges) == 0 {
		return nil
	}
	out := make([]bool, n)
	for _, r := range ranges {
		for i := r.Start; i < r.End; i++ {
			out[i] = true
		}
	}
	return out
}

// leaderLink is one leader connection: its delegated range, managed client,
// optional columnar stream, and accounting.
type leaderLink struct {
	addr   string
	rng    hierarchy.Range
	client rpc.Caller
	stream func() ([]rpc.StreamRow, error) // nil = JSON hop only
	width  int                             // columns per node on the stream

	mu       sync.Mutex
	fellBack bool // stream hop permanently fell back to JSON
	st       LeaderStatus

	mPartials *telemetry.Counter
	mErrors   *telemetry.Counter
	mRestarts *telemetry.Counter
}

// jsonHop reports whether this tick should use the JSON sweep method.
func (link *leaderLink) jsonHop() bool {
	if link.stream == nil {
		return true
	}
	link.mu.Lock()
	defer link.mu.Unlock()
	return link.fellBack
}

func (link *leaderLink) fallBack() {
	link.mu.Lock()
	link.fellBack = true
	link.mu.Unlock()
}

// account records one fetch outcome and refreshes the link's health-derived
// fields (connection health, observed leader restarts) plus any piggybacked
// leader stats.
func (link *leaderLink) account(err error, stats *hierarchy.Stats) {
	link.mu.Lock()
	defer link.mu.Unlock()
	if err != nil {
		link.st.Errors++
		link.mErrors.Inc()
	} else {
		link.st.Partials++
		link.mPartials.Inc()
	}
	if h, ok := sourceHealth(link.client); ok {
		link.st.Health = &h
		// Reconnects counts the first connect; anything past it means the
		// root re-established the leader connection — a leader restart,
		// from this side of the hop.
		if h.Reconnects > 1 {
			if r := h.Reconnects - 1; r > link.st.Restarts {
				link.mRestarts.Add(r - link.st.Restarts)
				link.st.Restarts = r
			}
		}
	}
	if stats != nil {
		link.st.LeaderSweeps = stats.Sweeps
		link.st.LeaderNodeErrors = stats.NodeErrors
		link.st.LeaderOpenBreakers = stats.OpenBreakers
	}
}

// leaderSet is a collection instance's delegation plane: every leader link
// plus the instance-level telemetry.
type leaderSet struct {
	links   []*leaderLink
	callers []rpc.Caller // the links' connections, parallel to links

	mConnected *telemetry.Gauge
	mMergeWait *telemetry.Histogram
}

// newLeaderSet dials every leader and, under wire = columnar, opens the
// range's partial stream (lazily; a leader that turns out not to speak the
// stream protocol falls back to the JSON sweep per link, permanently).
func newLeaderSet(env *Env, id string, nodes, addrs []string, ranges []hierarchy.Range,
	rp config.ResilienceParams, wp wireParams, streamMethod string, width int) (*leaderSet, error) {
	ls := &leaderSet{}
	if reg := env.Metrics; reg != nil {
		il := telemetry.L("instance", id)
		ls.mConnected = reg.Gauge("asdf_hier_leaders_connected",
			"Shard leaders with a live connection, by instance.", il)
		ls.mMergeWait = reg.Histogram("asdf_hier_merge_wait_seconds",
			"Gap between the first and last leader partial arriving in one tick.",
			telemetry.DefBuckets, il)
	}
	for i, addr := range addrs {
		client, err := env.dial(addr, "asdf-root", rp)
		if err != nil {
			return nil, fmt.Errorf("dial leader %s: %w", addr, err)
		}
		link := &leaderLink{
			addr:   addr,
			rng:    ranges[i],
			client: client,
			width:  width,
		}
		link.st = LeaderStatus{
			Addr:  addr,
			Range: ranges[i].String(),
			Nodes: ranges[i].Len(),
		}
		if wp.columnar {
			if so, ok := client.(streamOpener); ok {
				req := hierarchy.StreamRequest{Nodes: nodes[ranges[i].Start:ranges[i].End]}
				if link.stream, err = wp.open(so, streamMethod, req); err != nil {
					return nil, fmt.Errorf("leader %s: %w", addr, err)
				}
			}
		}
		if reg := env.Metrics; reg != nil {
			il := telemetry.L("instance", id)
			ll := telemetry.L("leader", addr)
			link.mPartials = reg.Counter("asdf_hier_partials_total",
				"Per-tick range partials merged from this leader.", il, ll)
			link.mErrors = reg.Counter("asdf_hier_sweep_errors_total",
				"Failed leader sweep fetches.", il, ll)
			link.mRestarts = reg.Counter("asdf_hier_leader_restarts_total",
				"Leader connection re-establishments after the first connect.", il, ll)
		}
		ls.links = append(ls.links, link)
		ls.callers = append(ls.callers, client)
	}
	return ls, nil
}

// healths reports per-leader connection health, keyed "leader:<addr>" so
// the rows land in the instance's breaker table beside its direct nodes.
func (ls *leaderSet) healths(out map[string]rpc.Health) {
	for _, link := range ls.links {
		if h, ok := sourceHealth(link.client); ok {
			out["leader:"+link.addr] = h
		}
	}
}

// statuses snapshots the per-leader accounting for the status surface.
func (ls *leaderSet) statuses() []LeaderStatus {
	out := make([]LeaderStatus, len(ls.links))
	for i, link := range ls.links {
		link.mu.Lock()
		st := link.st
		st.Wire = "json"
		if link.stream != nil && !link.fellBack {
			st.Wire = "columnar"
		}
		link.mu.Unlock()
		if h, ok := sourceHealth(link.client); ok {
			st.Health = &h
		}
		out[i] = st
	}
	return out
}

// fetch runs do against every link concurrently, accounts the outcomes, and
// observes the merge wait (the spread between the first and last partial)
// plus the connected gauge.
func (ls *leaderSet) fetch(do func(link *leaderLink) (*hierarchy.Stats, error)) {
	start := time.Now()
	done := make([]time.Duration, len(ls.links))
	var wg sync.WaitGroup
	wg.Add(len(ls.links))
	for i, link := range ls.links {
		go func(i int, link *leaderLink) {
			defer wg.Done()
			stats, err := do(link)
			done[i] = time.Since(start)
			link.account(err, stats)
		}(i, link)
	}
	wg.Wait()
	if len(ls.links) >= 2 {
		minDone, maxDone := done[0], done[0]
		for _, d := range done[1:] {
			if d < minDone {
				minDone = d
			}
			if d > maxDone {
				maxDone = d
			}
		}
		ls.mMergeWait.Observe((maxDone - minDone).Seconds())
	}
	connected := 0
	for _, link := range ls.links {
		if h, ok := sourceHealth(link.client); ok && h.Connected {
			connected++
		}
	}
	ls.mConnected.Set(float64(connected))
}

// sweepSadc fetches every delegated range's partial and merges it into the
// sadc module's per-node scratch. A failed leader fetch marks its whole
// range errored, so the publish loop skips it exactly as it skips dead
// direct nodes.
func (ls *leaderSet) sweepSadc(recs []*sadc.Record, errs []error) {
	ls.fetch(func(link *leaderLink) (*hierarchy.Stats, error) {
		stats, err := link.fetchSadc(recs, errs)
		if err != nil {
			for i := link.rng.Start; i < link.rng.End; i++ {
				recs[i], errs[i] = nil, fmt.Errorf("leader %s: %w", link.addr, err)
			}
		}
		return stats, err
	})
}

func (link *leaderLink) fetchSadc(recs []*sadc.Record, errs []error) (*hierarchy.Stats, error) {
	if !link.jsonHop() {
		rows, err := link.stream()
		switch {
		case err == nil:
			return nil, link.decodeSadcRows(rows, recs, errs)
		case rpc.IsStreamUnsupported(err):
			link.fallBack()
		default:
			return nil, err
		}
	}
	var resp hierarchy.SadcSweepResponse
	if err := link.client.Call(hierarchy.MethodSadcSweep, nil, &resp); err != nil {
		return nil, err
	}
	if len(resp.Records) != link.rng.Len() {
		return nil, fmt.Errorf("%d records for a %d-node range", len(resp.Records), link.rng.Len())
	}
	for j, r := range resp.Records {
		i := link.rng.Start + j
		if r.Err != "" {
			recs[i], errs[i] = nil, fmt.Errorf("leader %s: %s", link.addr, r.Err)
			continue
		}
		recs[i] = &sadc.Record{Warmup: r.Warmup, Node: r.Node}
		errs[i] = nil
	}
	stats := resp.Stats
	return &stats, nil
}

// decodeSadcRows merges a columnar partial: one row per node, tagged with
// its range offset in the leading node-index column. Indexes with no row
// get a synthesized error — the node failed at the leader.
func (link *leaderLink) decodeSadcRows(rows []rpc.StreamRow, recs []*sadc.Record, errs []error) error {
	n := link.rng.Len()
	seen := make([]bool, n)
	for _, row := range rows {
		gi, err := link.rowNode(row)
		if err != nil {
			return err
		}
		if seen[gi] {
			return fmt.Errorf("duplicate row for node index %d", link.rng.Start+gi)
		}
		seen[gi] = true
		i := link.rng.Start + gi
		recs[i] = &sadc.Record{
			Time:   time.Unix(0, row.TimeNanos).UTC(),
			Warmup: row.Warmup,
			Node:   append([]float64(nil), row.Values[1:]...),
		}
		errs[i] = nil
	}
	for gi, ok := range seen {
		if !ok {
			i := link.rng.Start + gi
			recs[i], errs[i] = nil, &errNoPartial{addr: link.addr, node: i}
		}
	}
	return nil
}

// sweepLog fetches every delegated range's log partial into the hadoop_log
// module's per-node scratch. Leader failure marks the range errored — which
// the sync stage treats as "no new vectors", the same as a dead node.
func (ls *leaderSet) sweepLog(fetched [][]hadooplog.StateVector, errs []error) {
	ls.fetch(func(link *leaderLink) (*hierarchy.Stats, error) {
		stats, err := link.fetchLog(fetched, errs)
		if err != nil {
			for i := link.rng.Start; i < link.rng.End; i++ {
				fetched[i], errs[i] = nil, fmt.Errorf("leader %s: %w", link.addr, err)
			}
		}
		return stats, err
	})
}

func (link *leaderLink) fetchLog(fetched [][]hadooplog.StateVector, errs []error) (*hierarchy.Stats, error) {
	if !link.jsonHop() {
		rows, err := link.stream()
		switch {
		case err == nil:
			return nil, link.decodeLogRows(rows, fetched, errs)
		case rpc.IsStreamUnsupported(err):
			link.fallBack()
		default:
			return nil, err
		}
	}
	var resp hierarchy.LogSweepResponse
	if err := link.client.Call(hierarchy.MethodLogSweep, nil, &resp); err != nil {
		return nil, err
	}
	if len(resp.Nodes) != link.rng.Len() {
		return nil, fmt.Errorf("%d nodes for a %d-node range", len(resp.Nodes), link.rng.Len())
	}
	for j, ln := range resp.Nodes {
		i := link.rng.Start + j
		if ln.Err != "" {
			fetched[i], errs[i] = nil, fmt.Errorf("leader %s: %s", link.addr, ln.Err)
			continue
		}
		errs[i] = nil
		if len(ln.Vectors) == 0 {
			fetched[i] = nil
			continue
		}
		vecs := make([]hadooplog.StateVector, len(ln.Vectors))
		for k, v := range ln.Vectors {
			vecs[k] = hadooplog.StateVector{Time: v.Time, Counts: v.Counts}
		}
		fetched[i] = vecs
	}
	stats := resp.Stats
	return &stats, nil
}

// decodeLogRows merges a columnar log partial: one row per finalized
// vector, tagged with its node offset, appended in frame order (the leader
// emits each node's vectors in time order). A node with no rows simply has
// no new vectors this tick — per-node fetch errors don't cross the columnar
// hop, and don't need to: the sync stage treats both identically.
func (link *leaderLink) decodeLogRows(rows []rpc.StreamRow, fetched [][]hadooplog.StateVector, errs []error) error {
	for i := link.rng.Start; i < link.rng.End; i++ {
		fetched[i], errs[i] = nil, nil
	}
	for _, row := range rows {
		gi, err := link.rowNode(row)
		if err != nil {
			return err
		}
		i := link.rng.Start + gi
		fetched[i] = append(fetched[i], hadooplog.StateVector{
			Time:   time.Unix(0, row.TimeNanos).UTC(),
			Counts: append([]float64(nil), row.Values[1:]...),
		})
	}
	return nil
}

// rowNode validates a partial row's shape and returns its node offset
// within the range, read from the leading node-index column.
func (link *leaderLink) rowNode(row rpc.StreamRow) (int, error) {
	if len(row.Present) != 1 || !row.Present[0] {
		return 0, fmt.Errorf("partial row has %d groups, want the 1 partial group present", len(row.Present))
	}
	if len(row.Values) != 1+link.width {
		return 0, fmt.Errorf("partial row has %d columns, want %d", len(row.Values), 1+link.width)
	}
	f := row.Values[0]
	gi := int(f)
	if float64(gi) != f || gi < 0 || gi >= link.rng.Len() {
		return 0, fmt.Errorf("partial row node index %v outside the %d-node range", f, link.rng.Len())
	}
	return gi, nil
}
