package modules

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/asdf-project/asdf/internal/core"
)

// printModule writes received samples to the Env's alarm writer (§3.4: the
// paper's configuration terminates both pipelines in print instances named
// BlackBoxAlarm / DataNodeAlarm).
//
// Parameters:
//
//	label        = <prefix>      (default: the instance id)
//	only_nonzero = true|false    (default true: print a sample only when its
//	                              first value is nonzero — the alarm-flag
//	                              convention of the analysis modules, whose
//	                              samples are [flag, score])
//	counters     = true|false    (default false: at flush, also emit the
//	                              engine's supervisor/breaker/sync counters,
//	                              so the trace records collection-plane
//	                              degradation alongside the alarms it may
//	                              have caused)
//
// Gap-fill substitutes published for a quarantined upstream are tagged
// `degraded=1` so alarm lines raised on synthetic data are recognizable.
type printModule struct {
	env         *Env
	label       string
	onlyNonzero bool
	counters    bool
	// Printed counts emitted lines, for tests and overhead accounting.
	printed uint64

	// row is the reused line buffer.
	row []byte

	inputs  []*core.InputPort
	drained []core.Sample // reused ReadAppend buffer, cleared after each input
}

func (m *printModule) Init(ctx *core.InitContext) error {
	cfg := ctx.Config()
	m.label = cfg.StringParam("label", ctx.ID())
	var err error
	if m.onlyNonzero, err = cfg.BoolParam("only_nonzero", true); err != nil {
		return err
	}
	if m.counters, err = cfg.BoolParam("counters", false); err != nil {
		return err
	}
	if m.inputs = ctx.Inputs(); len(m.inputs) == 0 {
		return fmt.Errorf("print: requires at least one input")
	}
	return nil
}

func (m *printModule) Run(ctx *core.RunContext) error {
	w := m.env.alarmWriter()
	for _, in := range m.inputs {
		m.drained = in.ReadAppend(m.drained[:0])
		for _, s := range m.drained {
			if m.onlyNonzero && s.Scalar() == 0 {
				continue
			}
			m.writeRow(w, in.Origin(), s)
		}
		clear(m.drained)
	}
	if m.counters && ctx.Reason == core.RunFlush {
		m.printCounters(w, ctx)
	}
	return nil
}

// writeRow formats one sample as
//
//	[label] 2006-01-02 15:04:05 node=N source=S values=[v0 v1 ...][ degraded=1]
//
// and hands it to w in exactly one Write: consumers of the alarm stream
// (the benchmark's row capture among them) treat each Write as one row.
func (m *printModule) writeRow(w io.Writer, origin core.Origin, s core.Sample) {
	b := append(m.row[:0], '[')
	b = append(b, m.label...)
	b = append(b, "] "...)
	b = s.Time.AppendFormat(b, "2006-01-02 15:04:05")
	b = append(b, " node="...)
	b = append(b, origin.Node...)
	b = append(b, " source="...)
	b = append(b, origin.Source...)
	b = append(b, " values=["...)
	for i, v := range s.Values {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendFloat(b, v, 'g', 6, 64)
	}
	b = append(b, ']')
	if s.Degraded {
		b = append(b, " degraded=1"...)
	}
	m.row = append(b, '\n')
	_, _ = w.Write(m.row) // a failing alarm writer must not stop the pipeline
	m.printed++
}

// printCounters emits one line per instance with its supervisor counters,
// plus sync and per-node breaker lines for the collection modules.
func (m *printModule) printCounters(w io.Writer, ctx *core.RunContext) {
	rep := CollectStatus(ctx, ctx.Now)
	for _, ih := range rep.Instances {
		fmt.Fprintf(w, "[%s] counters instance=%s state=%s failures=%d panics=%d timeouts=%d errors=%d quarantines=%d readmissions=%d gapfills=%d\n",
			m.label, ih.ID, ih.State, ih.TotalFailures, ih.Panics, ih.Timeouts,
			ih.Errors, ih.Quarantines, ih.Readmissions, ih.GapFills)
	}
	for _, id := range sortedKeys(rep.Sync) {
		sc := rep.Sync[id]
		fmt.Fprintf(w, "[%s] counters instance=%s sync partial=%d dropped=%d missing=%s\n",
			m.label, id, sc.Partial, sc.Dropped, formatNodeCounts(sc.MissingByNode))
	}
	for _, id := range sortedKeys(rep.Breakers) {
		nodes := rep.Breakers[id]
		for _, node := range sortedKeys(nodes) {
			h := nodes[node]
			fmt.Fprintf(w, "[%s] counters instance=%s breaker node=%s state=%s failures=%d reconnects=%d\n",
				m.label, id, node, h.State, h.TotalFailures, h.Reconnects)
		}
	}
}

// sortedKeys returns a map's keys in sorted order, for deterministic
// counter output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatNodeCounts renders per-node counters as node:count,... in node
// order ("-" when empty).
func formatNodeCounts(m map[string]uint64) string {
	if len(m) == 0 {
		return "-"
	}
	parts := make([]string, 0, len(m))
	for _, k := range sortedKeys(m) {
		parts = append(parts, fmt.Sprintf("%s:%d", k, m[k]))
	}
	return strings.Join(parts, ",")
}

var _ core.Module = (*printModule)(nil)

// csvModule logs every received sample to a CSV file, supporting ASDF's
// offline data-collection role (§2.1: "effectively turning itself into a
// data-collection and data-logging engine").
//
// Parameters:
//
//	path     = <file>        (required)
//	counters = true|false    (default false: at flush, also write the
//	                          engine's supervisor/breaker/sync counters as
//	                          rows with source=asdf_counters, so the trace
//	                          records collection-plane degradation alongside
//	                          the data it may have affected)
//
// The values column of a gap-fill substitute row ends in ";degraded".
type csvModule struct {
	file     *os.File
	w        *bufio.Writer
	counters bool
	rows     uint64

	inputs  []*core.InputPort
	drained []core.Sample // reused ReadAppend buffer, cleared after each input
}

func (m *csvModule) Init(ctx *core.InitContext) error {
	path := ctx.Config().StringParam("path", "")
	if path == "" {
		return errMissingParam("csv", "path")
	}
	var err error
	if m.counters, err = ctx.Config().BoolParam("counters", false); err != nil {
		return err
	}
	if m.inputs = ctx.Inputs(); len(m.inputs) == 0 {
		return fmt.Errorf("csv: requires at least one input")
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("csv: %w", err)
	}
	m.file = f
	m.w = bufio.NewWriter(f)
	if _, err := m.w.WriteString("time,node,source,output,values\n"); err != nil {
		return fmt.Errorf("csv: %w", err)
	}
	return nil
}

func (m *csvModule) Run(ctx *core.RunContext) error {
	for _, in := range m.inputs {
		m.drained = in.ReadAppend(m.drained[:0])
		for _, s := range m.drained {
			origin := in.Origin()
			vals := make([]string, len(s.Values), len(s.Values)+1)
			for i, v := range s.Values {
				vals[i] = strconv.FormatFloat(v, 'g', -1, 64)
			}
			if s.Degraded {
				vals = append(vals, "degraded")
			}
			_, err := fmt.Fprintf(m.w, "%s,%s,%s,%s,%s\n",
				s.Time.Format("2006-01-02T15:04:05"),
				origin.Node, origin.Source, in.SourceOutput(),
				strings.Join(vals, ";"))
			if err != nil {
				clear(m.drained)
				return fmt.Errorf("csv: %w", err)
			}
			m.rows++
		}
		clear(m.drained)
	}
	if m.counters && ctx.Reason == core.RunFlush {
		if err := m.writeCounters(ctx); err != nil {
			return err
		}
	}
	if ctx.Reason == core.RunFlush {
		if err := m.w.Flush(); err != nil {
			return fmt.Errorf("csv: flush: %w", err)
		}
		if err := m.file.Sync(); err != nil {
			return fmt.Errorf("csv: sync: %w", err)
		}
	}
	return nil
}

// writeCounters appends the engine's health counters as CSV rows keyed by
// source=asdf_counters: supervisor state/failure counters per instance,
// sync counters per synchronizing collector, and per-node breaker state.
// The schema matches the data rows: time,node,source,output,values, with
// node carrying the instance id (suffixed :node for breaker rows).
func (m *csvModule) writeCounters(ctx *core.RunContext) error {
	rep := CollectStatus(ctx, ctx.Now)
	ts := ctx.Now.Format("2006-01-02T15:04:05")
	row := func(node, output string, vals ...uint64) error {
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = strconv.FormatUint(v, 10)
		}
		_, err := fmt.Fprintf(m.w, "%s,%s,asdf_counters,%s,%s\n",
			ts, node, output, strings.Join(parts, ";"))
		if err != nil {
			return fmt.Errorf("csv: %w", err)
		}
		m.rows++
		return nil
	}
	for _, ih := range rep.Instances {
		if err := row(ih.ID, "supervisor_"+ih.State.String(),
			ih.TotalFailures, ih.Panics, ih.Timeouts, ih.Errors,
			ih.Quarantines, ih.Readmissions, ih.GapFills); err != nil {
			return err
		}
	}
	for _, id := range sortedKeys(rep.Sync) {
		sc := rep.Sync[id]
		if err := row(id, "sync", sc.Partial, sc.Dropped); err != nil {
			return err
		}
		for _, node := range sortedKeys(sc.MissingByNode) {
			if err := row(id+":"+node, "sync_missing", sc.MissingByNode[node]); err != nil {
				return err
			}
		}
	}
	for _, id := range sortedKeys(rep.Breakers) {
		nodes := rep.Breakers[id]
		for _, node := range sortedKeys(nodes) {
			h := nodes[node]
			if err := row(id+":"+node, "breaker_"+h.State.String(),
				h.TotalFailures, h.Reconnects); err != nil {
				return err
			}
		}
	}
	return nil
}

var _ core.Module = (*csvModule)(nil)
