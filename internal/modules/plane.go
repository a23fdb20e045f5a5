package modules

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/hierarchy"
	"github.com/asdf-project/asdf/internal/rpc"
)

// collectPlane is what every sweeper of a node list shares — the sadc and
// hadoop_log modules on a root, and each plane of a shard leader: the nodes,
// their daemon connections, the width of the one bounded pool that fetches
// them, the leader links that delegated ranges go through, and the per-node
// outcome of the newest sweep. The typed per-node results and the sources
// that produce them stay with the embedding type, so no fetch is boxed.
type collectPlane struct {
	env     *Env
	id      string // instance id: the adaptive controller's and the leader links' key
	nodes   []string
	clients []rpc.Caller // rpc mode: parallel to nodes, nil where a leader owns the node; nil in local mode
	width   int          // fetches in flight during a sweep
	hier    *leaderSet   // delegated ranges (leaders =); nil without delegation
	errs    []error      // parallel to nodes
}

// resolveFanout turns a configured fanout (0 = default) into a concrete
// worker count for n nodes: min(core.FanoutCap, n) by default.
func resolveFanout(configured, n int) int {
	w := configured
	if w <= 0 {
		w = core.FanoutCap
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

func newCollectPlane(env *Env, id string, nodes []string, fanout int) collectPlane {
	return collectPlane{
		env:   env,
		id:    id,
		nodes: nodes,
		width: resolveFanout(fanout, len(nodes)),
		errs:  make([]error, len(nodes)),
	}
}

// dialNodes opens (lazily) the managed connection to each node's daemon and
// hands it to attach, which builds that node's source. Nodes flagged in
// delegated are skipped: a leader owns their connections. who prefixes
// configuration errors.
func (p *collectPlane) dialNodes(who, clientName string, addrs []string,
	rp config.ResilienceParams, delegated []bool, attach func(i int, client rpc.Caller) error) error {
	if len(addrs) != len(p.nodes) {
		return fmt.Errorf("%s: %d addrs for %d nodes", who, len(addrs), len(p.nodes))
	}
	p.clients = make([]rpc.Caller, len(addrs))
	for i, a := range addrs {
		if delegated != nil && delegated[i] {
			// The addrs entry is a "-" placeholder (a real address is tolerated
			// so a config can flip delegation on and off without edits).
			continue
		}
		if a == "-" {
			return fmt.Errorf("%s: addr %q for undelegated node %s", who, a, p.nodes[i])
		}
		client, err := p.env.dial(a, clientName, rp)
		if err != nil {
			return fmt.Errorf("%s[%s]: dial %s: %w", who, p.nodes[i], a, err)
		}
		p.clients[i] = client
		if err := attach(i, client); err != nil {
			return fmt.Errorf("%s[%s]: %w", who, p.nodes[i], err)
		}
	}
	return nil
}

// connect builds the rpc side of a root instance: the direct connections of
// dialNodes, plus the leader links of the ranges cp delegates. streamMethod
// and dims describe the partial stream a leader serves for this module.
func (p *collectPlane) connect(module, clientName string, cp collectParams, addrs []string,
	streamMethod string, dims int, attach func(i int, client rpc.Caller) error) error {
	delegated := markDelegated(len(p.nodes), cp.ranges)
	if err := p.dialNodes(module, clientName, addrs, cp.rp, delegated, attach); err != nil {
		return err
	}
	if len(cp.leaders) == 0 {
		return nil
	}
	var err error
	p.hier, err = newLeaderSet(p.env, p.id, p.nodes, cp.leaders, cp.ranges, cp.rp, cp.wp, streamMethod, dims)
	if err != nil {
		return fmt.Errorf("%s: %w", module, err)
	}
	return nil
}

// supervised lists every connection whose breaker the plane owns: the daemon
// clients, then the leader links.
func (p *collectPlane) supervised() []rpc.Caller {
	if p.hier == nil {
		return p.clients
	}
	return append(append([]rpc.Caller(nil), p.clients...), p.hier.callers...)
}

// breakers counts the open breakers among the supervised connections. A
// leader's counts once, even though it gates a whole range — deliberately
// conservative for what is derived from it (the adaptive quorum).
func (p *collectPlane) breakers() (open, total int) {
	open, total = countBreakers(p.clients)
	if p.hier != nil {
		ho, ht := countBreakers(p.hier.callers)
		open, total = open+ho, total+ht
	}
	return open, total
}

// nodeOutputs creates the per-node output ports of a multi-node instance,
// each named after its node.
func (p *collectPlane) nodeOutputs(ctx *core.InitContext, source, metric string) ([]*core.OutputPort, error) {
	outs := make([]*core.OutputPort, len(p.nodes))
	for i, n := range p.nodes {
		var err error
		if outs[i], err = ctx.NewOutput(n, core.Origin{Node: n, Source: source, Metric: metric}); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// sweep is one tick's collection on a root: fetch(i) for every node, at most
// width at a time, while delegated fetches the leaders' ranges. The two write
// disjoint node indexes of the caller's scratch, and the caller merges by
// node index afterwards, so output does not depend on completion order. The
// open-breaker count the sweep leaves behind feeds the adaptive controller.
func (p *collectPlane) sweep(fetch func(i int), delegated func(*leaderSet)) {
	var wg sync.WaitGroup
	if p.hier != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			delegated(p.hier)
		}()
	}
	core.FanOut(len(p.nodes), p.width, fetch)
	wg.Wait()
	p.observeBreakers()
}

// observeBreakers feeds the open-breaker count a sweep leaves behind to the
// adaptive controller (rpc mode only).
func (p *collectPlane) observeBreakers() {
	if p.clients != nil {
		open, total := p.breakers()
		p.env.Adaptive.ObserveBreakers(p.id, open, total)
	}
}

// ExportBreakerSnapshots snapshots per-node breaker state — leader
// connections included — for persistence (nil in local mode or with an
// unsupervised custom dialer).
func (p *collectPlane) ExportBreakerSnapshots() map[string]rpc.BreakerSnapshot {
	return exportBreakers(p.supervised())
}

// ImportBreakerSnapshots restores persisted breaker state, staggering
// re-probes of non-closed breakers through plan.
func (p *collectPlane) ImportBreakerSnapshots(snaps map[string]rpc.BreakerSnapshot, plan *rpc.ProbePlanner) int {
	return importBreakers(p.supervised(), snaps, plan)
}

// ClientHealths reports per-node connection health in rpc mode (nil in
// local mode or with an unsupervised custom dialer), keyed by node name;
// leader connections appear as "leader:<addr>" rows.
func (p *collectPlane) ClientHealths() map[string]rpc.Health {
	if p.clients == nil {
		return nil
	}
	out := make(map[string]rpc.Health, len(p.clients))
	for i, c := range p.clients {
		if h, ok := sourceHealth(c); ok {
			out[p.nodes[i]] = h
		}
	}
	if p.hier != nil {
		p.hier.healths(out)
	}
	return out
}

// LeaderStatuses reports per-leader delegation accounting; nil without
// delegated ranges.
func (p *collectPlane) LeaderStatuses() []LeaderStatus {
	if p.hier == nil {
		return nil
	}
	return p.hier.statuses()
}

// collectParams are the parameters sadc and hadoop_log read the same way.
type collectParams struct {
	period  time.Duration
	fanout  int
	mode    string
	rp      config.ResilienceParams
	wp      wireParams
	leaders []string          // leader addresses; empty without delegation
	ranges  []hierarchy.Range // parallel to leaders
}

// removedParam is a parameter an earlier version accepted, with what to do
// instead.
type removedParam struct{ name, instead string }

// rejectRemoved fails when cfg still sets one of removed. The config layer
// ignores parameters it does not know, so an instance that still set one
// would otherwise lose its setting in silence.
func rejectRemoved(cfg *config.Instance, module string, removed []removedParam) error {
	for _, r := range removed {
		if _, ok := cfg.Param(r.name); ok {
			return fmt.Errorf("%s: parameter %q was removed: %s", module, r.name, r.instead)
		}
	}
	return nil
}

// removedCollectParams are the collection parameters earlier versions
// accepted.
var removedCollectParams = []removedParam{
	{"shards", "set fanout = shards × shard_fanout"},
	{"shard_fanout", "set fanout = shards × shard_fanout"},
	{"batch", "set wire = columnar"},
}

// parseCollectParams reads the shared parameters of a collection instance
// over n nodes; module prefixes configuration errors.
func parseCollectParams(cfg *config.Instance, env *Env, module string, n int) (collectParams, error) {
	var cp collectParams
	if err := rejectRemoved(cfg, module, removedCollectParams); err != nil {
		return cp, err
	}
	var err error
	if cp.period, err = cfg.DurationParam("period", time.Second); err != nil {
		return cp, err
	}
	if cp.fanout, err = cfg.FanoutParam(); err != nil {
		return cp, err
	}
	if cp.rp, err = cfg.ResilienceParams(); err != nil {
		return cp, err
	}
	cp.mode = cfg.StringParam("mode", "local")
	if cp.mode != "local" && cp.mode != "rpc" {
		return cp, fmt.Errorf("%s: unknown mode %q", module, cp.mode)
	}
	if cp.wp, err = parseWireParams(cfg, env, module, cp.mode); err != nil {
		return cp, err
	}
	cp.leaders, cp.ranges, err = parseHierParams(cfg, module, cp.mode, n)
	return cp, err
}

// listParam reads a required comma-separated parameter.
func listParam(cfg *config.Instance, module, name string) ([]string, error) {
	v := cfg.StringParam(name, "")
	if v == "" {
		return nil, errMissingParam(module, name)
	}
	out := splitList(v)
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: parameter %q lists nothing", module, name)
	}
	return out, nil
}

// splitList splits a comma-separated parameter, dropping empties.
func splitList(v string) []string {
	var out []string
	for _, p := range strings.Split(v, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
