package modules

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/hadoopsim"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/sadc"
)

// runSadcFormCase collects from one loopback sadc daemon per simulated node,
// through per-node rpc sadc instances (which join the engine's collect
// phase) or through one multi-node instance, and returns the print sink's
// rows.
func runSadcFormCase(t *testing.T, perNode bool) []byte {
	t.Helper()
	const slaves, seed, ticks = 8, 4901, 30
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(slaves, seed))
	if err != nil {
		t.Fatal(err)
	}
	var names, addrs []string
	for _, n := range c.Slaves() {
		srv := rpc.NewServer(ServiceSadc)
		RegisterSadcServer(srv, n)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		names = append(names, n.Name)
		addrs = append(addrs, addr.String())
	}
	env := NewEnv()
	env.Clock = c.Now
	var rows bytes.Buffer
	env.AlarmWriter = &rows

	var b strings.Builder
	if perNode {
		for i := range names {
			fmt.Fprintf(&b, "[sadc]\nid = s%d\nnode = %s\nmode = rpc\naddr = %s\nperiod = 1\n\n", i, names[i], addrs[i])
		}
	} else {
		fmt.Fprintf(&b, "[sadc]\nid = cluster\nnodes = %s\nmode = rpc\naddrs = %s\nperiod = 1\n\n",
			strings.Join(names, ","), strings.Join(addrs, ","))
	}
	b.WriteString("[print]\nid = rows\nonly_nonzero = false\n")
	for i, n := range names {
		if perNode {
			fmt.Fprintf(&b, "input[m%d] = s%d.output0\n", i, i)
		} else {
			fmt.Fprintf(&b, "input[m%d] = cluster.%s\n", i, n)
		}
	}
	e := mustEngine(t, env, b.String())
	runSim(t, c, e, ticks)
	if err := e.Flush(c.Now()); err != nil {
		t.Fatal(err)
	}
	if got, want := bytes.Count(rows.Bytes(), []byte("\n")), slaves*(ticks-1); got != want {
		t.Fatalf("perNode=%v: %d rows, want %d (every tick but the warmup, every node)", perNode, got, want)
	}
	return rows.Bytes()
}

// TestPerNodeSadcMatchesMultiNode: per-node rpc sadc instances, whose round
// trips the collect phase overlaps, print exactly the rows of the one
// multi-node instance that sweeps the same daemons.
func TestPerNodeSadcMatchesMultiNode(t *testing.T) {
	multi := runSadcFormCase(t, false)
	perNode := runSadcFormCase(t, true)
	if !bytes.Equal(multi, perNode) {
		t.Errorf("per-node rows differ from the multi-node form's: %d bytes vs %d", len(perNode), len(multi))
	}
}

// countingCaller is a fake sadc daemon connection that counts calls in
// flight across every node; calls to a dead node fail.
type countingCaller struct {
	fleet *callCounts
	addr  string
}

type callCounts struct {
	running, peak atomic.Int64
	dead          string
	mu            sync.Mutex
	byAddr        map[string]int
}

func (c *countingCaller) Call(method string, _, result any) error {
	f := c.fleet
	now := f.running.Add(1)
	defer f.running.Add(-1)
	for old := f.peak.Load(); now > old && !f.peak.CompareAndSwap(old, now); old = f.peak.Load() {
	}
	f.mu.Lock()
	f.byAddr[c.addr]++
	f.mu.Unlock()
	time.Sleep(time.Millisecond)
	if c.addr == f.dead {
		return errors.New("connection refused")
	}
	if method != MethodSadcCollect {
		return fmt.Errorf("unexpected method %s", method)
	}
	rec := result.(recordJSON).rec
	rec.Node = make([]float64, len(sadc.NodeMetricNames))
	return nil
}

func (c *countingCaller) Close() error { return nil }

// countingEngine builds n per-node rpc sadc instances over countingCallers;
// extra is appended to the section of the node at deadIndex, whose daemon
// is down (-1: none).
func countingEngine(t *testing.T, n, deadIndex int, extra string) (*core.Engine, *callCounts) {
	t.Helper()
	counts := &callCounts{byAddr: make(map[string]int)}
	if deadIndex >= 0 {
		counts.dead = fmt.Sprintf("node%d:7401", deadIndex)
	}
	env := NewEnv()
	env.Dial = func(addr, _ string) (rpc.Caller, error) {
		return &countingCaller{fleet: counts, addr: addr}, nil
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "[sadc]\nid = s%d\nnode = node%d\nmode = rpc\naddr = node%d:7401\n", i, i, i)
		if i == deadIndex {
			b.WriteString(extra)
		}
		b.WriteString("\n")
	}
	b.WriteString("[print]\nid = rows\nonly_nonzero = false\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "input[m%d] = s%d.output0\n", i, i)
	}
	cfg, err := config.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(NewRegistry(env), cfg, core.WithErrorHandler(func(string, error) {}))
	if err != nil {
		t.Fatal(err)
	}
	return e, counts
}

// TestCollectPhaseOverlapsPerNodeSadc: a tick of 40 per-node rpc sadc
// instances has more than one daemon call in flight, and never more than
// the phase's cap.
func TestCollectPhaseOverlapsPerNodeSadc(t *testing.T) {
	const n, ticks = 40, 3
	e, counts := countingEngine(t, n, -1, "")
	start := time.Unix(1_700_000_000, 0)
	for i := 0; i < ticks; i++ {
		if err := e.Tick(start.Add(time.Duration(i) * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if p := counts.peak.Load(); p <= 1 || p > core.FanoutCap {
		t.Errorf("peak of %d calls in flight, want more than 1 and at most %d", p, core.FanoutCap)
	}
	for i := 0; i < n; i++ {
		if got := counts.byAddr[fmt.Sprintf("node%d:7401", i)]; got != ticks {
			t.Errorf("node%d called %d times, want %d", i, got, ticks)
		}
	}
}

// TestCollectPhaseNeverCallsQuarantinedNode: a node whose instance sets a
// quarantine threshold fetches inside Run, under its supervisor; once
// quarantined it is not called again through its cooldown, while the other
// nodes are collected every tick.
func TestCollectPhaseNeverCallsQuarantinedNode(t *testing.T) {
	const n, ticks = 6, 10
	e, counts := countingEngine(t, n, 2, "quarantine_threshold = 1\nquarantine_cooldown = 3600\n")
	start := time.Unix(1_700_000_000, 0)
	for i := 0; i < ticks; i++ {
		if err := e.Tick(start.Add(time.Duration(i) * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if h, _ := e.InstanceHealthOf("s2"); h.State != core.SupervisorQuarantined {
		t.Fatalf("s2 is %s, want quarantined", h.State)
	}
	for i := 0; i < n; i++ {
		want := ticks
		if i == 2 {
			want = 1
		}
		if got := counts.byAddr[fmt.Sprintf("node%d:7401", i)]; got != want {
			t.Errorf("node%d called %d times, want %d", i, got, want)
		}
	}
}
