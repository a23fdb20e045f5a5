package modules

import (
	"time"

	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/state"
)

// Both rpc-mode collectors implement the full crash-safe state surface: the
// breaker half through the collectPlane they embed (as a leader's planes do),
// the replay guard each in its own terms.
var (
	_ state.BreakerExporter = (*collectPlane)(nil)
	_ state.BreakerImporter = (*collectPlane)(nil)
	_ state.ReplayGuard     = (*sadcModule)(nil)
	_ state.ReplayGuard     = (*hadoopLogModule)(nil)
)

// Crash-safe restart plumbing for the rpc-mode collection modules: exporting
// and re-importing per-node circuit-breaker state across a control-node
// restart (matched by daemon address), and counting open breakers to feed
// the adaptive degradation controller. The interfaces are structural so a
// custom Dial hook returning an unsupervised client simply opts out.

// breakerExporter / breakerImporter are implemented by rpc.ManagedClient.
type breakerExporter interface {
	ExportBreaker() rpc.BreakerSnapshot
}

type breakerImporter interface {
	ImportBreaker(s rpc.BreakerSnapshot, probeAt time.Time)
}

// exportBreakers snapshots every supervised client's breaker, keyed by
// daemon address; nil when no client is supervised (local mode or a custom
// dialer).
func exportBreakers(clients []rpc.Caller) map[string]rpc.BreakerSnapshot {
	var out map[string]rpc.BreakerSnapshot
	for _, c := range clients {
		be, ok := c.(breakerExporter)
		if !ok {
			continue
		}
		s := be.ExportBreaker()
		if out == nil {
			out = make(map[string]rpc.BreakerSnapshot, len(clients))
		}
		out[s.Addr] = s
	}
	return out
}

// importBreakers restores persisted breaker state into this module's
// supervised clients, matched by daemon address. Non-closed breakers reload
// as open with a re-probe time drawn from the planner, so a restarted
// control node staggers its probes of known-dead daemons instead of dialing
// them all on the first tick. Returns how many clients were restored.
func importBreakers(clients []rpc.Caller, snaps map[string]rpc.BreakerSnapshot, plan *rpc.ProbePlanner) int {
	if len(snaps) == 0 {
		return 0
	}
	n := 0
	for _, c := range clients {
		bi, ok := c.(breakerImporter)
		if !ok {
			continue
		}
		h, ok := sourceHealth(c)
		if !ok {
			continue
		}
		s, ok := snaps[h.Addr]
		if !ok {
			continue
		}
		var probeAt time.Time
		if s.State != rpc.BreakerClosed && plan != nil {
			probeAt = plan.Next()
		}
		bi.ImportBreaker(s, probeAt)
		n++
	}
	return n
}

// countBreakers reports how many of the module's supervised connections
// have an open breaker, out of how many supervised connections total.
func countBreakers(clients []rpc.Caller) (open, total int) {
	for _, c := range clients {
		h, ok := sourceHealth(c)
		if !ok {
			continue
		}
		total++
		if h.State == rpc.BreakerOpen {
			open++
		}
	}
	return open, total
}
