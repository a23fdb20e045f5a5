// Command asdf-status is a watch-style operator console for a running asdf
// control node: it polls the status surface at an interval and renders a
// refreshing per-instance / per-node table — supervisor state, breaker
// state, sync counters — with deltas since the previous poll, so a degrading
// deployment is visible as it degrades rather than at the next post-mortem.
//
// The snapshot comes from either the HTTP endpoint (GET /status on the
// address given to asdf -status-addr) or the native status RPC
// (-status-rpc-addr); the RPC path runs over a supervised ManagedClient, so
// a control node restart shows up as a few failed polls, not a dead console.
//
// Usage:
//
//	asdf-status -addr 127.0.0.1:7070              # watch over HTTP, 2s
//	asdf-status -rpc-addr 127.0.0.1:7071 -interval 1s
//	asdf-status -addr 127.0.0.1:7070 -once        # one snapshot, exit
//	asdf-status -addr 127.0.0.1:7070 -json -once  # machine-readable
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/modules"
	"github.com/asdf-project/asdf/internal/rpc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("asdf-status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	httpAddr := fs.String("addr", "", "control-node status HTTP address (the asdf -status-addr value)")
	rpcAddr := fs.String("rpc-addr", "", "control-node status RPC address (the asdf -status-rpc-addr value)")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	once := fs.Bool("once", false, "fetch and render a single snapshot, then exit")
	asJSON := fs.Bool("json", false, "emit each snapshot as one line of JSON (for scripting)")
	noClear := fs.Bool("no-clear", false, "append refreshes instead of clearing the screen")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*httpAddr == "") == (*rpcAddr == "") {
		fmt.Fprintln(stderr, "asdf-status: exactly one of -addr or -rpc-addr is required (see -h)")
		return 2
	}
	if *interval <= 0 {
		fmt.Fprintln(stderr, "asdf-status: -interval must be positive")
		return 2
	}

	var fetch func() (modules.StatusReport, error)
	if *httpAddr != "" {
		base := "http://" + *httpAddr
		client := &http.Client{Timeout: 10 * time.Second}
		fetch = func() (modules.StatusReport, error) { return fetchHTTP(client, base) }
	} else {
		// The managed client reconnects with backoff across control-node
		// restarts, exactly like the collection plane's node connections.
		mc := rpc.NewManagedClient(*rpcAddr, "asdf-status", rpc.Options{CallTimeout: 10 * time.Second})
		defer func() { _ = mc.Close() }()
		fetch = func() (modules.StatusReport, error) {
			var rep modules.StatusReport
			err := mc.Call(modules.MethodStatus, nil, &rep)
			return rep, err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var prev *modules.StatusReport
	for {
		rep, err := fetch()
		switch {
		case err != nil && *once:
			fmt.Fprintf(stderr, "asdf-status: %v\n", err)
			return 1
		case err != nil:
			fmt.Fprintf(stderr, "asdf-status: %v\n", err)
		case *asJSON:
			line, jerr := json.Marshal(rep)
			if jerr != nil {
				fmt.Fprintf(stderr, "asdf-status: encode: %v\n", jerr)
				return 1
			}
			fmt.Fprintln(stdout, string(line))
			prev = &rep
		default:
			if !*once && !*noClear {
				fmt.Fprint(stdout, "\x1b[H\x1b[2J") // cursor home + clear
			}
			render(stdout, rep, prev, *interval)
			prev = &rep
		}
		if *once {
			return 0
		}
		select {
		case <-ctx.Done():
			return 0
		case <-time.After(*interval):
		}
	}
}

// fetchHTTP reads one /status snapshot.
func fetchHTTP(client *http.Client, base string) (modules.StatusReport, error) {
	var rep modules.StatusReport
	resp, err := client.Get(base + "/status")
	if err != nil {
		return rep, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("GET /status: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return rep, fmt.Errorf("GET /status: bad JSON: %w", err)
	}
	return rep, nil
}

// delta renders "cur" or "cur(+d)" against the previous poll's value.
func delta(cur, prevVal uint64, havePrev bool) string {
	if !havePrev || cur == prevVal {
		return fmt.Sprintf("%d", cur)
	}
	// Counters only move up; a smaller value means the control node
	// restarted, worth flagging as such.
	if cur < prevVal {
		return fmt.Sprintf("%d(reset)", cur)
	}
	return fmt.Sprintf("%d(+%d)", cur, cur-prevVal)
}

// render writes the full console: header, per-instance supervisor table,
// per-node breaker table, and sync counters, with deltas against prev.
func render(w io.Writer, rep modules.StatusReport, prev *modules.StatusReport, interval time.Duration) {
	health := "HEALTHY"
	if !rep.Healthy {
		health = "DEGRADED"
	}
	fmt.Fprintf(w, "asdf-status — %s  %s  (every %s; Δ since last poll)\n\n",
		rep.Time.Format(time.RFC3339), health, interval)

	// A control node running with -state-file reports its crash-safe layer:
	// snapshot freshness, how many restores this state file has seen, and
	// the newest replay watermark (the publish frontier a restart resumes
	// from).
	if rs := rep.Restart; rs != nil {
		age := "-"
		if !rs.LastSnapshotAt.IsZero() {
			age = rep.Time.Sub(rs.LastSnapshotAt).Truncate(time.Millisecond).String()
		}
		wm := "-"
		var newest time.Time
		for _, t := range rs.ReplayWatermarks {
			if t.After(newest) {
				newest = t
			}
		}
		if !newest.IsZero() {
			wm = newest.UTC().Format(time.RFC3339)
		}
		flags := ""
		if rs.LockReclaimed {
			flags += "  lock-reclaimed"
		}
		if rs.SnapshotQuarantined {
			flags += "  snapshot-quarantined"
		}
		if rs.WriteErrors > 0 {
			flags += fmt.Sprintf("  write-errors=%d", rs.WriteErrors)
		}
		fmt.Fprintf(w, "RESTART  restarts=%d  snapshots=%d  snapshot-age=%s  watermark=%s%s\n\n",
			rs.Restarts, rs.SnapshotsWritten, age, wm, flags)
	}

	prevInst := map[string]core.InstanceHealth{}
	if prev != nil {
		for _, ih := range prev.Instances {
			prevInst[ih.ID] = ih
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "INSTANCE\tSTATE\tFAILS\tPANICS\tTIMEOUTS\tERRORS\tQUAR\tREADMIT\tGAPFILL\tLAST FAILURE")
	for _, ih := range rep.Instances {
		prevIH, havePrev := prevInst[ih.ID]
		failsPrev, quarPrev := prevIH.TotalFailures, prevIH.Quarantines
		state := ih.State.String()
		if ih.Wedged {
			state += "+wedged"
		}
		last := ih.LastFailure
		if last == "" {
			last = "-"
		} else if len(last) > 48 {
			last = last[:45] + "..."
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%s\t%d\t%d\t%s\n",
			ih.ID, state,
			delta(ih.TotalFailures, failsPrev, havePrev),
			ih.Panics, ih.Timeouts, ih.Errors,
			delta(ih.Quarantines, quarPrev, havePrev),
			ih.Readmissions, ih.GapFills, last)
	}
	_ = tw.Flush()

	if len(rep.Breakers) > 0 {
		fmt.Fprintln(w, "\nBREAKERS")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "INSTANCE\tNODE\tADDR\tSTATE\tCONNECTED\tSENT B\tRECV B\tFAILS\tRECONNECTS\tLAST ERROR")
		for _, inst := range sortedKeys(rep.Breakers) {
			nodes := rep.Breakers[inst]
			for _, node := range sortedKeys(nodes) {
				h := nodes[node]
				var failsPrev, sentPrev, recvPrev uint64
				havePrev := false
				if prev != nil {
					if ph, ok := prev.Breakers[inst][node]; ok {
						failsPrev = ph.TotalFailures
						sentPrev, recvPrev = ph.BytesSent, ph.BytesReceived
						havePrev = true
					}
				}
				last := h.LastError
				if last == "" {
					last = "-"
				} else if len(last) > 40 {
					last = last[:37] + "..."
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%v\t%s\t%s\t%s\t%d\t%s\n",
					inst, node, h.Addr, h.State, h.Connected,
					delta(h.BytesSent, sentPrev, havePrev),
					delta(h.BytesReceived, recvPrev, havePrev),
					delta(h.TotalFailures, failsPrev, havePrev), h.Reconnects, last)
			}
		}
		_ = tw.Flush()
	}

	if len(rep.Leaders) > 0 {
		fmt.Fprintln(w, "\nLEADERS")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "INSTANCE\tLEADER\tRANGE\tNODES\tWIRE\tCONNECTED\tPARTIALS\tERRORS\tRECONN\tLDR SWEEPS\tLDR ERRS\tLDR BRK")
		for _, inst := range sortedKeys(rep.Leaders) {
			for _, ls := range rep.Leaders[inst] {
				var partialsPrev, errsPrev uint64
				havePrev := false
				if prev != nil {
					for _, ps := range prev.Leaders[inst] {
						if ps.Addr == ls.Addr {
							partialsPrev, errsPrev = ps.Partials, ps.Errors
							havePrev = true
							break
						}
					}
				}
				connected := "-"
				if ls.Health != nil {
					connected = fmt.Sprintf("%v", ls.Health.Connected)
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\t%s\t%s\t%s\t%d\t%d\t%d\t%d\n",
					inst, ls.Addr, ls.Range, ls.Nodes, ls.Wire, connected,
					delta(ls.Partials, partialsPrev, havePrev),
					delta(ls.Errors, errsPrev, havePrev),
					ls.Restarts, ls.LeaderSweeps, ls.LeaderNodeErrors, ls.LeaderOpenBreakers)
			}
		}
		_ = tw.Flush()
	}

	if len(rep.Ibuffer) > 0 {
		fmt.Fprintln(w, "\nIBUFFER")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "INSTANCE\tSIZE\tFORWARDED\tDROPPED")
		for _, inst := range sortedKeys(rep.Ibuffer) {
			ib := rep.Ibuffer[inst]
			var fwdPrev, droppedPrev uint64
			havePrev := false
			if prev != nil {
				if pb, ok := prev.Ibuffer[inst]; ok {
					fwdPrev, droppedPrev = pb.Forwarded, pb.Dropped
					havePrev = true
				}
			}
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\n", inst, ib.Size,
				delta(ib.Forwarded, fwdPrev, havePrev),
				delta(ib.Dropped, droppedPrev, havePrev))
		}
		_ = tw.Flush()
	}

	if len(rep.Sync) > 0 {
		fmt.Fprintln(w, "\nSYNC")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "INSTANCE\tPARTIAL\tDROPPED\tMISSING BY NODE")
		for _, inst := range sortedKeys(rep.Sync) {
			s := rep.Sync[inst]
			partialPrev, droppedPrev := uint64(0), uint64(0)
			havePrev := false
			if prev != nil {
				if ps, ok := prev.Sync[inst]; ok {
					partialPrev, droppedPrev = ps.Partial, ps.Dropped
					havePrev = true
				}
			}
			var missing []string
			for _, n := range sortedKeys(s.MissingByNode) {
				if v := s.MissingByNode[n]; v > 0 {
					missing = append(missing, fmt.Sprintf("%s:%d", n, v))
				}
			}
			miss := "-"
			if len(missing) > 0 {
				miss = strings.Join(missing, " ")
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", inst,
				delta(s.Partial, partialPrev, havePrev),
				delta(s.Dropped, droppedPrev, havePrev), miss)
		}
		_ = tw.Flush()
	}
}

// sortedKeys returns m's keys in lexical order, keeping the table layout
// stable across refreshes.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
