package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/modules"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/state"
)

func sampleReport() modules.StatusReport {
	return modules.StatusReport{
		Time:    time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		Healthy: false,
		Instances: []core.InstanceHealth{
			{
				ID:            "collector",
				State:         core.SupervisorQuarantined,
				TotalFailures: 7,
				Errors:        5,
				Timeouts:      2,
				Quarantines:   1,
				LastFailure:   "dial tcp: connection refused",
			},
			{ID: "sink", State: core.SupervisorHealthy},
		},
		Breakers: map[string]map[string]rpc.Health{
			"collector": {
				"node1": {
					Addr:          "node1:9999",
					State:         rpc.BreakerOpen,
					TotalFailures: 7,
					Reconnects:    1,
					BytesSent:     5000,
					BytesReceived: 62000,
					LastError:     "connection refused",
				},
			},
		},
		Leaders: map[string][]modules.LeaderStatus{
			"collector": {
				{Addr: "10.0.0.9:7411", Range: "0-64", Nodes: 64, Wire: "columnar",
					Health:   &rpc.Health{Addr: "10.0.0.9:7411", Connected: true},
					Partials: 40, Errors: 2, Restarts: 1,
					LeaderSweeps: 40, LeaderNodeErrors: 3, LeaderOpenBreakers: 1},
			},
		},
		Ibuffer: map[string]modules.IbufferStatus{
			"buf0": {Size: 10, Dropped: 17, Forwarded: 523},
		},
		Sync: map[string]modules.SyncStatus{
			"logs": {
				Partial: 3,
				Dropped: 1,
				MissingByNode: map[string]uint64{
					"node1": 3,
					"node2": 0,
				},
			},
		},
	}
}

func TestRenderTables(t *testing.T) {
	var buf bytes.Buffer
	render(&buf, sampleReport(), nil, 2*time.Second)
	out := buf.String()
	for _, want := range []string{
		"DEGRADED",
		"collector", "quarantined", "dial tcp: connection refused",
		"sink", "healthy",
		"BREAKERS", "node1:9999", "open", "SENT B", "62000",
		"LEADERS", "10.0.0.9:7411", "0-64", "columnar",
		"IBUFFER", "buf0", "523", "17",
		"SYNC", "logs", "node1:3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "node2:") {
		t.Errorf("render shows zero missing counter:\n%s", out)
	}
	if strings.Contains(out, "SHARDS") {
		t.Errorf("render still has a SHARDS table:\n%s", out)
	}
}

func TestRenderRestartLine(t *testing.T) {
	rep := sampleReport()
	var buf bytes.Buffer
	render(&buf, rep, nil, time.Second)
	if strings.Contains(buf.String(), "RESTART") {
		t.Errorf("RESTART line shown without a state file:\n%s", buf.String())
	}

	rep.Restart = &state.RestartStatus{
		Path:             "/var/lib/asdf/state",
		Restarts:         2,
		SnapshotsWritten: 41,
		LastSnapshotAt:   rep.Time.Add(-1500 * time.Millisecond),
		ReplayWatermarks: map[string]time.Time{
			"collector": time.Date(2026, 1, 2, 3, 3, 50, 0, time.UTC),
			"logs":      time.Date(2026, 1, 2, 3, 4, 1, 0, time.UTC),
		},
		LockReclaimed: true,
	}
	buf.Reset()
	render(&buf, rep, nil, time.Second)
	out := buf.String()
	for _, want := range []string{
		"RESTART",
		"restarts=2",
		"snapshots=41",
		"snapshot-age=1.5s",
		"watermark=2026-01-02T03:04:01Z", // the newest collector watermark
		"lock-reclaimed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderDeltas(t *testing.T) {
	prev := sampleReport()
	cur := sampleReport()
	cur.Instances[0].TotalFailures = 12 // +5 over prev's 7
	cur.Breakers["collector"]["node1"] = func() rpc.Health {
		h := cur.Breakers["collector"]["node1"]
		h.TotalFailures = 9     // +2
		h.BytesSent = 5400      // +400
		h.BytesReceived = 62900 // +900: the per-poll wire cost of this node
		return h
	}()
	cur.Sync["logs"] = modules.SyncStatus{Partial: 3, Dropped: 4}                      // dropped +3
	cur.Ibuffer["buf0"] = modules.IbufferStatus{Size: 10, Dropped: 22, Forwarded: 523} // dropped +5
	cur.Leaders["collector"][0].Partials = 46                                          // +6 over prev's 40

	var buf bytes.Buffer
	render(&buf, cur, &prev, time.Second)
	out := buf.String()
	for _, want := range []string{"12(+5)", "9(+2)", "4(+3)", "5400(+400)", "62900(+900)", "46(+6)", "22(+5)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing delta %q:\n%s", want, out)
		}
	}
	// Unchanged counters render without a delta suffix.
	if strings.Contains(out, "1(+") || strings.Contains(out, "3(+") {
		t.Errorf("render shows a delta for an unchanged counter:\n%s", out)
	}
}

func TestDelta(t *testing.T) {
	for _, tc := range []struct {
		cur, prev uint64
		havePrev  bool
		want      string
	}{
		{5, 0, false, "5"},
		{5, 5, true, "5"},
		{8, 5, true, "8(+3)"},
		{2, 5, true, "2(reset)"},
	} {
		if got := delta(tc.cur, tc.prev, tc.havePrev); got != tc.want {
			t.Errorf("delta(%d, %d, %v) = %q, want %q", tc.cur, tc.prev, tc.havePrev, got, tc.want)
		}
	}
}

func TestFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no addr: exit = %d, want 2", code)
	}
	if code := run([]string{"-addr", "a:1", "-rpc-addr", "b:2"}, &out, &errb); code != 2 {
		t.Errorf("both addrs: exit = %d, want 2", code)
	}
	if code := run([]string{"-addr", "a:1", "-interval", "-1s"}, &out, &errb); code != 2 {
		t.Errorf("negative interval: exit = %d, want 2", code)
	}
	if code := run([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
}

func TestOnceHTTP(t *testing.T) {
	rep := sampleReport()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/status" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(rep)
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	var out, errb bytes.Buffer
	if code := run([]string{"-addr", addr, "-once"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "collector") || !strings.Contains(out.String(), "DEGRADED") {
		t.Errorf("once output missing table content:\n%s", out.String())
	}
	// Single snapshots never clear the screen.
	if strings.Contains(out.String(), "\x1b[") {
		t.Errorf("-once output contains ANSI escapes:\n%q", out.String())
	}
}

func TestOnceJSON(t *testing.T) {
	rep := sampleReport()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(rep)
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	var out, errb bytes.Buffer
	if code := run([]string{"-addr", addr, "-once", "-json"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	var got modules.StatusReport
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("-json output is not one JSON document: %v\n%s", err, out.String())
	}
	if got.Instances[0].ID != "collector" || got.Instances[0].TotalFailures != 7 {
		t.Errorf("-json round-trip = %+v", got.Instances[0])
	}
	if lss := got.Leaders["collector"]; len(lss) != 1 || lss[0].LeaderOpenBreakers != 1 {
		t.Errorf("-json leader round-trip = %+v", got.Leaders)
	}
}

func TestOnceFetchError(t *testing.T) {
	var out, errb bytes.Buffer
	// Reserved port with nothing listening: grab a listener, close it, use
	// its address.
	srv := httptest.NewServer(http.NotFoundHandler())
	addr := strings.TrimPrefix(srv.URL, "http://")
	srv.Close()
	if code := run([]string{"-addr", addr, "-once"}, &out, &errb); code != 1 {
		t.Errorf("unreachable addr: exit = %d, want 1", code)
	}
	if errb.Len() == 0 {
		t.Error("fetch failure produced no stderr diagnostic")
	}
}

// staticView serves a fixed report through the status RPC path.
type staticView struct{ rep modules.StatusReport }

func (v staticView) Instances() []string                        { return nil }
func (v staticView) ModuleOf(string) (core.Module, bool)        { return nil, false }
func (v staticView) SupervisorSnapshots() []core.InstanceHealth { return v.rep.Instances }

func TestOnceRPC(t *testing.T) {
	rep := sampleReport()
	srv, addr, err := modules.ListenStatus("127.0.0.1:0", staticView{rep}, func() time.Time { return rep.Time })
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	var out, errb bytes.Buffer
	if code := run([]string{"-rpc-addr", addr.String(), "-once"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "collector") || !strings.Contains(out.String(), "quarantined") {
		t.Errorf("rpc once output missing table content:\n%s", out.String())
	}
}
