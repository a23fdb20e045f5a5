package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	asdf "github.com/asdf-project/asdf"
	"github.com/asdf-project/asdf/internal/state"
	"github.com/asdf-project/asdf/internal/telemetry"
)

func TestRunListModules(t *testing.T) {
	if code := run([]string{"-list-modules"}); code != 0 {
		t.Errorf("exit = %d", code)
	}
}

func TestRunMissingConfig(t *testing.T) {
	if code := run(nil); code != 2 {
		t.Errorf("exit without -config = %d, want 2", code)
	}
}

func TestRunBadFlag(t *testing.T) {
	if code := run([]string{"-nonsense"}); code != 2 {
		t.Errorf("exit with bad flag = %d, want 2", code)
	}
}

// TestRunParallelismRemoved: step mode has one serial scheduler and no
// width to set, so the old flag is rejected like any undefined flag.
func TestRunParallelismRemoved(t *testing.T) {
	if code := run([]string{"-parallelism", "2", "-list-modules"}); code != 2 {
		t.Errorf("exit with -parallelism 2 = %d, want 2", code)
	}
}

func TestRunUnreadableConfig(t *testing.T) {
	if code := run([]string{"-config", "/nonexistent/fpt.conf"}); code != 1 {
		t.Errorf("exit with missing config = %d, want 1", code)
	}
}

func TestRunInvalidConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.conf")
	// References a module that does not exist.
	if err := os.WriteFile(path, []byte("[nosuch]\nid = x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-config", path}); code != 1 {
		t.Errorf("exit with invalid config = %d, want 1", code)
	}
}

func TestRunBadDegrade(t *testing.T) {
	if code := run([]string{"-degrade", "sideways", "-list-modules"}); code != 2 {
		t.Errorf("exit with bad -degrade = %d, want 2", code)
	}
}

func TestRunPprofRequiresStatusAddr(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fpt.conf")
	if err := os.WriteFile(path, []byte(""), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-config", path, "-pprof"}); code != 2 {
		t.Errorf("exit with -pprof but no -status-addr = %d, want 2", code)
	}
}

// TestPprofEndpointGated verifies the profile routes exist only when
// explicitly enabled: the status surface must not leak stacks by default.
func TestPprofEndpointGated(t *testing.T) {
	reg := asdf.NewBareRegistry()
	reg.Register("broken", func() asdf.Module { return &brokenSource{} })
	cfg, err := asdf.ParseConfigString("[broken]\nid = f\nperiod = 1\n")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asdf.NewEngine(reg, cfg, asdf.WithErrorHandler(func(string, error) {}))
	if err != nil {
		t.Fatal(err)
	}
	for _, on := range []bool{false, true} {
		srv, addr, err := serveStatusHTTP("127.0.0.1:0", statusView{Engine: eng}, asdf.NewTelemetry(), on)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get("http://" + addr.String() + "/debug/pprof/goroutine?debug=1")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		_ = srv.Close()
		if on {
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
				t.Errorf("pprof on: GET /debug/pprof/goroutine = %d %.60q, want a goroutine profile", resp.StatusCode, body)
			}
		} else if resp.StatusCode != http.StatusNotFound {
			t.Errorf("pprof off: GET /debug/pprof/goroutine = %d, want 404", resp.StatusCode)
		}
	}
}

// brokenSource errors on every run; used to drive an engine unhealthy.
type brokenSource struct{}

func (m *brokenSource) Init(ctx *asdf.InitContext) error {
	if _, err := ctx.NewOutput("output0", asdf.Origin{Source: "broken"}); err != nil {
		return err
	}
	return ctx.SchedulePeriodic(time.Second)
}

func (m *brokenSource) Run(ctx *asdf.RunContext) error {
	if ctx.Reason == asdf.RunFlush {
		return nil
	}
	return errors.New("broken")
}

// TestStatusEndpoints drives the operator HTTP surface through both
// answers: 200 "ok" on a healthy engine, 503 "degraded" once an instance is
// quarantined, with /status carrying the full JSON snapshot either way.
func TestStatusEndpoints(t *testing.T) {
	reg := asdf.NewBareRegistry()
	reg.Register("broken", func() asdf.Module { return &brokenSource{} })
	cfg, err := asdf.ParseConfigString("[broken]\nid = f\nperiod = 1\n")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asdf.NewEngine(reg, cfg,
		asdf.WithQuarantine(1, time.Minute),
		asdf.WithErrorHandler(func(string, error) {}))
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := serveStatusHTTP("127.0.0.1:0", statusView{Engine: eng}, asdf.NewTelemetry(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	base := "http://" + addr.String()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("healthy /healthz = %d %q, want 200 ok", code, body)
	}
	var rep asdf.StatusReport
	if _, body := get("/status"); json.Unmarshal([]byte(body), &rep) != nil {
		t.Fatalf("bad /status JSON: %s", body)
	}
	if !rep.Healthy || len(rep.Instances) != 1 {
		t.Errorf("healthy /status = %+v, want healthy with 1 instance", rep)
	}

	// One failing tick exhausts the threshold-1 budget.
	if err := eng.Tick(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || body != "degraded\n" {
		t.Errorf("degraded /healthz = %d %q, want 503 degraded", code, body)
	}
	if _, body := get("/status"); json.Unmarshal([]byte(body), &rep) != nil {
		t.Fatalf("bad /status JSON: %s", body)
	}
	if rep.Healthy {
		t.Error("/status claims healthy with a quarantined instance")
	}
	if len(rep.Instances) != 1 || rep.Instances[0].State != asdf.SupervisorQuarantined {
		t.Errorf("/status instances = %+v, want f quarantined", rep.Instances)
	}
}

// TestMetricsEndpoint scrapes GET /metrics from the operator server and
// checks the exposed supervisor counters against the /status JSON snapshot
// taken from the same quiesced engine — the acceptance contract for the
// exposition surface.
func TestMetricsEndpoint(t *testing.T) {
	metrics := asdf.NewTelemetry()
	reg := asdf.NewBareRegistry()
	reg.Register("broken", func() asdf.Module { return &brokenSource{} })
	cfg, err := asdf.ParseConfigString("[broken]\nid = f\nperiod = 1\n")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asdf.NewEngine(reg, cfg,
		asdf.WithTelemetry(metrics),
		asdf.WithQuarantine(3, time.Minute),
		asdf.WithErrorHandler(func(string, error) {}))
	if err != nil {
		t.Fatal(err)
	}
	// Three failing ticks: two budget strikes, then quarantine entry.
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		if err := eng.Tick(start.Add(time.Duration(i) * time.Second)); err != nil {
			t.Fatal(err)
		}
	}

	srv, addr, err := serveStatusHTTP("127.0.0.1:0", statusView{Engine: eng}, metrics, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	base := "http://" + addr.String()

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	scraped, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}

	var rep asdf.StatusReport
	sresp, err := http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sresp.Body.Close() }()
	if err := json.NewDecoder(sresp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}

	ih := rep.Instances[0]
	for series, want := range map[string]float64{
		`asdf_supervisor_failures_total{instance="f",kind="error"}`: float64(ih.Errors),
		`asdf_supervisor_quarantines_total{instance="f"}`:           float64(ih.Quarantines),
		`asdf_supervisor_state{instance="f"}`:                       float64(ih.State),
		"asdf_engine_tick_seconds_count":                            3,
	} {
		if got, ok := scraped[series]; !ok || got != want {
			t.Errorf("scraped %s = %v (present=%v), want %v", series, got, ok, want)
		}
	}
	for series := range scraped {
		if strings.HasPrefix(series, "asdf_engine_") && !strings.HasPrefix(series, "asdf_engine_tick_seconds") &&
			series != "asdf_engine_queue_depth" {
			t.Errorf("unexpected engine series %s", series)
		}
	}
	if ih.Errors == 0 || ih.Quarantines == 0 {
		t.Errorf("scenario did not exercise failures/quarantine: %+v", ih)
	}
}

// TestStateMetricsMatchStatus runs the crash-safe state layer behind the
// operator HTTP surface and checks the asdf_state_* series scraped from
// GET /metrics against the restart section of the GET /status snapshot —
// the same-engine equality contract the supervisor metrics already honor.
func TestStateMetricsMatchStatus(t *testing.T) {
	metrics := asdf.NewTelemetry()
	reg := asdf.NewBareRegistry()
	reg.Register("broken", func() asdf.Module { return &brokenSource{} })
	cfg, err := asdf.ParseConfigString("[broken]\nid = f\nperiod = 1\n")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := asdf.NewEngine(reg, cfg,
		asdf.WithTelemetry(metrics),
		asdf.WithErrorHandler(func(string, error) {}))
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := state.Open(eng, state.Options{
		Path:    filepath.Join(t.TempDir(), "asdf.state"),
		Metrics: metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgr.Close() }()
	if err := eng.Tick(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.SnapshotNow(); err != nil {
		t.Fatal(err)
	}

	srv, addr, err := serveStatusHTTP("127.0.0.1:0", statusView{Engine: eng, mgr: mgr}, metrics, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	base := "http://" + addr.String()

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	scraped, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	var rep asdf.StatusReport
	sresp, err := http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sresp.Body.Close() }()
	if err := json.NewDecoder(sresp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Restart == nil {
		t.Fatal("/status has no restart section despite a state manager")
	}
	rs := rep.Restart
	if rs.SnapshotsWritten == 0 || rs.SnapshotBytes == 0 {
		t.Fatalf("scenario wrote no snapshot: %+v", rs)
	}
	for series, want := range map[string]float64{
		"asdf_state_restarts":                float64(rs.Restarts),
		"asdf_state_snapshots_written_total": float64(rs.SnapshotsWritten),
		"asdf_state_snapshot_bytes":          float64(rs.SnapshotBytes),
	} {
		if got, ok := scraped[series]; !ok || got != want {
			t.Errorf("scraped %s = %v (present=%v), want %v", series, got, ok, want)
		}
	}
}
