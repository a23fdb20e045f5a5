package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asdf-project/asdf/internal/telemetry"
)

// countingStreamSource emits one row per collect with a value derived from a
// shared tick counter, so tests can check ordering and reconnect behavior.
type countingStreamSource struct {
	tick *atomic.Int64
	vals []float64
}

func (s *countingStreamSource) Schema() StreamSchema {
	return StreamSchema{
		Method: "test.stream",
		Node:   "n1",
		Groups: []ColumnGroup{{Name: "g", Columns: []string{"tick", "constant", "wave"}}},
	}
}

func (s *countingStreamSource) Collect(fw *FrameWriter) error {
	n := s.tick.Add(1)
	if s.vals == nil {
		s.vals = make([]float64, 3)
	}
	s.vals[0] = float64(n)
	s.vals[1] = 42
	s.vals[2] = float64(n % 3)
	fw.AppendRow(n*1e9, false, nil, s.vals)
	return nil
}

// newStreamTestServer starts a server whose test.stream method shares one
// tick counter across opens (so a reconnect continues the sequence).
func newStreamTestServer(t *testing.T) (*Server, string, *atomic.Int64) {
	t.Helper()
	var tick atomic.Int64
	srv := NewServer("stream-test")
	srv.Handle("ping", func(json.RawMessage) (any, error) { return "pong", nil })
	srv.HandleStream("test.stream", func(json.RawMessage) (StreamSource, error) {
		return &countingStreamSource{tick: &tick}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, addr.String(), &tick
}

func fastOpts() Options {
	return Options{
		CallTimeout:      5 * time.Second,
		ReconnectBackoff: time.Nanosecond,
		MaxBackoff:       time.Nanosecond,
		BreakerThreshold: 100,
		Rand:             func() float64 { return 0 },
	}
}

func TestStreamPull(t *testing.T) {
	_, addr, _ := newStreamTestServer(t)
	m := NewManagedClient(addr, "test", fastOpts())
	defer m.Close()

	sc, err := m.Stream("test.stream", nil)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	for want := int64(1); want <= 5; want++ {
		rows, err := sc.Pull()
		if err != nil {
			t.Fatalf("pull %d: %v", want, err)
		}
		if len(rows) != 1 || rows[0].Values[0] != float64(want) || rows[0].Values[1] != 42 {
			t.Fatalf("pull %d: rows %+v", want, rows)
		}
		if rows[0].TimeNanos != want*1e9 {
			t.Fatalf("pull %d: time %d", want, rows[0].TimeNanos)
		}
	}
	schema, ok := sc.Schema()
	if !ok || schema.Method != "test.stream" || schema.Groups[0].Columns[0] != "tick" {
		t.Fatalf("schema: %+v ok=%v", schema, ok)
	}
}

func TestStreamSteadyStateBytesShrink(t *testing.T) {
	_, addr, _ := newStreamTestServer(t)
	c, err := Dial(addr, "test")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	id, err := c.openStream("test.stream", nil, false, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	dec := NewColumnarDecoder()
	if err := c.pullStream(id, dec); err != nil {
		t.Fatalf("first pull: %v", err)
	}
	_, firstRecv := c.Stats()
	if err := c.pullStream(id, dec); err != nil {
		t.Fatalf("second pull: %v", err)
	}
	_, secondRecv := c.Stats()
	first := firstRecv // includes hello + schema frame
	steady := secondRecv - firstRecv
	// Steady-state frame: 4B header + ~15B body (seq, one delta'd tick
	// column, wave column, skips). The schema-bearing first response is far
	// larger.
	if steady >= 40 {
		t.Fatalf("steady-state pull cost %d bytes on the wire, want < 40 (first: %d)", steady, first)
	}
}

func TestStreamPullUnsupportedMethod(t *testing.T) {
	_, addr, _ := newStreamTestServer(t)
	m := NewManagedClient(addr, "test", fastOpts())
	defer m.Close()

	sc, err := m.Stream("no.such.stream", nil)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	_, err = sc.Pull()
	if err == nil || !IsStreamUnsupported(err) {
		t.Fatalf("want stream-unsupported error, got %v", err)
	}
}

func TestStreamUnsupportedOnPreColumnarServer(t *testing.T) {
	// A server with no stream handlers rejects rpc.stream.open; the client
	// must classify that as "speak JSON instead".
	srv := NewServer("old")
	srv.Handle("ping", func(json.RawMessage) (any, error) { return "pong", nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()

	m := NewManagedClient(addr.String(), "test", fastOpts())
	defer m.Close()
	sc, err := m.Stream("test.stream", nil)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	_, err = sc.Pull()
	if err == nil || !IsStreamUnsupported(err) {
		t.Fatalf("want stream-unsupported error, got %v", err)
	}
	// The connection must remain usable for ordinary calls afterwards.
	var pong string
	if err := m.Call("ping", nil, &pong); err != nil || pong != "pong" {
		t.Fatalf("ping after failed open: %v %q", err, pong)
	}
}

func TestStreamPullReconnectsAfterDrop(t *testing.T) {
	srv, addr, tick := newStreamTestServer(t)
	m := NewManagedClient(addr, "test", fastOpts())
	defer m.Close()

	sc, err := m.Stream("test.stream", nil)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if _, err := sc.Pull(); err != nil {
		t.Fatalf("pull 1: %v", err)
	}
	if n := srv.DropConns(); n != 1 {
		t.Fatalf("dropped %d conns, want 1", n)
	}

	// The next pulls fail on the dead conn, then the managed client redials
	// and the stream reopens with a fresh schema frame.
	deadline := time.Now().Add(5 * time.Second)
	var rows []StreamRow
	for {
		rows, err = sc.Pull()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pull never recovered: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	// The shared tick counter proves this is a fresh server-side source on
	// the same underlying state: the value moved past the first pull's 1.
	if got := rows[0].Values[0]; got < 2 || got != float64(tick.Load()) {
		t.Fatalf("post-reconnect tick %v (counter %d)", got, tick.Load())
	}
}

func TestStreamSubscribeLockstep(t *testing.T) {
	_, addr, _ := newStreamTestServer(t)
	m := NewManagedClient(addr, "test", fastOpts())
	defer m.Close()

	sub, err := m.Subscribe("test.stream", nil, 0, 1)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	for want := int64(1); want <= 5; want++ {
		rows, err := sub.Fetch()
		if err != nil {
			t.Fatalf("fetch %d: %v", want, err)
		}
		if len(rows) != 1 || rows[0].Values[0] != float64(want) {
			t.Fatalf("fetch %d: rows %+v", want, rows)
		}
	}
}

func TestStreamSubscribeWindowedPipelining(t *testing.T) {
	_, addr, tick := newStreamTestServer(t)
	m := NewManagedClient(addr, "test", fastOpts())
	defer m.Close()

	sub, err := m.Subscribe("test.stream", nil, 0, 3)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	// Frames arrive strictly in order even though the server may collect
	// ahead of the client by up to window-1 frames.
	for want := int64(1); want <= 10; want++ {
		rows, err := sub.Fetch()
		if err != nil {
			t.Fatalf("fetch %d: %v", want, err)
		}
		if rows[0].Values[0] != float64(want) {
			t.Fatalf("fetch %d: got tick %v", want, rows[0].Values[0])
		}
	}
	// With window 3 the server ran at most 2 collects ahead.
	if n := tick.Load(); n > 12 {
		t.Fatalf("server ran %d collects for 10 fetches, window 3", n)
	}
}

func TestStreamSubscribeReconnects(t *testing.T) {
	srv, addr, tick := newStreamTestServer(t)
	m := NewManagedClient(addr, "test", fastOpts())
	defer m.Close()

	sub, err := m.Subscribe("test.stream", nil, 0, 2)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if _, err := sub.Fetch(); err != nil {
		t.Fatalf("fetch 1: %v", err)
	}
	srv.DropConns()

	deadline := time.Now().Add(5 * time.Second)
	var rows []StreamRow
	for {
		rows, err = sub.Fetch()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fetch never recovered: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	// With window 2 the server may legitimately run one collect ahead of
	// the frame we just read; the received tick only has to have advanced
	// past the pre-drop frame and not beyond the shared counter.
	if got := rows[0].Values[0]; got < 2 || got > float64(tick.Load()) {
		t.Fatalf("post-reconnect tick %v (counter %d)", got, tick.Load())
	}
}

func TestStreamCollectErrorIsRemoteError(t *testing.T) {
	srv := NewServer("erry")
	srv.HandleStream("bad.stream", func(json.RawMessage) (StreamSource, error) {
		return &erroringSource{}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()

	m := NewManagedClient(addr.String(), "test", fastOpts())
	defer m.Close()
	sc, _ := m.Stream("bad.stream", nil)
	_, err = sc.Pull()
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if IsStreamUnsupported(err) {
		t.Fatal("a collect error must not read as unsupported")
	}
	// Remote errors prove the node alive: the breaker must not have moved.
	if h := m.Health(); h.State != BreakerClosed || h.TotalFailures != 0 {
		t.Fatalf("collect error counted against transport health: %+v", h)
	}
}

type erroringSource struct{}

func (e *erroringSource) Schema() StreamSchema {
	return StreamSchema{Method: "bad.stream", Groups: []ColumnGroup{{Name: "g", Columns: []string{"x"}}}}
}
func (e *erroringSource) Collect(fw *FrameWriter) error { return fmt.Errorf("sensor exploded") }

func TestWireByteTelemetryCountersTrackStats(t *testing.T) {
	_, addr, _ := newStreamTestServer(t)
	reg := telemetry.NewRegistry()
	opts := fastOpts()
	opts.Metrics = reg
	m := NewManagedClient(addr, "test", opts)
	defer m.Close()

	var pong string
	if err := m.Call("ping", nil, &pong); err != nil {
		t.Fatalf("ping: %v", err)
	}
	sc, _ := m.Stream("test.stream", nil)
	if _, err := sc.Pull(); err != nil {
		t.Fatalf("pull: %v", err)
	}

	sent, recv := m.Stats()
	if sent == 0 || recv == 0 {
		t.Fatal("no bytes counted")
	}
	al := telemetry.L("addr", addr)
	gotSent := reg.Counter("asdf_rpc_wire_bytes_sent_total", "", al).Value()
	gotRecv := reg.Counter("asdf_rpc_wire_bytes_received_total", "", al).Value()
	if gotSent != sent || gotRecv != recv {
		t.Fatalf("counters sent=%d recv=%d, Stats sent=%d recv=%d", gotSent, gotRecv, sent, recv)
	}
	h := m.Health()
	if h.BytesSent != sent || h.BytesReceived != recv {
		t.Fatalf("Health bytes %d/%d, Stats %d/%d", h.BytesSent, h.BytesReceived, sent, recv)
	}
}

func TestHandleStreamReservedAndDuplicatePanic(t *testing.T) {
	srv := NewServer("s")
	h := func(json.RawMessage) (StreamSource, error) { return &erroringSource{}, nil }
	srv.HandleStream("ok.stream", h)
	for _, name := range []string{MethodStreamOpen, MethodStreamPull, MethodStreamCredit, "ok.stream"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HandleStream(%q) did not panic", name)
				}
			}()
			srv.HandleStream(name, h)
		}()
	}
	// The reserved stream methods must be rejected by Handle too.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Handle(rpc.stream.open) did not panic")
			}
		}()
		srv.Handle(MethodStreamOpen, func(json.RawMessage) (any, error) { return nil, nil })
	}()
}
