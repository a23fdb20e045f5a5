package rpc

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// genericPullRequest decodes body the way the server's generic path does and
// reports the pull it asks for, if it is one that path would serve.
func genericPullRequest(body []byte) (id, stream uint64, ok bool) {
	var req request
	if json.Unmarshal(body, &req) != nil || req.Method != MethodStreamPull {
		return 0, 0, false
	}
	var pr streamIDRequest
	if json.Unmarshal(req.Params, &pr) != nil {
		return 0, 0, false
	}
	return req.ID, pr.S, true
}

// nonCanonicalPulls are requests the generic path serves as a pull of stream
// s under call id id, spelled any way but appendStreamRequest's.
func nonCanonicalPulls(id, s string) []string {
	return []string{
		`{"id":` + id + `, "method":"rpc.stream.pull","params":{"s":` + s + `}}`,
		` {"id":` + id + `,"method":"rpc.stream.pull","params":{"s":` + s + `}}`,
		`{"id":` + id + `,"method":"rpc.stream.pull","params":{"s":` + s + `}} `,
		`{"method":"rpc.stream.pull","id":` + id + `,"params":{"s":` + s + `}}`,
		`{"id":` + id + `,"params":{"s":` + s + `},"method":"rpc.stream.pull"}`,
		`{"id":` + id + `,"method":"rpc.stream.pull","params":{"s":` + s + `,"n":0}}`,
		`{"id":` + id + `,"method":"rpc.stream.pull","params":{"s":` + s + `,"n":3}}`,
		`{"id":` + id + `,"method":"rpc.stream.pull","params":{"n":1,"s":` + s + `}}`,
		`{"id":` + id + `,"method":"rpc.stream.pull","params":{"s":` + s + `},"extra":null}`,
		`{"id":` + id + `,"method":"rpc.stream.pull",` + "\n" + `"params":{"s":` + s + `}}`,
		`{"ID":` + id + `,"method":"rpc.stream.pull","params":{"s":` + s + `}}`,
	}
}

func TestParsePullRequest(t *testing.T) {
	accept := []struct {
		body       string
		id, stream uint64
	}{
		{`{"id":1,"method":"rpc.stream.pull","params":{"s":1}}`, 1, 1},
		{`{"id":0,"method":"rpc.stream.pull","params":{"s":0}}`, 0, 0},
		{`{"id":907,"method":"rpc.stream.pull","params":{"s":64}}`, 907, 64},
		// 19 digits always fit a uint64, past 2^63 included.
		{`{"id":9999999999999999999,"method":"rpc.stream.pull","params":{"s":9223372036854775808}}`, 9999999999999999999, 9223372036854775808},
	}
	for _, tc := range accept {
		id, stream, ok := parsePullRequest([]byte(tc.body))
		if !ok || id != tc.id || stream != tc.stream {
			t.Errorf("parsePullRequest(%s) = %d, %d, %v; want %d, %d, true", tc.body, id, stream, ok, tc.id, tc.stream)
		}
		if gid, gs, gok := genericPullRequest([]byte(tc.body)); !gok || gid != id || gs != stream {
			t.Errorf("generic decode of %s = %d, %d, %v; recogniser %d, %d", tc.body, gid, gs, gok, id, stream)
		}
		// The recogniser accepts exactly what the client emits.
		if got := string(appendStreamRequest(nil, tc.id, MethodStreamPull, tc.stream, 0)); got != tc.body {
			t.Errorf("appendStreamRequest emits %s, table has %s", got, tc.body)
		}
	}

	reject := append(nonCanonicalPulls("7", "2"),
		// Valid pulls in a number spelling strconv.AppendUint never writes.
		`{"id":07,"method":"rpc.stream.pull","params":{"s":2}}`, // (not JSON either)
		`{"id":7,"method":"rpc.stream.pull","params":{"s":02}}`,
		`{"id":18446744073709551615,"method":"rpc.stream.pull","params":{"s":2}}`, // 20 digits, fits
		`{"id":7,"method":"rpc.stream.pull","params":{"s":18446744073709551616}}`, // 20 digits, overflows
		`{"id":7.0,"method":"rpc.stream.pull","params":{"s":2}}`,
		`{"id":7e0,"method":"rpc.stream.pull","params":{"s":2}}`,
		`{"id":-7,"method":"rpc.stream.pull","params":{"s":2}}`,
		`{"id":,"method":"rpc.stream.pull","params":{"s":2}}`,
		// Other requests.
		`{"id":7,"method":"rpc.stream.credit","params":{"s":2,"n":1}}`,
		`{"id":7,"method":"rpc.stream.open","params":{"method":"m"}}`,
		`{"id":7,"method":"rpc.stream.pull"}`,
		`{"id":7,"method":"rpc.stream.pull","params":{"s":2}`,
		`{"id":7,"method":"rpc.stream.pull","params":{"s":2}}}`,
		`{"id":7,"method":"rpc.stream.pullx","params":{"s":2}}`,
		``, `{`, `{"id":`, `null`,
	)
	for _, body := range reject {
		if id, stream, ok := parsePullRequest([]byte(body)); ok {
			t.Errorf("parsePullRequest(%s) accepted (%d, %d); only the canonical bytes may take the fast path", body, id, stream)
		}
	}
}

// FuzzParsePullRequest: whenever the recogniser accepts, the generic decode
// yields the same call id and stream id, so the two paths can never serve
// different pulls for the same bytes.
func FuzzParsePullRequest(f *testing.F) {
	f.Add([]byte(`{"id":1,"method":"rpc.stream.pull","params":{"s":1}}`))
	for _, s := range nonCanonicalPulls("12", "3") {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		id, stream, ok := parsePullRequest(body)
		if !ok {
			return
		}
		gid, gs, gok := genericPullRequest(body)
		if !gok || gid != id || gs != stream {
			t.Fatalf("recogniser read (%d, %d) from %q, generic decode (%d, %d, %v)", id, stream, body, gid, gs, gok)
		}
		if canon := appendStreamRequest(nil, id, MethodStreamPull, stream, 0); string(canon) != string(body) {
			t.Fatalf("recogniser accepted %q, which is not the canonical %q", body, canon)
		}
	})
}

// failingStreamSource fails every collect after the first.
type failingStreamSource struct {
	countingStreamSource
}

func (s *failingStreamSource) Collect(fw *FrameWriter) error {
	if s.tick.Load() >= 1 {
		return errors.New("disk on fire")
	}
	return s.countingStreamSource.Collect(fw)
}

// rawSession is a hand-driven connection: the test writes request bodies
// byte for byte and reads reply frames byte for byte.
type rawSession struct {
	t    *testing.T
	conn net.Conn
	fr   frameReader
}

func dialRaw(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	rs := &rawSession{t: t, conn: conn, fr: frameReader{r: conn}}
	rs.exchange(`{"proto":1,"client":"raw"}`)
	return rs
}

func (rs *rawSession) send(body string) {
	rs.t.Helper()
	if err := writeFrame(rs.conn, append(make([]byte, frameHeaderLen), body...), 0); err != nil {
		rs.t.Fatal(err)
	}
}

// exchange sends one request body and returns the reply frame: its flag and
// a copy of its bytes.
func (rs *rawSession) exchange(body string) (reply string, isBinary bool) {
	rs.t.Helper()
	rs.send(body)
	b, isBinary, err := rs.fr.next()
	if err != nil {
		rs.t.Fatalf("reply to %s: %v", body, err)
	}
	return string(b), isBinary
}

// TestPullServedIdenticallyOnBothPaths drives fresh connections with the
// canonical pull request and with every non-canonical spelling of it: each
// must draw byte-identical replies — data frames, and the unknown-stream,
// push-mode and source-error replies alike.
func TestPullServedIdenticallyOnBothPaths(t *testing.T) {
	srv := NewServer("pull-paths")
	srv.HandleStream("test.stream", func(json.RawMessage) (StreamSource, error) {
		return &countingStreamSource{tick: new(atomic.Int64)}, nil
	})
	srv.HandleStream("test.failing", func(json.RawMessage) (StreamSource, error) {
		return &failingStreamSource{countingStreamSource{tick: new(atomic.Int64)}}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	// script runs one connection: stream 1 pull-mode, stream 2 failing after
	// its first frame, stream 3 push-mode; then the same sequence of pulls
	// with each request spelled by spell(id, stream).
	script := func(spell func(id, stream string) string) []string {
		rs := dialRaw(t, addr.String())
		var replies []string
		for i, open := range []string{
			`{"id":1,"method":"rpc.stream.open","params":{"method":"test.stream"}}`,
			`{"id":2,"method":"rpc.stream.open","params":{"method":"test.failing"}}`,
			`{"id":3,"method":"rpc.stream.open","params":{"method":"test.stream","push":true}}`,
		} {
			reply, _ := rs.exchange(open)
			if want := `"stream":` + strconv.Itoa(i+1); !strings.Contains(reply, want) {
				t.Fatalf("open %d: %s", i+1, reply)
			}
		}
		for i, stream := range []string{"1", "1", "2", "2", "3", "9", "1"} {
			reply, isBinary := rs.exchange(spell(strconv.Itoa(4+i), stream))
			wantBinary := i < 3 || i == 6 // data frames; the rest are JSON errors
			if isBinary != wantBinary {
				t.Fatalf("pull %d of stream %s: binary=%v, reply %q", i, stream, isBinary, reply)
			}
			replies = append(replies, reply)
		}
		return replies
	}

	canonical := script(func(id, stream string) string {
		return `{"id":` + id + `,"method":"rpc.stream.pull","params":{"s":` + stream + `}}`
	})
	for _, want := range []string{"disk on fire", "push-mode", "unknown stream 9"} {
		if !strings.Contains(strings.Join(canonical, "\n"), want) {
			t.Fatalf("canonical replies lack %q: %q", want, canonical)
		}
	}
	for v := range nonCanonicalPulls("0", "0") {
		got := script(func(id, stream string) string {
			body := nonCanonicalPulls(id, stream)[v]
			if _, _, ok := parsePullRequest([]byte(body)); ok {
				t.Fatalf("%s takes the fast path; this test needs it on the generic one", body)
			}
			return body
		})
		for i := range canonical {
			if got[i] != canonical[i] {
				t.Errorf("spelling %d, pull %d: generic path replied %q, fast path %q", v, i, got[i], canonical[i])
			}
		}
	}
}

// retainingHandlers registers a call handler and a stream handler that keep
// the params slice they were handed, as a handler is free to do.
func retainingHandlers(srv *Server, kept *[]json.RawMessage) {
	srv.Handle("keep", func(params json.RawMessage) (any, error) {
		*kept = append(*kept, params)
		return len(*kept), nil
	})
	srv.HandleStream("keep.stream", func(params json.RawMessage) (StreamSource, error) {
		*kept = append(*kept, params)
		return &countingStreamSource{tick: new(atomic.Int64)}, nil
	})
}

// TestParamsDoNotAliasReadBuffer: what a handler or stream open keeps of its
// params must survive later requests, which reuse the connection's read
// buffer. Each request here is the same length as the one before it, so a
// params slice aliasing the buffer would be overwritten in place.
func TestParamsDoNotAliasReadBuffer(t *testing.T) {
	var kept []json.RawMessage
	srv := NewServer("alias")
	retainingHandlers(srv, &kept)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	rs := dialRaw(t, addr.String())

	want := []string{`{"node":"aaaaaaaa"}`, `{"node":"bbbbbbbb"}`, `{"node":"cccccccc"}`, `{"node":"dddddddd"}`, `{"node":"eeeeeeee"}`}
	rs.exchange(`{"id":1,"method":"rpc.stream.open","params":{"method":"keep.stream","params":` + want[0] + `}}`)
	rs.exchange(`{"id":2,"method":"rpc.stream.open","params":{"method":"keep.stream","params":` + want[1] + `}}`)
	rs.exchange(`{"id":3,"method":"keep","params":` + want[2] + `}`)
	rs.exchange(`{"id":4,"method":"keep","params":` + want[3] + `}`)
	rs.exchange(`{"id":5,"method":"keep","params":` + want[4] + `}`)
	// Overwrite whatever the buffer still holds, at every length used above.
	for _, n := range []int{20, 60, 90, 140} {
		rs.exchange(`{"id":9,"method":"nope","params":"` + strings.Repeat("z", n) + `"}`)
	}
	rs.exchange(`{"id":10,"method":"rpc.stream.pull","params":{"s":1}}`)

	rs.send(`{"id":11,"method":"keep"}`) // a barrier: the handlers above have all returned
	if _, _, err := rs.fr.next(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if len(kept) != len(want)+1 {
		t.Fatalf("handlers kept %d params, want %d", len(kept), len(want)+1)
	}
	for i, w := range want {
		if string(kept[i]) != w {
			t.Errorf("params kept by request %d now read %q, were %q", i+1, kept[i], w)
		}
	}
}
