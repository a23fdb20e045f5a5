package rpc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"
)

// ioCountingConn counts Read and Write calls — the syscalls a connection end
// makes. Writes are also the segments (and peer wake-ups, under TCP_NODELAY)
// it produces.
type ioCountingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *ioCountingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *ioCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// instrumentedPair connects a client to srv over loopback TCP with both ends
// wrapped in call counters. The server end is served by srv.serveConn
// directly, so Server.Stats accounting runs as for an accepted connection.
func instrumentedPair(t testing.TB, srv *Server) (c *Client, clientEnd, serverEnd *ioCountingConn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- conn
	}()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sconn, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	serverEnd = &ioCountingConn{Conn: sconn}
	go srv.serveConn(serverEnd)
	clientEnd = &ioCountingConn{Conn: raw}
	c, err = newClient(clientEnd, "frames", WithCallTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, clientEnd, serverEnd
}

func newFrameTestServer() *Server {
	srv := NewServer("frames")
	srv.Handle("echo", func(params json.RawMessage) (any, error) { return params, nil })
	srv.HandleStream("test.stream", func(json.RawMessage) (StreamSource, error) {
		return &countingStreamSource{tick: new(atomic.Int64)}, nil
	})
	return srv
}

// TestOneWritePerFrame holds the single-segment property on both ends for
// every kind of frame: JSON (hello, call, error), hand-rolled request bodies
// (pull, credit), and binary columnar frames.
func TestOneWritePerFrame(t *testing.T) {
	srv := newFrameTestServer()
	c, ce, se := instrumentedPair(t, srv)

	var cw, sw int64
	step := func(what string, clientFrames, serverFrames int64) {
		t.Helper()
		cw += clientFrames
		sw += serverFrames
		// Pushed frames are written after the client's read returns at the
		// earliest; give the server end a moment to settle.
		deadline := time.Now().Add(2 * time.Second)
		for se.writes.Load() < sw && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := ce.writes.Load(); got != cw {
			t.Fatalf("%s: client made %d writes in total, want %d", what, got, cw)
		}
		if got := se.writes.Load(); got != sw {
			t.Fatalf("%s: server made %d writes in total, want %d", what, got, sw)
		}
	}
	step("hello", 1, 1)

	var out map[string]any
	if err := c.Call("echo", map[string]int{"x": 1}, &out); err != nil {
		t.Fatal(err)
	}
	step("json call", 1, 1)

	big := strings.Repeat("x", 3*frameBufKeep) // a frame beyond the kept buffer on both ends
	var echoed string
	if err := c.Call("echo", big, &echoed); err != nil || echoed != big {
		t.Fatalf("big call: %v (echoed %d bytes)", err, len(echoed))
	}
	step("big json call", 1, 1)

	if err := c.Call("nope", nil, nil); err == nil {
		t.Fatal("unknown method succeeded")
	}
	step("json error reply", 1, 1)

	dec := NewColumnarDecoder()
	id, err := c.openStream("test.stream", nil, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	step("stream open", 1, 1)
	for i := 0; i < 3; i++ {
		if err := c.pullStream(id, dec); err != nil {
			t.Fatal(err)
		}
		step("pull", 1, 1)
	}
	if err := c.pullStream(id+7, dec); err == nil {
		t.Fatal("pull of an unknown stream succeeded")
	}
	step("pull error reply", 1, 1)

	push, err := c.openStream("test.stream", nil, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	step("push open", 1, 1)
	pdec := NewColumnarDecoder()
	if err := c.fetchStream(push, pdec, 2, 0); err != nil {
		t.Fatal(err)
	}
	step("credit for two frames", 1, 2)
	if err := c.fetchStream(push, pdec, 0, 0); err != nil {
		t.Fatal(err)
	}
	step("second pushed frame", 0, 0)
	if rows := pdec.Rows(); len(rows) != 1 || rows[0].Values[0] != 2 {
		t.Fatalf("second pushed frame decoded to %+v", rows)
	}
}

// refReadTaggedFrame is the parent's frame reader, kept as the oracle the
// new reader is proven against.
func refReadTaggedFrame(r io.Reader, buf *[]byte) (body []byte, isBinary bool, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, false, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	isBinary = n&binaryFrameFlag != 0
	n &^= binaryFrameFlag
	if n > maxFrameBytes {
		return nil, false, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	*buf = (*buf)[:n]
	if _, err := io.ReadFull(r, *buf); err != nil {
		return nil, false, fmt.Errorf("rpc: read body: %w", err)
	}
	return *buf, isBinary, nil
}

type wireFrame struct {
	body     []byte
	isBinary bool
}

// randomFrames builds a byte stream of frames whose sizes straddle every
// boundary the reader has: empty, within one quantum, around frameBufKeep,
// and far beyond it.
func randomFrames(rng *rand.Rand, n int) (stream []byte, frames []wireFrame) {
	sizes := []int{0, 1, 55, 59, 60, 61, 64, 200, frameBufKeep - 5, frameBufKeep - 4, frameBufKeep - 3, frameBufKeep, 2000, 9000}
	for i := 0; i < n; i++ {
		f := wireFrame{body: make([]byte, sizes[rng.Intn(len(sizes))]), isBinary: rng.Intn(3) == 0}
		rng.Read(f.body)
		hdr := uint32(len(f.body))
		if f.isBinary {
			hdr |= binaryFrameFlag
		}
		stream = binary.BigEndian.AppendUint32(stream, hdr)
		stream = append(stream, f.body...)
		frames = append(frames, f)
	}
	return stream, frames
}

// chunkReader delivers a stream in reads of random sizes, at most max bytes.
type chunkReader struct {
	r   io.Reader
	rng *rand.Rand
	max int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if n := 1 + c.rng.Intn(c.max); n < len(p) {
		p = p[:n]
	}
	return c.r.Read(p)
}

// TestFrameReaderMatchesReference reads the same frame stream through the
// parent's reader and through frameReader under three deliveries — one byte
// per Read (fragmenting), everything the buffer holds per Read (coalescing,
// as a push stream's back-to-back frames arrive), and random chunks — and
// requires the same bodies, flags and final io.EOF.
func TestFrameReaderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stream, frames := randomFrames(rng, 400)

	var refBuf []byte
	ref := bytes.NewReader(stream)
	for i, want := range frames {
		body, isBin, err := refReadTaggedFrame(ref, &refBuf)
		if err != nil || isBin != want.isBinary || !bytes.Equal(body, want.body) {
			t.Fatalf("reference reader, frame %d: err=%v", i, err)
		}
	}

	deliveries := map[string]func() io.Reader{
		"fragmenting": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
		"coalescing":  func() io.Reader { return bytes.NewReader(stream) },
		"chunks":      func() io.Reader { return &chunkReader{r: bytes.NewReader(stream), rng: rng, max: 300} },
		"data+EOF":    func() io.Reader { return iotest.DataErrReader(bytes.NewReader(stream)) },
	}
	for name, mk := range deliveries {
		fr := frameReader{r: mk()}
		for i, want := range frames {
			body, isBin, err := fr.next()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if isBin != want.isBinary || !bytes.Equal(body, want.body) {
				t.Fatalf("%s: frame %d: got %d bytes binary=%v, want %d bytes binary=%v",
					name, i, len(body), isBin, len(want.body), want.isBinary)
			}
		}
		if _, _, err := fr.next(); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
		}
		if len(fr.buf) > frameBufKeep {
			t.Fatalf("%s: reader kept a %d-byte buffer, limit %d", name, len(fr.buf), frameBufKeep)
		}
	}
}

// TestFrameReaderOneReadPerFrame: once the buffer has grown to the frame
// size, a frame that arrives whole costs exactly one Read, and two frames
// that arrive together cost one Read for both.
func TestFrameReaderOneReadPerFrame(t *testing.T) {
	frame := func(n int) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(n)), make([]byte, n)...)
	}
	var reads int
	pr, pw := io.Pipe()
	fr := frameReader{r: readerFunc(func(p []byte) (int, error) { reads++; return pr.Read(p) })}
	send := func(b []byte) {
		go func() { _, _ = pw.Write(b) }()
	}

	send(frame(300))
	if _, _, err := fr.next(); err != nil {
		t.Fatal(err)
	}
	if reads != 2 {
		t.Fatalf("first frame took %d reads, want 2 (header, then the grown buffer)", reads)
	}
	for i := 0; i < 5; i++ {
		reads = 0
		send(frame(300 - i))
		if _, _, err := fr.next(); err != nil {
			t.Fatal(err)
		}
		if reads != 1 {
			t.Fatalf("steady-state frame took %d reads, want 1", reads)
		}
	}
	reads = 0
	send(append(frame(100), frame(120)...))
	for _, want := range []int{100, 120} {
		body, _, err := fr.next()
		if err != nil || len(body) != want {
			t.Fatalf("coalesced frame: %d bytes, %v; want %d", len(body), err, want)
		}
	}
	if reads != 1 {
		t.Fatalf("two coalesced frames took %d reads, want 1", reads)
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

func TestFrameReaderRejectsOversizedLength(t *testing.T) {
	for _, hdr := range []uint32{maxFrameBytes + 1, (maxFrameBytes + 1) | binaryFrameFlag, 0x7fffffff} {
		stream := binary.BigEndian.AppendUint32(nil, hdr)
		fr := frameReader{r: bytes.NewReader(stream)}
		_, _, err := fr.next()
		_, _, refErr := refReadTaggedFrame(bytes.NewReader(stream), new([]byte))
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			t.Errorf("header %#x: got %v, reference %v", hdr, err, refErr)
		}
	}
}

// TestFrameReaderEOFMidFrame cuts a two-frame stream at every offset: the
// frames wholly before the cut are delivered, and the cut itself reports
// io.EOF exactly on a frame boundary and an unexpected EOF anywhere else —
// wherever the reference reader fails too.
func TestFrameReaderEOFMidFrame(t *testing.T) {
	stream, frames := randomFrames(rand.New(rand.NewSource(3)), 2)
	stream = append(stream, binary.BigEndian.AppendUint32(nil, 2*frameBufKeep)...)
	stream = append(stream, make([]byte, 2*frameBufKeep)...) // and one beyond the kept buffer
	frames = append(frames, wireFrame{body: make([]byte, 2*frameBufKeep)})
	boundaries := map[int]int{0: 0}
	off := 0
	for i, f := range frames {
		off += frameHeaderLen + len(f.body)
		boundaries[off] = i + 1
	}
	for cut := 0; cut <= len(stream); cut++ {
		fr := frameReader{r: iotest.OneByteReader(bytes.NewReader(stream[:cut]))}
		ref := bytes.NewReader(stream[:cut])
		var refBuf []byte
		for i := 0; ; i++ {
			body, _, err := fr.next()
			_, _, refErr := refReadTaggedFrame(ref, &refBuf)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("cut %d, frame %d: got %v, reference %v", cut, i, err, refErr)
			}
			if err == nil {
				if !bytes.Equal(body, frames[i].body) {
					t.Fatalf("cut %d, frame %d: wrong body", cut, i)
				}
				continue
			}
			if whole, onBoundary := boundaries[cut]; onBoundary {
				if err != io.EOF || i != whole {
					t.Fatalf("cut %d on a boundary after %d frames: got %v after %d", cut, whole, err, i)
				}
			} else if err == io.EOF || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut %d mid-frame: got %v, want an unexpected EOF", cut, err)
			}
			break
		}
	}
}

// TestServerDropsBinaryFrame: a binary-flagged frame arriving at a server
// ends the connection without a reply, as it did when the parent's reader
// took the flag for an oversized length.
func TestServerDropsBinaryFrame(t *testing.T) {
	srv := newFrameTestServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeJSONFrame(conn, helloRequest{Proto: ProtocolVersion, Client: "t"}); err != nil {
		t.Fatal(err)
	}
	fr := frameReader{r: conn}
	var hello helloResponse
	if err := fr.readJSON(&hello); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, append(make([]byte, frameHeaderLen), `{"id":1,"method":"echo"}`...), binaryFrameFlag); err != nil {
		t.Fatal(err)
	}
	if body, _, err := fr.next(); err != io.EOF {
		t.Fatalf("after a binary frame the server sent %q, %v; want the connection closed", body, err)
	}
}

// TestClientRejectsBinaryReplyToCall: a binary frame where a JSON reply is
// due is a transport error, not a misparse.
func TestClientRejectsBinaryReplyToCall(t *testing.T) {
	fr := frameReader{r: bytes.NewReader(binary.BigEndian.AppendUint32(nil, binaryFrameFlag))}
	var resp response
	if err := fr.readJSON(&resp); err == nil || !strings.Contains(err.Error(), "binary frame") {
		t.Fatalf("readJSON of a binary frame: %v", err)
	}
}

// TestScriptedWireBytesUnchanged replays hello + open + 100 pulls and holds
// the byte totals on both ends to the parent commit's, measured with the same
// script before the frame I/O was rebuilt: no byte on the wire moved, so the
// Table 4 bandwidth accounting stands.
func TestScriptedWireBytesUnchanged(t *testing.T) {
	const parentSent, parentReceived = 5800, 3561
	srv, addr, _ := newStreamTestServer(t)
	c, err := Dial(addr, "table4")
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.openStream("test.stream", nil, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewColumnarDecoder()
	for i := 0; i < 100; i++ {
		if err := c.pullStream(id, dec); err != nil {
			t.Fatal(err)
		}
	}
	sent, received := c.Stats()
	if sent != parentSent || received != parentReceived {
		t.Errorf("client sent %d and received %d bytes, the parent %d and %d", sent, received, parentSent, parentReceived)
	}
	_ = c.Close()
	var read, written uint64
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if read, written = srv.Stats(); read == sent && written == received {
			return
		}
	}
	t.Errorf("server read %d and wrote %d bytes, want %d and %d", read, written, sent, received)
}

// TestStreamPullAllocFree: a steady-state pull allocates nothing on either
// end — request encode, frame I/O, pull recognition, source collect, columnar
// encode and decode all run out of reused buffers (both ends live in this
// process, so AllocsPerRun sees the server's share too).
func TestStreamPullAllocFree(t *testing.T) {
	c, _, _ := instrumentedPair(t, newFrameTestServer())
	id, err := c.openStream("test.stream", nil, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewColumnarDecoder()
	pull := func() {
		if err := c.pullStream(id, dec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		pull() // schema frame, buffer growth
	}
	if allocs := testing.AllocsPerRun(200, pull); allocs != 0 {
		t.Errorf("steady-state pull allocates %.2f times per round trip, want 0", allocs)
	}
}

// TestManagedPullAllocFree: the supervised pull — breaker gate, the round
// trip handed to ManagedClient.do, success accounting — adds no allocation
// of its own on top of the bare one.
func TestManagedPullAllocFree(t *testing.T) {
	_, addr, _ := newStreamTestServer(t)
	m := NewManagedClient(addr, "test", fastOpts())
	defer func() { _ = m.Close() }()
	sc, err := m.Stream("test.stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	pull := func() {
		if _, err := sc.Pull(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		pull()
	}
	if allocs := testing.AllocsPerRun(200, pull); allocs != 0 {
		t.Errorf("steady-state managed pull allocates %.2f times per round trip, want 0", allocs)
	}
}
