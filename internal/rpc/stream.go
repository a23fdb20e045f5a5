package rpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Metric streams: a negotiated upgrade from per-call JSON framing to the
// columnar delta codec. The client opens a stream with an ordinary JSON
// call (rpc.stream.open names the underlying method); the server pins a
// StreamSource and a ColumnarEncoder to the connection and replies with a
// stream id. From then on the client either pulls frames one at a time
// (rpc.stream.pull — request/response, same serialization discipline as any
// call) or, for a push-mode stream, grants credits (rpc.stream.credit, no
// response) and the server streams frames on its own cadence, one frame per
// credit. Binary frames are distinguished from JSON frames by the high bit
// of the 4-byte length header, so both kinds share one connection; a
// pre-columnar peer reading a binary frame sees an oversized length and
// fails cleanly rather than misparsing.
//
// Stream state lives on the connection on both sides. A reconnect therefore
// drops every stream with it, and the managed wrappers (StreamClient,
// ManagedSubscription) transparently reopen on the next use — the fresh
// server-side encoder re-sends the schema frame first, which resets the
// client decoder's delta state. This is also why a credit request needs no
// response: losing one loses the whole connection with it.

// Reserved stream method names: the server dispatches them natively;
// handlers cannot register them.
const (
	// MethodStreamOpen opens a stream: params {method, params, push,
	// period_ms}, result {stream}.
	MethodStreamOpen = "rpc.stream.open"
	// MethodStreamPull requests one frame from a pull-mode stream: params
	// {s}; the response is a binary columnar frame, or a JSON error frame.
	MethodStreamPull = "rpc.stream.pull"
	// MethodStreamCredit grants n frame credits to a push-mode stream:
	// params {s, n}. It has no response.
	MethodStreamCredit = "rpc.stream.credit"
)

func isStreamMethod(m string) bool {
	return m == MethodStreamOpen || m == MethodStreamPull || m == MethodStreamCredit
}

// binaryFrameFlag tags a frame's length header as a binary (columnar) body.
// The masked length obeys the same maxFrameBytes bound as JSON frames.
const binaryFrameFlag = uint32(1) << 31

// streamCreditCap bounds buffered credits per push stream; far beyond any
// sane window, it only guards against a runaway client.
const streamCreditCap = 1024

// FrameWriter is handed to a StreamSource's Collect to append rows to the
// frame being built. Errors stick: the first failed append fails the
// collect.
type FrameWriter struct {
	enc *ColumnarEncoder
	err error
}

// AppendRow adds one row to the in-progress frame; see
// ColumnarEncoder.AppendRow for the argument contract.
func (fw *FrameWriter) AppendRow(timeNanos int64, warmup bool, present []bool, values []float64) {
	if fw.err != nil {
		return
	}
	fw.err = fw.enc.AppendRow(timeNanos, warmup, present, values)
}

// StreamSource produces the rows of one open stream. Collect is called once
// per frame — per pull, or per granted credit in push mode — and must not
// retain the FrameWriter.
type StreamSource interface {
	Schema() StreamSchema
	Collect(fw *FrameWriter) error
}

// StreamHandlerFunc creates a StreamSource for one stream open. params is
// the raw JSON the client passed in the open request. Each open gets its
// own source, so per-stream state (rate baselines, log cursors) is isolated
// per client connection.
type StreamHandlerFunc func(params json.RawMessage) (StreamSource, error)

// HandleStream registers a stream handler for method. Registering a
// duplicate or reserved method panics, mirroring Handle.
func (s *Server) HandleStream(method string, h StreamHandlerFunc) {
	if method == "" || h == nil {
		panic("rpc: HandleStream requires a method name and handler")
	}
	if isStreamMethod(method) {
		panic("rpc: " + method + " is reserved; the server dispatches it natively")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.streamHandlers[method]; dup {
		panic(fmt.Sprintf("rpc: stream method %q registered twice", method))
	}
	s.streamHandlers[method] = h
}

// Wire forms of the stream control calls.

type streamOpenRequest struct {
	Method string          `json:"method"`
	Params json.RawMessage `json:"params,omitempty"`
	Push   bool            `json:"push,omitempty"`
	// PeriodMS paces a push stream: minimum milliseconds between frames.
	// Zero pushes as fast as credits arrive (lockstep with the client).
	PeriodMS int64 `json:"period_ms,omitempty"`
}

type streamOpenResponse struct {
	Stream uint64 `json:"stream"`
}

type streamIDRequest struct {
	S uint64 `json:"s"`
	N int    `json:"n,omitempty"`
}

// serverStream is one open stream pinned to a connection.
type serverStream struct {
	id      uint64
	src     StreamSource
	enc     *ColumnarEncoder
	fw      FrameWriter // handed to src.Collect, reused every frame
	push    bool
	period  time.Duration
	credits chan struct{}
}

// connState is the per-connection serving state: the write mutex that
// serializes response frames with push frames, and the streams opened on
// this connection. It dies with the connection.
type connState struct {
	srv *Server
	cc  *countingConn

	writeMu sync.Mutex

	mu         sync.Mutex
	streams    map[uint64]*serverStream
	nextStream uint64

	done chan struct{}
}

func (cs *connState) write(v any) error {
	cs.writeMu.Lock()
	defer cs.writeMu.Unlock()
	return writeJSONFrame(cs.cc, v)
}

// writeJSON sends a JSON frame already built after its reserved header.
func (cs *connState) writeJSON(frame []byte) error {
	cs.writeMu.Lock()
	defer cs.writeMu.Unlock()
	return writeFrame(cs.cc, frame, 0)
}

// writeBinary sends an already-encoded columnar frame (header bytes reserved).
func (cs *connState) writeBinary(frame []byte) error {
	cs.writeMu.Lock()
	defer cs.writeMu.Unlock()
	return writeFrame(cs.cc, frame, binaryFrameFlag)
}

func (cs *connState) lookup(id uint64) *serverStream {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.streams[id]
}

// openStream serves one MethodStreamOpen request.
func (cs *connState) openStream(req *request) response {
	var or streamOpenRequest
	if err := json.Unmarshal(req.Params, &or); err != nil {
		return response{ID: req.ID, Error: fmt.Sprintf("malformed stream open: %v", err)}
	}
	cs.srv.mu.Lock()
	h, ok := cs.srv.streamHandlers[or.Method]
	cs.srv.mu.Unlock()
	if !ok {
		return response{ID: req.ID, Error: fmt.Sprintf("rpc.stream: unsupported method %q", or.Method)}
	}
	src, err := h(or.Params)
	if err != nil {
		return response{ID: req.ID, Error: err.Error()}
	}

	st := &serverStream{
		src:    src,
		enc:    NewColumnarEncoder(src.Schema()),
		push:   or.Push,
		period: time.Duration(or.PeriodMS) * time.Millisecond,
	}
	st.fw.enc = st.enc
	if st.push {
		st.credits = make(chan struct{}, streamCreditCap)
	}

	cs.mu.Lock()
	if cs.streams == nil {
		cs.streams = make(map[uint64]*serverStream)
	}
	if len(cs.streams) >= maxStreamsPerConn {
		cs.mu.Unlock()
		return response{ID: req.ID, Error: fmt.Sprintf("rpc.stream: more than %d streams on one connection", maxStreamsPerConn)}
	}
	cs.nextStream++
	st.id = cs.nextStream
	cs.streams[st.id] = st
	cs.mu.Unlock()

	if st.push {
		go cs.pusher(st)
	}

	raw, err := json.Marshal(streamOpenResponse{Stream: st.id})
	if err != nil {
		return response{ID: req.ID, Error: fmt.Sprintf("marshal result: %v", err)}
	}
	return response{ID: req.ID, Result: raw}
}

// collect builds the stream's next frame, header bytes reserved.
func (st *serverStream) collect() ([]byte, error) {
	st.enc.Begin()
	st.fw.err = nil
	if err := st.src.Collect(&st.fw); err != nil {
		return nil, err
	}
	if st.fw.err != nil {
		return nil, st.fw.err
	}
	return st.enc.finish(), nil
}

// pullStream serves a pull that arrived in any spelling but the canonical
// one: decode its params generically, then serve it as the recognised form.
func (cs *connState) pullStream(req *request) error {
	var pr streamIDRequest
	var errMsg string
	if err := json.Unmarshal(req.Params, &pr); err != nil {
		errMsg = fmt.Sprintf("malformed stream pull: %v", err)
	}
	return cs.servePull(req.ID, pr.S, errMsg)
}

// servePull answers one pull: one collected frame written as a binary frame,
// or a JSON error frame (a non-empty errMsg is a request that already failed
// to decode). The returned error is a connection write failure.
func (cs *connState) servePull(id, stream uint64, errMsg string) error {
	var frame []byte
	if errMsg == "" {
		if st := cs.lookup(stream); st == nil {
			errMsg = fmt.Sprintf("rpc.stream: unknown stream %d", stream)
		} else if st.push {
			errMsg = fmt.Sprintf("rpc.stream: stream %d is push-mode", stream)
		} else {
			var err error
			if frame, err = st.collect(); err != nil {
				errMsg = err.Error()
			}
		}
	}
	if d := cs.srv.currentFaults().Delay; d > 0 {
		time.Sleep(d) // injected fault: slow node
	}
	if errMsg != "" {
		return cs.write(response{ID: id, Error: errMsg})
	}
	return cs.writeBinary(frame)
}

// The fixed bytes of the request appendStreamRequest emits for a pull.
var (
	pullRequestHead = []byte(`{"id":`)
	pullRequestMid  = []byte(`,"method":"` + MethodStreamPull + `","params":{"s":`)
	pullRequestTail = []byte(`}}`)
)

// parsePullRequest recognises exactly the bytes appendStreamRequest emits
// for a pull and returns its call id and stream id. Anything else, valid
// JSON that means the same included, is left to the generic decode; whenever
// it does accept, json.Unmarshal yields the same two numbers.
func parsePullRequest(body []byte) (id, stream uint64, ok bool) {
	rest, ok1 := bytes.CutPrefix(body, pullRequestHead)
	id, rest, ok2 := cutCanonicalUint(rest)
	rest, ok3 := bytes.CutPrefix(rest, pullRequestMid)
	stream, rest, ok4 := cutCanonicalUint(rest)
	return id, stream, ok1 && ok2 && ok3 && ok4 && bytes.Equal(rest, pullRequestTail)
}

// cutCanonicalUint cuts a leading number as strconv.AppendUint writes one: no
// sign, no leading zero, and at most 19 digits, which cannot overflow.
func cutCanonicalUint(b []byte) (v uint64, rest []byte, ok bool) {
	n := 0
	for n < len(b) && n < 19 && b[n] >= '0' && b[n] <= '9' {
		v = v*10 + uint64(b[n]-'0')
		n++
	}
	if n == 0 || (b[0] == '0' && n > 1) || (n < len(b) && b[n] >= '0' && b[n] <= '9') {
		return 0, b, false
	}
	return v, b[n:], true
}

// creditStream serves one MethodStreamCredit request. Credits to unknown or
// pull-mode streams are dropped — the stream may have raced with a
// reconnect, and there is no response channel to report on.
func (cs *connState) creditStream(req *request) {
	var cr streamIDRequest
	if err := json.Unmarshal(req.Params, &cr); err != nil {
		return
	}
	st := cs.lookup(cr.S)
	if st == nil || !st.push {
		return
	}
	for i := 0; i < cr.N; i++ {
		select {
		case st.credits <- struct{}{}:
		default:
			return // credit buffer full; the client is not reading anyway
		}
	}
}

// pusher is the per-stream push goroutine: one collected frame per granted
// credit, paced to the stream's period. It exits when the connection dies
// (done closed, or a write fails).
func (cs *connState) pusher(st *serverStream) {
	var last time.Time
	for {
		select {
		case <-cs.done:
			return
		case <-st.credits:
		}
		if st.period > 0 && !last.IsZero() {
			if wait := st.period - time.Since(last); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-cs.done:
					t.Stop()
					return
				case <-t.C:
				}
			}
		}
		frame, err := st.collect()
		if d := cs.srv.currentFaults().Delay; d > 0 {
			time.Sleep(d) // injected fault: slow node
		}
		var werr error
		if err != nil {
			// Error frames ride as JSON with id 0; the subscriber surfaces
			// them as a RemoteError from its next Fetch.
			werr = cs.write(response{Error: fmt.Sprintf("rpc.stream %d: %v", st.id, err)})
		} else {
			werr = cs.writeBinary(frame)
		}
		if werr != nil {
			return
		}
		last = time.Now()
	}
}

// appendStreamRequest appends the request body for a pull or credit call —
// hand-rolled (no encoding/json) so a pooled dst keeps the per-tick encode
// allocation-free. The server recognises a pull by exactly these
// bytes (parsePullRequest); changing them only costs it the fast path.
func appendStreamRequest(dst []byte, id uint64, method string, stream uint64, n int) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, id, 10)
	dst = append(dst, `,"method":"`...)
	dst = append(dst, method...)
	dst = append(dst, `","params":{"s":`...)
	dst = strconv.AppendUint(dst, stream, 10)
	if n > 0 {
		dst = append(dst, `,"n":`...)
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	return append(dst, `}}`...)
}

// openStream performs the JSON open call and returns the stream id.
func (c *Client) openStream(method string, params json.RawMessage, push bool, period time.Duration) (uint64, error) {
	var resp streamOpenResponse
	req := streamOpenRequest{Method: method, Params: params, Push: push, PeriodMS: period.Milliseconds()}
	if err := c.Call(MethodStreamOpen, req, &resp); err != nil {
		return 0, err
	}
	return resp.Stream, nil
}

// pullStream requests one frame from a pull-mode stream and decodes it into
// dec. The encode path uses pooled scratch and the frame is decoded in place
// in the client's read buffer, so the steady state allocates nothing.
func (c *Client) pullStream(id uint64, dec *ColumnarDecoder) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.nextID++
	c.armDeadline(0)
	if err := c.writeStreamRequest(MethodStreamPull, id, 0); err != nil {
		return err
	}
	return c.readStreamFrame(dec, MethodStreamPull, c.nextID)
}

// writeStreamRequest sends a pull or credit request under call id c.nextID.
func (c *Client) writeStreamRequest(method string, stream uint64, n int) error {
	bufp := frameScratch.Get().(*[]byte)
	frame := appendStreamRequest((*bufp)[:frameHeaderLen], c.nextID, method, stream, n)
	err := writeFrame(c.conn, frame, 0)
	*bufp = frame[:0]
	frameScratch.Put(bufp)
	return err
}

// fetchStream grants credits (if any) to a push-mode stream and reads the
// next frame. extra widens the read deadline beyond the call timeout to
// cover the server's push pacing.
func (c *Client) fetchStream(id uint64, dec *ColumnarDecoder, credits int, extra time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}

	c.armDeadline(extra)
	if credits > 0 {
		c.nextID++
		if err := c.writeStreamRequest(MethodStreamCredit, id, credits); err != nil {
			return err
		}
	}
	return c.readStreamFrame(dec, "rpc.stream", 0)
}

// readStreamFrame reads one frame: binary frames decode into dec, JSON
// frames must be error responses (a pull's error reply, or a push stream's
// in-band error frame with id 0).
func (c *Client) readStreamFrame(dec *ColumnarDecoder, method string, wantID uint64) error {
	body, isBin, err := c.fr.next()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return ErrClosed
		}
		return fmt.Errorf("rpc: call %s: %w", method, err)
	}
	if isBin {
		return dec.Decode(body)
	}
	var resp response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("rpc: call %s: unmarshal: %w", method, err)
	}
	if wantID != 0 && resp.ID != 0 && resp.ID != wantID {
		return fmt.Errorf("rpc: call %s: response id %d, want %d", method, resp.ID, wantID)
	}
	if resp.Error != "" {
		return &RemoteError{Method: method, Message: resp.Error}
	}
	return fmt.Errorf("rpc: call %s: unexpected JSON frame on stream", method)
}

// IsStreamUnsupported reports whether err means the remote end does not
// support the requested stream — either a columnar-aware server without
// that stream method, or a pre-columnar server rejecting rpc.stream.open as
// an unknown method. Callers use it to fall back to the JSON path.
func IsStreamUnsupported(err error) bool {
	var re *RemoteError
	if !errors.As(err, &re) {
		return false
	}
	return strings.Contains(re.Message, "rpc.stream: unsupported method") ||
		strings.Contains(re.Message, "unknown method")
}

// StreamClient is a pull-mode stream on a ManagedClient. It transparently
// reopens the stream after a reconnect (fresh server encoder, schema
// resync), so every Pull rides the managed client's breaker, backoff, and
// deadline discipline.
type StreamClient struct {
	m      *ManagedClient
	method string
	params json.RawMessage
	dec    *ColumnarDecoder
	cur    *Client // connection the stream was opened on
	id     uint64
}

// Stream opens a pull-mode columnar stream for method. params is marshaled
// once; the stream (re)opens lazily on first Pull and after reconnects.
func (m *ManagedClient) Stream(method string, params any) (*StreamClient, error) {
	raw, err := marshalStreamParams(params)
	if err != nil {
		return nil, err
	}
	return &StreamClient{m: m, method: method, params: raw, dec: NewColumnarDecoder()}, nil
}

// Pull fetches and decodes one frame. The returned rows are valid until the
// next Pull.
func (sc *StreamClient) Pull() ([]StreamRow, error) {
	sc.m.mu.Lock()
	defer sc.m.mu.Unlock()
	if err := sc.m.do(sc); err != nil {
		return nil, err
	}
	return sc.dec.Rows(), nil
}

// roundTrip pulls one frame on c, (re)opening the stream if c is a new connection.
func (sc *StreamClient) roundTrip(c *Client) error {
	if sc.cur != c {
		id, err := c.openStream(sc.method, sc.params, false, 0)
		if err != nil {
			return err
		}
		sc.dec.Reset()
		sc.id = id
		sc.cur = c
	}
	return c.pullStream(sc.id, sc.dec)
}

// Schema returns the stream's schema once the first frame has arrived.
func (sc *StreamClient) Schema() (StreamSchema, bool) { return sc.dec.Schema() }

// ManagedSubscription is a push-mode stream on a ManagedClient. The server
// collects and sends frames on its own cadence, bounded by a credit window;
// Fetch tops the window up and blocks for the next frame. Like StreamClient
// it resubscribes transparently after a reconnect.
type ManagedSubscription struct {
	m      *ManagedClient
	method string
	params json.RawMessage
	period time.Duration
	window int

	dec         *ColumnarDecoder
	cur         *Client
	id          uint64
	outstanding int // credits granted, frames not yet received
}

// Subscribe opens a push-mode columnar stream. period paces the server's
// pushes (zero means lockstep with credit arrival); window is the maximum
// number of frames in flight (minimum 1 — the server never runs more than
// window collects ahead of the client).
func (m *ManagedClient) Subscribe(method string, params any, period time.Duration, window int) (*ManagedSubscription, error) {
	raw, err := marshalStreamParams(params)
	if err != nil {
		return nil, err
	}
	if window < 1 {
		window = 1
	}
	if window > streamCreditCap {
		window = streamCreditCap
	}
	return &ManagedSubscription{
		m: m, method: method, params: raw, period: period, window: window,
		dec: NewColumnarDecoder(),
	}, nil
}

// Fetch grants the server enough credit to fill the window and blocks for
// the next pushed frame. The returned rows are valid until the next Fetch.
func (sub *ManagedSubscription) Fetch() ([]StreamRow, error) {
	sub.m.mu.Lock()
	defer sub.m.mu.Unlock()
	if err := sub.m.do(sub); err != nil {
		return nil, err
	}
	return sub.dec.Rows(), nil
}

// roundTrip tops up the credit window on c and reads one frame, resubscribing
// first if c is a new connection.
func (sub *ManagedSubscription) roundTrip(c *Client) error {
	if sub.cur != c {
		id, err := c.openStream(sub.method, sub.params, true, sub.period)
		if err != nil {
			return err
		}
		sub.dec.Reset()
		sub.id = id
		sub.cur = c
		sub.outstanding = 0
	}
	grant := sub.window - sub.outstanding
	if grant < 0 {
		grant = 0
	}
	if err := c.fetchStream(sub.id, sub.dec, grant, sub.period); err != nil {
		return err
	}
	sub.outstanding += grant - 1 // one frame was just consumed
	return nil
}

// Schema returns the stream's schema once the first frame has arrived.
func (sub *ManagedSubscription) Schema() (StreamSchema, bool) { return sub.dec.Schema() }

func marshalStreamParams(params any) (json.RawMessage, error) {
	if params == nil {
		return nil, nil
	}
	raw, err := json.Marshal(params)
	if err != nil {
		return nil, fmt.Errorf("rpc: marshal stream params: %w", err)
	}
	return raw, nil
}
