// Package rpc is ASDF's lightweight remote-procedure-call layer, standing in
// for ZeroC ICE in the paper's architecture (§3.5): each monitored node runs
// collection daemons (sadc_rpcd, hadoop_log_rpcd) and the control node polls
// them once per iteration.
//
// The wire protocol is length-prefixed JSON over TCP: a 4-byte big-endian
// frame length followed by a JSON body. A connection begins with a hello
// exchange (protocol version and service name), after which the client
// issues synchronous request/response calls. Both ends count exact wire
// bytes, which is how the Table 4 bandwidth experiment is measured.
//
// Every JSON body is encoding/json's spelling, but the per-tick replies are
// not spelled by reflection: a handler result implementing JSONAppender is
// appended into the response frame inside an envelope the server spells
// itself, and Client.Call reads that envelope in one pass and hands the
// result bytes to a result implementing JSONParser. The bytes select the
// path, as they do for a pull request: anything but the canonical envelope
// takes the json.Unmarshal decode, so the bytes on the wire and the values
// and errors a call returns are what they were when encoding/json did all
// of it.
package rpc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// ProtocolVersion identifies the wire protocol; the hello exchange rejects
// mismatches.
const ProtocolVersion = 1

// maxFrameBytes bounds a single frame; larger frames indicate a corrupt or
// hostile peer.
const maxFrameBytes = 16 << 20

// Errors returned by the client.
var (
	// ErrClosed is returned by calls on a closed client.
	ErrClosed = errors.New("rpc: connection closed")
)

// RemoteError is an error returned by the remote handler (as opposed to a
// transport failure).
type RemoteError struct {
	Method  string
	Message string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote error in %s: %s", e.Method, e.Message)
}

type helloRequest struct {
	Proto  int    `json:"proto"`
	Client string `json:"client"`
}

type helloResponse struct {
	Proto   int      `json:"proto"`
	Service string   `json:"service"`
	Methods []string `json:"methods"`
}

type request struct {
	ID     uint64          `json:"id"`
	Method string          `json:"method"`
	Params json.RawMessage `json:"params,omitempty"`
}

type response struct {
	ID     uint64          `json:"id"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// countingConn wraps a net.Conn with byte counters.
type countingConn struct {
	net.Conn
	read    atomic.Uint64
	written atomic.Uint64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(uint64(n))
	return n, err
}

// frameHeaderLen: a big-endian uint32 body length, high bit binaryFrameFlag.
const frameHeaderLen = 4

// writeFrame sends one frame in a single Write: one segment, one wake-up of
// the peer. frame is the body preceded by frameHeaderLen reserved bytes, which
// every encoder leaves free in the buffer it already owns and writeFrame fills.
func writeFrame(w io.Writer, frame []byte, flag uint32) error {
	n := len(frame) - frameHeaderLen
	if n > maxFrameBytes {
		return fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(frame, uint32(n)|flag)
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("rpc: write frame: %w", err)
	}
	return nil
}

// frameScratch pools the buffers outgoing frames are serialized in (each at
// least frameHeaderLen long), so the steady state encode path performs zero
// allocations regardless of frame size. The JSON frame writer, call requests
// and responses, and the stream request path share it.
var frameScratch = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// writeJSONFrame marshals v into pooled scratch and sends it as one frame.
func writeJSONFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("rpc: marshal: %w", err)
	}
	bufp := frameScratch.Get().(*[]byte)
	frame := append((*bufp)[:frameHeaderLen], body...)
	err = writeFrame(w, frame, 0)
	*bufp = frame[:0]
	frameScratch.Put(bufp)
	return err
}

// frameReader reads one connection's frames through a single reused,
// grow-on-demand buffer. Every Read asks for all the room the buffer has, so a
// frame that fits costs one Read, and bytes of a following frame that arrive
// with it (push streams send back-to-back) wait for the next call. It owns no
// other buffer: a bufio.Reader per connection end costs a fleet more live heap
// than the frames themselves.
type frameReader struct {
	r        io.Reader
	buf      []byte
	off, end int // buf[off:end] is read but not yet handed out
}

// The buffer grows in units of frameBufQuantum (one holds a stream pull
// request) up to frameBufKeep, which holds a steady-state columnar data
// frame. A larger frame (a schema, a JSON record) gets a buffer of its own, so
// what idle connections pin is bounded whatever the largest frame each saw.
const (
	frameBufQuantum = 64
	frameBufKeep    = 512
)

// fill reads until n <= frameBufKeep bytes are buffered, first sliding the
// partial frame to the front (of a bigger buffer if need be) to make room.
func (fr *frameReader) fill(n int) error {
	for fr.end-fr.off < n {
		if fr.off+n > len(fr.buf) {
			dst := fr.buf
			if n > len(dst) {
				dst = make([]byte, (n+frameBufQuantum-1)/frameBufQuantum*frameBufQuantum)
			}
			fr.end = copy(dst, fr.buf[fr.off:fr.end])
			fr.buf, fr.off = dst, 0
		}
		m, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += m
		if err != nil && fr.end-fr.off < n {
			return err
		}
	}
	return nil
}

// next returns the next frame's body and whether its header was tagged
// binary. The body is valid until the following call to next. io.EOF is
// returned only on a frame boundary.
func (fr *frameReader) next() (body []byte, isBinary bool, err error) {
	if fr.off == fr.end {
		fr.off, fr.end = 0, 0
	}
	if err := fr.fill(frameHeaderLen); err != nil {
		if err == io.EOF && fr.off == fr.end {
			return nil, false, io.EOF
		}
		return nil, false, midFrameError(err)
	}
	hdr := binary.BigEndian.Uint32(fr.buf[fr.off:])
	n := hdr &^ binaryFrameFlag
	if n > maxFrameBytes {
		return nil, false, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	if need := frameHeaderLen + int(n); need > frameBufKeep {
		body = make([]byte, n)
		have := copy(body, fr.buf[fr.off+frameHeaderLen:fr.end])
		fr.off, fr.end = 0, 0
		_, err = io.ReadFull(fr.r, body[have:])
	} else if err = fr.fill(need); err == nil {
		body = fr.buf[fr.off+frameHeaderLen : fr.off+need]
		fr.off += need
	}
	if err != nil {
		return nil, false, midFrameError(err)
	}
	return body, hdr&binaryFrameFlag != 0, nil
}

func midFrameError(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("rpc: read frame: %w", err)
}

// readJSON reads the next frame, which must be a JSON frame, into v.
func (fr *frameReader) readJSON(v any) error {
	body, isBinary, err := fr.next()
	if err != nil {
		return err // io.EOF passes through for clean shutdown detection
	}
	return decodeJSONFrame(body, isBinary, v)
}

// decodeJSONFrame decodes a frame body, which must be a JSON frame, into v.
func decodeJSONFrame(body []byte, isBinary bool, v any) error {
	if isBinary {
		return fmt.Errorf("rpc: unexpected binary frame of %d bytes", len(body))
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("rpc: unmarshal: %w", err)
	}
	return nil
}

// HandlerFunc serves one method. Params is the raw JSON sent by the client;
// the returned value is marshaled as the result.
type HandlerFunc func(params json.RawMessage) (any, error)

// JSONAppender is a value that spells its own JSON: AppendJSON appends to dst
// exactly the bytes json.Marshal gives for the value, or returns the error
// json.Marshal returns for it. A handler result or call params implementing
// it is appended straight into the outgoing frame.
type JSONAppender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// JSONParser is a call result that decodes its own JSON: ParseJSON leaves
// the value, and returns the error, that json.Unmarshal would for the same
// bytes into the zero value. Client.Call hands it the result bytes of the
// response frame, which it must not retain.
type JSONParser interface {
	ParseJSON(data []byte) error
}

// appendJSONValue appends v's JSON to dst: AppendJSON if v spells itself,
// else one json.Marshal.
func appendJSONValue(dst []byte, v any) ([]byte, error) {
	if a, ok := v.(JSONAppender); ok {
		return a.AppendJSON(dst)
	}
	b, err := json.Marshal(v)
	return append(dst, b...), err
}

// appendJSONString appends s as json.Marshal spells it: verbatim between
// quotes when no byte of it needs escaping, else by json.Marshal itself.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendRequest appends the body of a call request: the bytes
// json.Marshal(request{ID, Method, Params: json.Marshal(params)}) gives,
// spelled around the params' own bytes.
func appendRequest(frame []byte, id uint64, method string, params any) ([]byte, error) {
	frame = append(frame, `{"id":`...)
	frame = strconv.AppendUint(frame, id, 10)
	frame = append(frame, `,"method":`...)
	frame = appendJSONString(frame, method)
	if params != nil {
		var err error
		frame = append(frame, `,"params":`...)
		if frame, err = appendJSONValue(frame, params); err != nil {
			return frame, err
		}
	}
	return append(frame, '}'), nil
}

// appendResponse serves one call and appends its response body to frame.
// The envelope {"id":N,"result":…} is spelled straight into the frame around
// the result's own bytes (appendJSONValue); the bytes equal
// json.Marshal(response{ID, Result: json.Marshal(result)}), whose compaction
// of a marshalled result changes nothing.
func (s *Server) appendResponse(frame []byte, req *request) []byte {
	s.mu.Lock()
	h, ok := s.handlers[req.Method]
	s.mu.Unlock()
	if !ok {
		return appendErrorResponse(frame, req.ID, fmt.Sprintf("unknown method %q", req.Method))
	}
	result, err := h(req.Params)
	if err != nil {
		return appendErrorResponse(frame, req.ID, err.Error())
	}
	head := len(frame)
	frame = append(frame, `{"id":`...)
	frame = strconv.AppendUint(frame, req.ID, 10)
	frame = append(frame, `,"result":`...)
	if frame, err = appendJSONValue(frame, result); err != nil {
		return appendErrorResponse(frame[:head], req.ID, fmt.Sprintf("marshal result: %v", err))
	}
	return append(frame, '}')
}

func appendErrorResponse(frame []byte, id uint64, msg string) []byte {
	b, _ := json.Marshal(response{ID: id, Error: msg}) // cannot fail
	return append(frame, b...)
}

// The fixed bytes of a result response as appendResponse spells it.
var (
	callResponseHead = []byte(`{"id":`)
	callResponseMid  = []byte(`,"result":`)
)

// parseCallResponse recognises the envelope appendResponse emits and cuts
// out the result bytes. It does not check that they are one JSON value: the
// decode of the result does (see Client.Call).
func parseCallResponse(body []byte) (id uint64, result []byte, ok bool) {
	rest, ok1 := bytes.CutPrefix(body, callResponseHead)
	id, rest, ok2 := cutCanonicalUint(rest)
	rest, ok3 := bytes.CutPrefix(rest, callResponseMid)
	result, ok4 := bytes.CutSuffix(rest, []byte{'}'})
	return id, result, ok1 && ok2 && ok3 && ok4 && len(result) > 0
}

// DecodeResult decodes a call's result bytes into result as Client.Call
// does: ParseJSON if result decodes itself, else one json.Unmarshal. Fakes
// of Caller decode their canned replies with it.
func DecodeResult(data []byte, result any) error {
	if p, ok := result.(JSONParser); ok {
		return p.ParseJSON(data)
	}
	return json.Unmarshal(data, result)
}

// Faults configures server-side fault injection, used by tests and chaos
// drills to exercise the collection plane's failure handling without a real
// network. The zero value injects nothing.
type Faults struct {
	// RefuseNew closes newly accepted connections before the hello
	// exchange, simulating a daemon that is up but wedged.
	RefuseNew bool
	// Delay sleeps this long before every response, simulating a slow
	// node; pair with a short client CallTimeout to force timeouts.
	Delay time.Duration
}

// Server dispatches calls to registered handlers. The zero value is not
// usable; create with NewServer.
type Server struct {
	service string

	mu             sync.Mutex
	handlers       map[string]HandlerFunc
	streamHandlers map[string]StreamHandlerFunc
	listener       net.Listener
	conns          map[net.Conn]bool
	closed         bool
	faults         Faults

	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
}

// NewServer creates a server identifying itself as service in the hello
// exchange.
func NewServer(service string) *Server {
	return &Server{
		service:        service,
		handlers:       make(map[string]HandlerFunc),
		streamHandlers: make(map[string]StreamHandlerFunc),
		conns:          make(map[net.Conn]bool),
	}
}

// Handle registers a handler for method. Registering a duplicate method is
// a programming error and panics.
func (s *Server) Handle(method string, h HandlerFunc) {
	if method == "" || h == nil {
		panic("rpc: Handle requires a method name and handler")
	}
	if isStreamMethod(method) {
		panic("rpc: " + method + " is reserved; the server dispatches it natively")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic(fmt.Sprintf("rpc: method %q registered twice", method))
	}
	s.handlers[method] = h
}

// Listen begins accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Serving happens on background goroutines; call
// Close to stop.
func (s *Server) Listen(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = l.Close()
		return nil, ErrClosed
	}
	s.listener = l
	s.mu.Unlock()

	go s.acceptLoop(l)
	return l.Addr(), nil
}

func (s *Server) acceptLoop(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// SetFaults replaces the server's injected faults; it applies to new
// connections and to responses on existing ones.
func (s *Server) SetFaults(f Faults) {
	s.mu.Lock()
	s.faults = f
	s.mu.Unlock()
}

// DropConns abruptly closes every active connection while keeping the
// listener up, simulating a network partition that severs established
// connections. It returns the number of connections dropped.
func (s *Server) DropConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for conn := range s.conns {
		_ = conn.Close()
		n++
	}
	return n
}

func (s *Server) currentFaults() Faults {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

func (s *Server) serveConn(raw net.Conn) {
	cc := &countingConn{Conn: raw}
	cs := &connState{srv: s, cc: cc, done: make(chan struct{})}
	fr := frameReader{r: cc}
	defer func() {
		close(cs.done) // retire this connection's push goroutines
		s.bytesRead.Add(cc.read.Load())
		s.bytesWritten.Add(cc.written.Load())
		_ = raw.Close()
		s.mu.Lock()
		delete(s.conns, raw)
		s.mu.Unlock()
	}()

	if s.currentFaults().RefuseNew {
		return // injected fault: drop the connection before hello
	}

	var hello helloRequest
	if err := fr.readJSON(&hello); err != nil {
		return
	}
	if hello.Proto != ProtocolVersion {
		_ = cs.write(response{Error: fmt.Sprintf("unsupported protocol %d", hello.Proto)})
		return
	}
	s.mu.Lock()
	methods := make([]string, 0, len(s.handlers)+1)
	for m := range s.handlers {
		methods = append(methods, m)
	}
	if len(s.streamHandlers) > 0 {
		methods = append(methods, MethodStreamOpen)
	}
	s.mu.Unlock()
	if err := cs.write(helloResponse{Proto: ProtocolVersion, Service: s.service, Methods: methods}); err != nil {
		return
	}

	for {
		body, isBinary, err := fr.next()
		if err != nil || isBinary {
			return // clients never send binary frames
		}
		// The bytes appendStreamRequest emits for a pull select the path
		// that serves it without encoding/json; any other spelling of a
		// pull, and every other method, takes the generic decode.
		if id, stream, ok := parsePullRequest(body); ok {
			if cs.servePull(id, stream, "") != nil {
				return
			}
			continue
		}
		// A fresh request per frame: json copies Params out of body, so what
		// a handler keeps never aliases the buffer the next frame overwrites.
		var req request
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		switch req.Method {
		case MethodStreamPull:
			// Collects, applies the delay fault, and writes the binary (or
			// JSON error) frame itself.
			if err := cs.pullStream(&req); err != nil {
				return
			}
		case MethodStreamCredit:
			// Fire-and-forget: credits wake the stream's pusher, which owns
			// the response frames.
			cs.creditStream(&req)
		case MethodStreamOpen:
			resp := cs.openStream(&req)
			s.injectDelay()
			if err := cs.write(resp); err != nil {
				return
			}
		default:
			bufp := frameScratch.Get().(*[]byte)
			frame := s.appendResponse((*bufp)[:frameHeaderLen], &req)
			s.injectDelay()
			err := cs.writeJSON(frame)
			*bufp = frame[:0]
			frameScratch.Put(bufp)
			if err != nil {
				return
			}
		}
	}
}

// injectDelay applies the slow-node fault before a response is sent.
func (s *Server) injectDelay() {
	if d := s.currentFaults().Delay; d > 0 {
		time.Sleep(d)
	}
}

// Close stops the listener and closes all active connections.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for conn := range s.conns {
		_ = conn.Close()
	}
	return err
}

// Stats reports total wire bytes over all finished and active accounting
// periods (bytes from connections still open are flushed on their close).
func (s *Server) Stats() (bytesRead, bytesWritten uint64) {
	return s.bytesRead.Load(), s.bytesWritten.Load()
}

// Client is a synchronous RPC client over one TCP connection. Safe for
// concurrent use; calls are serialized on the connection.
type Client struct {
	mu      sync.Mutex
	conn    *countingConn
	fr      frameReader // response frames; its buffer is the only one the client owns
	closed  bool
	nextID  uint64
	timeout time.Duration

	// Service and Methods are populated from the hello exchange.
	Service string
	Methods []string
}

// DialOption customizes Dial.
type DialOption func(*Client)

// WithCallTimeout sets a per-call deadline (default 10s).
func WithCallTimeout(d time.Duration) DialOption {
	return func(c *Client) { c.timeout = d }
}

// Dial connects to an RPC server, performs the hello exchange, and returns
// a ready client.
func Dial(addr, clientName string, opts ...DialOption) (*Client, error) {
	raw, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	c, err := newClient(raw, clientName, opts...)
	if err != nil {
		_ = raw.Close()
	}
	return c, err
}

// newClient performs the hello exchange over an established connection.
func newClient(raw net.Conn, clientName string, opts ...DialOption) (*Client, error) {
	c := &Client{conn: &countingConn{Conn: raw}, timeout: 10 * time.Second}
	c.fr.r = c.conn
	for _, o := range opts {
		o(c)
	}
	c.armDeadline(0)
	if err := writeJSONFrame(c.conn, helloRequest{Proto: ProtocolVersion, Client: clientName}); err != nil {
		return nil, err
	}
	var hello helloResponse
	if err := c.fr.readJSON(&hello); err != nil {
		return nil, fmt.Errorf("rpc: hello: %w", err)
	}
	if hello.Proto != ProtocolVersion {
		return nil, fmt.Errorf("rpc: server speaks protocol %d, want %d", hello.Proto, ProtocolVersion)
	}
	c.Service = hello.Service
	c.Methods = hello.Methods
	return c, nil
}

// armDeadline bounds the exchange about to start at the call timeout plus
// extra. Nothing clears it afterwards: every exchange arms its own before it
// touches the socket, so a deadline left on an idle connection is never
// observed, and clearing it is a second runtime timer operation per call.
func (c *Client) armDeadline(extra time.Duration) {
	_ = c.conn.SetDeadline(time.Now().Add(c.timeout + extra))
}

// Call invokes method with params (marshaled to JSON) and unmarshals the
// result into result (which may be nil to discard). Params implementing
// JSONAppender and a result implementing JSONParser spell and decode
// themselves.
func (c *Client) Call(method string, params, result any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	want, err := c.sendCall(method, params)
	if err != nil {
		return err
	}
	body, isBinary, err := c.fr.next()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return ErrClosed
		}
		return fmt.Errorf("rpc: call %s: %w", method, err)
	}
	return decodeCallResponse(method, want, body, isBinary, result)
}

// sendCall spells the request of the next call in pooled scratch and sends
// it, returning the call's id. The caller must hold c.mu.
func (c *Client) sendCall(method string, params any) (uint64, error) {
	bufp := frameScratch.Get().(*[]byte)
	defer frameScratch.Put(bufp)
	frame, err := appendRequest((*bufp)[:frameHeaderLen], c.nextID+1, method, params)
	*bufp = frame[:0]
	if err != nil {
		return 0, fmt.Errorf("rpc: marshal params: %w", err)
	}
	if c.closed {
		return 0, ErrClosed
	}
	c.nextID++
	c.armDeadline(0)
	return c.nextID, writeFrame(c.conn, frame, 0)
}

// decodeCallResponse judges the response frame to call want of method and
// decodes its result. In one pass, the envelope appendResponse spells, with
// the id due, hands its result bytes straight to the result's decode. If
// those bytes are not one JSON value (a SyntaxError, which leaves result
// untouched) the frame was some other JSON after all, and the envelope
// decode below judges it as it judges every other spelling.
func decodeCallResponse(method string, want uint64, body []byte, isBinary bool, result any) error {
	if id, res, ok := parseCallResponse(body); !isBinary && ok && id == want && result != nil {
		err := DecodeResult(res, result)
		if err == nil {
			return nil
		}
		if syntax := (*json.SyntaxError)(nil); !errors.As(err, &syntax) {
			return fmt.Errorf("rpc: call %s: unmarshal result: %w", method, err)
		}
	}
	var resp response
	if err := decodeJSONFrame(body, isBinary, &resp); err != nil {
		return fmt.Errorf("rpc: call %s: %w", method, err)
	}
	if resp.ID != want {
		return fmt.Errorf("rpc: call %s: response id %d, want %d", method, resp.ID, want)
	}
	if resp.Error != "" {
		return &RemoteError{Method: method, Message: resp.Error}
	}
	if result != nil && resp.Result != nil {
		if err := DecodeResult(resp.Result, result); err != nil {
			return fmt.Errorf("rpc: call %s: unmarshal result: %w", method, err)
		}
	}
	return nil
}

// Stats reports the exact wire bytes sent and received by this client,
// including the hello exchange.
func (c *Client) Stats() (bytesSent, bytesReceived uint64) {
	return c.conn.written.Load(), c.conn.read.Load()
}

// Close closes the connection. Subsequent calls return ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}
