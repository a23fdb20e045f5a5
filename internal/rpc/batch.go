package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// Batched calls: several method invocations against one node in one request
// frame and one response frame. A collector that needs N methods per node
// per tick (e.g. the sadc node/net/proc metric groups) pays one network
// round trip instead of N, which is what keeps per-tick collection latency
// flat as the per-node method count grows. The batch rides inside the
// ordinary request/response frames — the reserved method MethodBatch carries
// an array of sub-requests as its params and an array of sub-results as its
// result — so byte accounting, fault injection, and per-connection
// serialization all apply to a batch exactly as to a single call.

// MethodBatch is the reserved method name for a batched request frame. Its
// params are a JSON array of {id, method, params} items; its result is a
// JSON array of {id, result, error} items. Every server dispatches it
// natively; handlers cannot register it.
const MethodBatch = "rpc.batch"

// BatchCall is one method invocation inside a CallBatch frame. Params must
// be pre-marshaled JSON (or nil for no parameters) — marshaling once at
// wiring time is what keeps the per-tick encode path allocation-free.
// After CallBatch returns nil, Err holds this call's outcome (nil or a
// *RemoteError) and, when Err is nil, Result has been filled in. When
// CallBatch itself returns an error (a transport failure), the per-call
// fields are unspecified.
type BatchCall struct {
	// Method is the remote method name.
	Method string
	// Params is the pre-marshaled parameter JSON; nil sends no params.
	Params json.RawMessage
	// Result, when non-nil, receives the unmarshaled result.
	Result any
	// Err is this call's outcome, set by CallBatch.
	Err error
}

// BatchCaller is the batched call surface. *Client and *ManagedClient both
// implement it; collection sources type-assert against it to decide whether
// a connection supports batching (a custom test dialer may not).
type BatchCaller interface {
	CallBatch(calls []BatchCall) error
}

var (
	_ BatchCaller = (*Client)(nil)
	_ BatchCaller = (*ManagedClient)(nil)
)

// batchItem is the wire form of one sub-request inside a MethodBatch frame.
type batchItem struct {
	ID     uint64          `json:"id"`
	Method string          `json:"method"`
	Params json.RawMessage `json:"params,omitempty"`
}

// batchResult is the wire form of one sub-result.
type batchResult struct {
	ID     uint64          `json:"id"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// frameScratch pools the buffers outgoing frames are serialized in (each at
// least frameHeaderLen long), so the steady state encode path performs zero
// allocations regardless of frame size.
var frameScratch = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// appendBatchRequest appends the full MethodBatch request body — the outer
// request envelope plus every sub-request — to dst and returns the extended
// slice. It is hand-rolled (no encoding/json) so a pooled dst makes the
// whole encode allocation-free; sub-request ids are the calls' indexes.
func appendBatchRequest(dst []byte, id uint64, calls []BatchCall) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, id, 10)
	dst = append(dst, `,"method":"`...)
	dst = append(dst, MethodBatch...)
	dst = append(dst, `","params":[`...)
	for i, c := range calls {
		if c.Method == "" {
			return nil, fmt.Errorf("rpc: batch call %d: empty method", i)
		}
		if c.Method == MethodBatch {
			return nil, fmt.Errorf("rpc: batch call %d: nested batch", i)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendUint(dst, uint64(i), 10)
		dst = append(dst, `,"method":`...)
		dst = appendJSONString(dst, c.Method)
		if len(c.Params) > 0 {
			dst = append(dst, `,"params":`...)
			dst = append(dst, c.Params...)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `]}`...)
	return dst, nil
}

// appendJSONString appends s as a JSON string literal, escaping the
// characters the grammar requires (quote, backslash, control bytes).
// Method names are short ASCII identifiers, so the fast path is a straight
// copy.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			dst = append(dst, '\\', '"')
		case c == '\\':
			dst = append(dst, '\\', '\\')
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0',
				"0123456789abcdef"[c>>4], "0123456789abcdef"[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// CallBatch sends every call in one request frame and reads one response
// frame, filling each call's Result and Err in place. The returned error
// reports transport-level failures (and whole-batch remote rejections, as a
// *RemoteError); per-method handler errors land in the corresponding
// call's Err as a *RemoteError and do not fail the batch. An empty batch is
// a no-op.
func (c *Client) CallBatch(calls []BatchCall) error {
	if len(calls) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.nextID++
	id := c.nextID

	bufp := frameScratch.Get().(*[]byte)
	frame, err := appendBatchRequest((*bufp)[:frameHeaderLen], id, calls)
	if err != nil {
		frameScratch.Put(bufp)
		return err
	}
	c.armDeadline(0)
	werr := writeFrame(c.conn, frame, 0)
	*bufp = frame[:0]
	frameScratch.Put(bufp)
	if werr != nil {
		return werr
	}

	var resp response
	if err := c.fr.readJSON(&resp); err != nil {
		if errors.Is(err, io.EOF) {
			return ErrClosed
		}
		return fmt.Errorf("rpc: call %s: %w", MethodBatch, err)
	}
	if resp.ID != id {
		return fmt.Errorf("rpc: call %s: response id %d, want %d", MethodBatch, resp.ID, id)
	}
	if resp.Error != "" {
		return &RemoteError{Method: MethodBatch, Message: resp.Error}
	}

	var results []batchResult
	if err := json.Unmarshal(resp.Result, &results); err != nil {
		return fmt.Errorf("rpc: call %s: unmarshal result: %w", MethodBatch, err)
	}
	for i := range calls {
		calls[i].Err = fmt.Errorf("rpc: call %s: no response for item %d (%s)",
			MethodBatch, i, calls[i].Method)
	}
	for _, r := range results {
		if r.ID >= uint64(len(calls)) {
			return fmt.Errorf("rpc: call %s: response for unknown item %d", MethodBatch, r.ID)
		}
		call := &calls[r.ID]
		if r.Error != "" {
			call.Err = &RemoteError{Method: call.Method, Message: r.Error}
			continue
		}
		call.Err = nil
		if call.Result != nil && r.Result != nil {
			if err := json.Unmarshal(r.Result, call.Result); err != nil {
				call.Err = fmt.Errorf("rpc: call %s: unmarshal result: %w", call.Method, err)
			}
		}
	}
	return nil
}

// batchResults serves one MethodBatch frame's items: each sub-request goes
// through the ordinary dispatch table and its outcome (result or error) is
// recorded under the sub-request's id. A failing item never fails its
// siblings, and nesting batches is rejected per item. A non-empty errMsg
// reports a malformed frame (the whole batch fails).
func (s *Server) batchResults(req *request) (results []batchResult, errMsg string) {
	var items []batchItem
	if err := json.Unmarshal(req.Params, &items); err != nil {
		return nil, fmt.Sprintf("malformed batch: %v", err)
	}
	results = make([]batchResult, len(items))
	for i, it := range items {
		results[i].ID = it.ID
		if it.Method == MethodBatch {
			results[i].Error = "nested batch not allowed"
			continue
		}
		r := s.dispatch(&request{ID: it.ID, Method: it.Method, Params: it.Params})
		results[i].Result = r.Result
		results[i].Error = r.Error
	}
	return results, ""
}

// appendBatchResponse appends the full MethodBatch response body — the outer
// response envelope plus every sub-result — to dst and returns the extended
// slice: the server-side mirror of appendBatchRequest, hand-rolled so a
// pooled dst makes the reply encode allocation-free too. Sub-results carry
// already-serialized JSON straight through.
func appendBatchResponse(dst []byte, id uint64, results []batchResult) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, id, 10)
	dst = append(dst, `,"result":[`...)
	for i, r := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendUint(dst, r.ID, 10)
		if len(r.Result) > 0 {
			dst = append(dst, `,"result":`...)
			dst = append(dst, r.Result...)
		}
		if r.Error != "" {
			dst = append(dst, `,"error":`...)
			dst = appendJSONString(dst, r.Error)
		}
		dst = append(dst, '}')
	}
	return append(dst, `]}`...)
}

// serveBatch serves one MethodBatch frame end to end, encoding the reply
// through pooled scratch and writing it as one frame. The returned error
// is a connection write failure.
func (cs *connState) serveBatch(req *request) error {
	results, errMsg := cs.srv.batchResults(req)
	if d := cs.srv.currentFaults().Delay; d > 0 {
		time.Sleep(d) // injected fault: slow node
	}
	if errMsg != "" {
		return cs.write(response{ID: req.ID, Error: errMsg})
	}
	bufp := frameScratch.Get().(*[]byte)
	frame := appendBatchResponse((*bufp)[:frameHeaderLen], req.ID, results)
	err := cs.writeFramed(frame, 0)
	*bufp = frame[:0]
	frameScratch.Put(bufp)
	return err
}
