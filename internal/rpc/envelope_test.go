package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// spelledResult spells and decodes itself through the JSONAppender and
// JSONParser contracts, by encoding/json itself, so the envelope is tested
// apart from any hand-written payload codec.
type spelledResult struct {
	A int
	B []string
}

func (r spelledResult) AppendJSON(dst []byte) ([]byte, error) {
	b, err := json.Marshal(struct {
		A int
		B []string
	}(r))
	return append(dst, b...), err
}

func (r *spelledResult) ParseJSON(data []byte) error {
	return json.Unmarshal(data, (*struct {
		A int
		B []string
	})(r))
}

// parentResponse is the response body the server sent before the envelope
// was appended by hand: the result marshalled, then the envelope marshalled
// around it.
func parentResponse(id uint64, result any, err error) []byte {
	resp := response{ID: id}
	if err != nil {
		resp.Error = err.Error()
	} else if raw, err := json.Marshal(result); err != nil {
		resp.Error = fmt.Sprintf("marshal result: %v", err)
	} else {
		resp.Result = raw
	}
	b, _ := json.Marshal(resp)
	return b
}

// envelopeResults are handler results with every spelling the envelope must
// carry verbatim: escapes, HTML characters, U+2028, invalid UTF-8, nil, a
// raw message with whitespace, and values json.Marshal refuses.
func envelopeResults() []any {
	return []any{
		nil,
		map[string]any{"b": 1.5e-7, "a": []any{"<x>", "&", " ", "\xff"}},
		"plain",
		json.RawMessage(` { "spaced" : [ 1 , 2 ] } `),
		spelledResult{A: 7, B: []string{"x", "y\n"}},
		spelledResult{},
		[]float64{0, math.Copysign(0, -1), 1e21, 5e-324, math.MaxFloat64},
		struct{ F float64 }{math.NaN()},
		map[string]float64{"inf": math.Inf(1)},
	}
}

// TestAppendResponseMatchesMarshal: the envelope appended by hand around a
// result, spelled by itself or by json.Marshal, is byte for byte the body the
// server marshalled twice before, and a result json.Marshal refuses gives the
// same error response.
func TestAppendResponseMatchesMarshal(t *testing.T) {
	srv := NewServer("envelope")
	results := envelopeResults()
	for i, r := range results {
		srv.Handle(fmt.Sprintf("m%d", i), func(json.RawMessage) (any, error) { return r, nil })
	}
	srv.Handle("fails", func(json.RawMessage) (any, error) { return nil, errors.New(`disk "on" <fire>`) })
	for _, id := range []uint64{0, 1, 9, 10, 1<<64 - 1} {
		for i, r := range results {
			req := request{ID: id, Method: fmt.Sprintf("m%d", i)}
			got := srv.appendResponse([]byte("hdr"), &req)
			if want := parentResponse(id, r, nil); string(got) != "hdr"+string(want) {
				t.Errorf("result %d, id %d: appended %q, want %q", i, id, got[3:], want)
			}
		}
		req := request{ID: id, Method: "fails"}
		if got, want := srv.appendResponse(nil, &req), parentResponse(id, nil, errors.New(`disk "on" <fire>`)); string(got) != string(want) {
			t.Errorf("handler error: appended %q, want %q", got, want)
		}
		req = request{ID: id, Method: "nope"}
		want, _ := json.Marshal(response{ID: id, Error: `unknown method "nope"`})
		if got := srv.appendResponse(nil, &req); string(got) != string(want) {
			t.Errorf("unknown method: appended %q, want %q", got, want)
		}
	}
}

// TestAppendRequestMatchesMarshal: the request appended by hand is the one
// json.Marshal(request{…}) gave, params included, for methods that need
// escaping too; params json.Marshal refuses give its error.
func TestAppendRequestMatchesMarshal(t *testing.T) {
	for _, method := range []string{"sadc.collect", `odd "m" <&>`, " \xff", ""} {
		for _, params := range append(envelopeResults(), struct{ Kind string }{"datanode"}) {
			got, err := appendRequest([]byte("hdr"), 42, method, params)
			req := request{ID: 42, Method: method}
			var wantErr error
			if params != nil {
				req.Params, wantErr = json.Marshal(params)
			}
			if wantErr != nil || err != nil {
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Errorf("method %q, params %#v: error %v, want %v", method, params, err, wantErr)
				}
				continue
			}
			want, _ := json.Marshal(req)
			if string(got) != "hdr"+string(want) {
				t.Errorf("method %q: appended %q, want %q", method, got[3:], want)
			}
		}
	}
}

// parentDecode is the client's response handling before the single pass:
// the envelope decoded whole, then its result decoded again (by
// DecodeResult, so that a result that decodes itself is judged against its
// own decode and a plain one against json.Unmarshal).
func parentDecode(method string, want uint64, body []byte, isBinary bool, result any) error {
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

// callResponseSeeds are response bodies for call 7: canonical ones, and
// every way a body can look canonical to a prefix match and still not be.
var callResponseSeeds = []string{
	`{"id":7,"result":{"A":1,"B":["x"]}}`,
	`{"id":7,"result":null}`,
	`{"id":7,"result":{}}`,
	`{"id":7,"error":"boom"}`,
	`{"id":7,"result":1,"error":"late"}`,
	`{"id":7,"result":1,"id":8}`,
	`{"id":8,"result":1}`,
	`{"id":07,"result":1}`,
	`{"id":7,"result":}`,
	`{"id":7,"result":{"A":"text"}}`,
	`{"id":7,"result":[1,2]}`,
	`{ "id":7, "result":{"A":2} }`,
	`{"result":{"A":3},"id":7}`,
	`{"id":7,"result":{"A":1}}}`,
	`{"id":7,"result":" "}`,
	`{"id":18446744073709551616,"result":1}`,
}

// checkCallDecode holds decodeCallResponse to parentDecode on one body for
// a result that decodes itself, one json.Unmarshal fills, and none.
func checkCallDecode(t *testing.T, body []byte) {
	t.Helper()
	targets := []func() any{
		func() any { return new(spelledResult) },
		func() any { return new(any) },
		func() any { return nil },
	}
	for _, target := range targets {
		for _, want := range []uint64{7, 8} {
			got, ref := target(), target()
			gotErr := decodeCallResponse("m", want, body, false, got)
			refErr := parentDecode("m", want, body, false, ref)
			if fmt.Sprint(gotErr) != fmt.Sprint(refErr) || !reflect.DeepEqual(got, ref) {
				t.Fatalf("body %q, id %d: single pass gave %#v, %v; two passes %#v, %v", body, want, got, gotErr, ref, refErr)
			}
		}
	}
}

// TestCallResponseDecodeMatchesParent: the single pass decodes every seed
// body to the value and error the two passes did.
func TestCallResponseDecodeMatchesParent(t *testing.T) {
	for _, s := range callResponseSeeds {
		checkCallDecode(t, []byte(s))
	}
	var remote *RemoteError
	err := decodeCallResponse("m", 7, []byte(`{"id":7,"result":1,"error":"late"}`), false, new(any))
	if !errors.As(err, &remote) || remote.Message != "late" {
		t.Errorf("a result followed by an error decoded to %v, want the remote error", err)
	}
	if err := decodeCallResponse("m", 7, []byte(`{"id":7}`), true, new(any)); err == nil || !strings.Contains(err.Error(), "binary frame") {
		t.Errorf("a binary reply decoded to %v", err)
	}
}

// FuzzParseCallResponse: for any response body the single-pass decode and
// the parent's two passes return the same error and leave the same value, so
// the envelope recogniser can never change what a call returns; and neither
// panics.
func FuzzParseCallResponse(f *testing.F) {
	for _, s := range callResponseSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkCallDecode(t, body)
		id, res, ok := parseCallResponse(body)
		if !ok || !json.Valid(res) {
			return
		}
		var resp response
		if err := json.Unmarshal(body, &resp); err != nil || resp.ID != id || string(resp.Result) != string(res) || resp.Error != "" {
			t.Fatalf("recogniser read id %d, result %q from %q; generic decode %+v, %v", id, res, body, resp, err)
		}
	})
}
