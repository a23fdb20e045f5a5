package modules

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/procfs"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/sadc"
)

// RPC method names served by the per-node collection daemons (§3.1: each
// data-collection module abc has an abc_rpcd counterpart on the remote
// node).
const (
	// MethodSadcCollect returns one sadc.Record.
	MethodSadcCollect = "sadc.collect"
	// MethodHadoopLogVectors returns newly finalized state vectors.
	MethodHadoopLogVectors = "hadoop_log.vectors"
)

// Service names announced in the RPC hello.
const (
	ServiceSadc      = "sadc_rpcd"
	ServiceHadoopLog = "hadoop_log_rpcd"
)

// stateVectorWire is the JSON encoding of a hadooplog.StateVector.
type stateVectorWire struct {
	Time   time.Time `json:"t"`
	Counts []float64 `json:"c"`
}

// vectorsRequest selects which daemon log to read.
type vectorsRequest struct {
	Kind string `json:"kind"` // "tasktracker" or "datanode"
}

// vectorsResponse carries newly finalized per-second vectors.
type vectorsResponse struct {
	Vectors []stateVectorWire `json:"vectors"`
}

// RegisterSadcServer exposes a sadc collector for one node over RPC.
// Collection state (the previous snapshot for rate conversion) lives in the
// daemon, as with the paper's sadc_rpcd: sadc.collect returns the full
// record, and the columnar stream counterpart (sadc.metrics) serves wire =
// columnar clients, each stream open with a collector — and so a rate
// baseline — of its own.
func RegisterSadcServer(srv *rpc.Server, provider procfs.Provider) {
	registerSadcStream(srv, provider)
	registerSadcJSON(srv, provider)
}

// registerSadcJSON registers the JSON request/response method alone — the
// full surface of a pre-columnar daemon, which tests use to prove the
// client-side fallback.
func registerSadcJSON(srv *rpc.Server, provider procfs.Provider) {
	// One collector, and so one rate baseline, per daemon (§3.5). The server
	// serves each connection on a goroutine of its own, so the calls of
	// several clients take turns on it.
	var mu sync.Mutex
	collector := sadc.NewCollector(provider)
	srv.Handle(MethodSadcCollect, func(json.RawMessage) (any, error) {
		mu.Lock()
		defer mu.Unlock()
		rec, err := collector.Collect()
		if err != nil {
			return nil, err
		}
		return recordJSON{rec}, nil
	})
}

// LogSource yields newly finalized state vectors from one node's log of one
// kind. Implementations exist for local buffers and for remote daemons.
type LogSource interface {
	Fetch(now time.Time) ([]hadooplog.StateVector, error)
}

// bufferLogSource parses a hadooplog.Buffer incrementally.
type bufferLogSource struct {
	buf    *hadooplog.Buffer
	parser *hadooplog.Parser
	cursor uint64
}

// NewBufferLogSource creates a LogSource reading from an in-process log
// buffer (local collection mode, and the guts of hadoop_log_rpcd).
func NewBufferLogSource(kind hadooplog.Kind, buf *hadooplog.Buffer) LogSource {
	return &bufferLogSource{buf: buf, parser: hadooplog.NewParser(kind)}
}

func (s *bufferLogSource) Fetch(now time.Time) ([]hadooplog.StateVector, error) {
	lines, next := s.buf.ReadFrom(s.cursor)
	s.cursor = next
	for _, l := range lines {
		if err := s.parser.ParseLine(l); err != nil {
			return nil, err
		}
	}
	s.parser.Flush(now)
	return s.parser.Drain(), nil
}

// RegisterHadoopLogServer exposes the node's TaskTracker and DataNode log
// parsers over RPC. now supplies the flush horizon (virtual time in
// simulation, wall clock in deployment).
func RegisterHadoopLogServer(srv *rpc.Server, tt, dn *hadooplog.Buffer, now func() time.Time) {
	registerHadoopLogStream(srv, tt, dn, now)
	registerHadoopLogJSON(srv, tt, dn, now)
}

// registerHadoopLogJSON registers the JSON vectors method alone — the full
// surface of a pre-columnar daemon, which tests use to prove the
// client-side fallback.
func registerHadoopLogJSON(srv *rpc.Server, tt, dn *hadooplog.Buffer, now func() time.Time) {
	sources := map[string]LogSource{
		hadooplog.KindTaskTracker.String(): NewBufferLogSource(hadooplog.KindTaskTracker, tt),
		hadooplog.KindDataNode.String():    NewBufferLogSource(hadooplog.KindDataNode, dn),
	}
	// One cursor and parser per log kind per daemon, shared by every
	// connection's goroutine, so fetches take turns on them.
	var mu sync.Mutex
	srv.Handle(MethodHadoopLogVectors, func(params json.RawMessage) (any, error) {
		var req vectorsRequest
		if err := json.Unmarshal(params, &req); err != nil {
			return nil, err
		}
		src, ok := sources[req.Kind]
		if !ok {
			return nil, fmt.Errorf("unknown log kind %q", req.Kind)
		}
		mu.Lock()
		vecs, err := src.Fetch(now())
		mu.Unlock()
		if err != nil {
			return nil, err
		}
		resp := vectorsResponse{Vectors: make([]stateVectorWire, len(vecs))}
		for i, v := range vecs {
			resp.Vectors[i] = stateVectorWire{Time: v.Time, Counts: v.Counts}
		}
		return resp, nil
	})
}

// healthReporter is implemented by supervised clients (rpc.ManagedClient);
// sources forward it so modules can expose per-node connection health.
type healthReporter interface {
	Health() rpc.Health
}

// sourceHealth extracts connection health from a source's client, if the
// client is supervised.
func sourceHealth(client rpc.Caller) (rpc.Health, bool) {
	hr, ok := client.(healthReporter)
	if !ok {
		return rpc.Health{}, false
	}
	return hr.Health(), true
}

// rpcLogSource fetches vectors from a remote hadoop_log_rpcd.
type rpcLogSource struct {
	client rpc.Caller
	kind   hadooplog.Kind
}

// NewRPCLogSource creates a LogSource backed by a remote daemon.
func NewRPCLogSource(client rpc.Caller, kind hadooplog.Kind) LogSource {
	return &rpcLogSource{client: client, kind: kind}
}

func (s *rpcLogSource) Fetch(time.Time) ([]hadooplog.StateVector, error) {
	var resp vectorsResponse
	err := s.client.Call(MethodHadoopLogVectors, vectorsRequest{Kind: s.kind.String()}, &resp)
	if err != nil {
		return nil, err
	}
	out := make([]hadooplog.StateVector, len(resp.Vectors))
	for i, v := range resp.Vectors {
		out[i] = hadooplog.StateVector{Time: v.Time, Counts: v.Counts}
	}
	return out, nil
}

// MetricSource yields one sadc record per collection iteration.
type MetricSource interface {
	Collect() (*sadc.Record, error)
}

// rpcMetricSource polls a remote sadc_rpcd.
type rpcMetricSource struct {
	client rpc.Caller
}

// NewRPCMetricSource creates a MetricSource backed by a remote sadc_rpcd.
func NewRPCMetricSource(client rpc.Caller) MetricSource {
	return &rpcMetricSource{client: client}
}

func (s *rpcMetricSource) Collect() (*sadc.Record, error) {
	var rec sadc.Record
	if err := s.client.Call(MethodSadcCollect, nil, recordJSON{&rec}); err != nil {
		return nil, err
	}
	return &rec, nil
}

// The sadc.collect and hadoop_log.vectors replies cross the wire once per
// node per tick, so both ends spell them by hand, in encoding/json's own
// spelling, through rpc.JSONAppender and rpc.JSONParser. The bytes select the
// path; no option does:
//
//   - jsonWriter spells only what it can spell exactly as json.Marshal does:
//     floats by encoding/json's rule, map keys sorted (int keys as their
//     decimal strings), times as Time.MarshalJSON writes them, and strings
//     that need no escaping. A reply holding anything else — NaN or ±Inf, a
//     year outside [0,9999], a string to escape — goes whole to
//     json.Marshal, so the bytes, or the error, are the marshaller's.
//   - jsonReader accepts only the spelling jsonWriter emits: no whitespace,
//     keys in order, every number and time exactly as it re-spells it. Any
//     other bytes go whole to json.Unmarshal. What it keeps is copied out of
//     the frame, which the client's reader reuses.

// recordJSON is the sadc.collect reply on the wire.
type recordJSON struct{ rec *sadc.Record }

// AppendJSON implements rpc.JSONAppender.
func (r recordJSON) AppendJSON(dst []byte) ([]byte, error) {
	if r.rec != nil {
		w := jsonWriter{b: dst, ok: true}
		w.record(r.rec)
		if w.ok {
			return w.b, nil
		}
	}
	return appendMarshal(dst, r.rec)
}

// ParseJSON implements rpc.JSONParser.
func (r recordJSON) ParseJSON(data []byte) error {
	rd := jsonReader{b: data, ok: true}
	if rec := rd.record(); rd.done() {
		*r.rec = rec
		return nil
	}
	return json.Unmarshal(data, r.rec)
}

// AppendJSON implements rpc.JSONAppender.
func (q vectorsRequest) AppendJSON(dst []byte) ([]byte, error) {
	if !plainJSON(q.Kind) {
		return appendMarshal(dst, q)
	}
	dst = append(dst, `{"kind":"`...)
	dst = append(dst, q.Kind...)
	return append(dst, `"}`...), nil
}

// AppendJSON implements rpc.JSONAppender.
func (v vectorsResponse) AppendJSON(dst []byte) ([]byte, error) {
	w := jsonWriter{b: dst, ok: true}
	w.vectors(&v)
	if w.ok {
		return w.b, nil
	}
	return appendMarshal(dst, v)
}

// ParseJSON implements rpc.JSONParser.
func (v *vectorsResponse) ParseJSON(data []byte) error {
	rd := jsonReader{b: data, ok: true}
	if resp := rd.vectors(); rd.done() {
		*v = resp
		return nil
	}
	return json.Unmarshal(data, v)
}

func appendMarshal(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(dst, b...), err
}

// jsonWriter appends JSON to b; ok turns false for good at the first value
// it cannot spell as json.Marshal does.
type jsonWriter struct {
	b  []byte
	ok bool
}

func (w *jsonWriter) record(r *sadc.Record) {
	var names [8]string // sort scratch, enough for most nodes
	var pids [64]int
	w.b = append(w.b, `{"Time":`...)
	w.time(r.Time)
	w.b = append(w.b, `,"Node":`...)
	w.floats(r.Node)
	w.b = append(w.b, `,"Net":`...)
	if r.Net == nil {
		w.b = append(w.b, "null"...)
	} else {
		names := names[:0]
		for name := range r.Net {
			names = append(names, name)
		}
		slices.Sort(names)
		w.b = append(w.b, '{')
		for i, name := range names {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.str(name)
			w.b = append(w.b, ':')
			w.floats(r.Net[name])
		}
		w.b = append(w.b, '}')
	}
	w.b = append(w.b, `,"Proc":`...)
	if r.Proc == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.b = append(w.b, '{')
		for i, pid := range sortedPids(pids[:0], r.Proc) {
			w.pid(i, pid)
			w.floats(r.Proc[pid])
		}
		w.b = append(w.b, '}')
	}
	w.b = append(w.b, `,"ProcComm":`...)
	if r.ProcComm == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.b = append(w.b, '{')
		for i, pid := range sortedPids(pids[:0], r.ProcComm) {
			w.pid(i, pid)
			w.str(r.ProcComm[pid])
		}
		w.b = append(w.b, '}')
	}
	w.b = append(w.b, `,"Warmup":`...)
	w.b = strconv.AppendBool(w.b, r.Warmup)
	w.b = append(w.b, '}')
}

func (w *jsonWriter) vectors(v *vectorsResponse) {
	w.b = append(w.b, `{"vectors":`...)
	if v.Vectors == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.b = append(w.b, '[')
		for i := range v.Vectors {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.b = append(w.b, `{"t":`...)
			w.time(v.Vectors[i].Time)
			w.b = append(w.b, `,"c":`...)
			w.floats(v.Vectors[i].Counts)
			w.b = append(w.b, '}')
		}
		w.b = append(w.b, ']')
	}
	w.b = append(w.b, '}')
}

// appendJSONFloat spells f as encoding/json's float64 encoder does: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 up with a one-digit
// exponent unpadded (e-7, not e-07). f must be finite.
func appendJSONFloat(b []byte, f float64) []byte {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 && (f != 0 || !math.Signbit(f)) {
		// Shortest 'f' form of an exact integer: its digits.
		return strconv.AppendInt(b, int64(f), 10)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

func (w *jsonWriter) floats(v []float64) {
	if v == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.b = append(w.b, '[')
	for i, f := range v {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			w.ok = false
			return
		}
		w.b = appendJSONFloat(w.b, f)
	}
	w.b = append(w.b, ']')
}

// plainJSON reports whether json.Marshal spells s verbatim between quotes:
// printable ASCII without the quote, the backslash and the HTML-escaped <>&.
func plainJSON[S []byte | string](s S) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

func (w *jsonWriter) str(s string) {
	if !plainJSON(s) {
		w.ok = false
		return
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// pid appends the i-th int map key and its colon.
func (w *jsonWriter) pid(i, pid int) {
	if i > 0 {
		w.b = append(w.b, ',')
	}
	w.b = append(w.b, '"')
	w.b = strconv.AppendInt(w.b, int64(pid), 10)
	w.b = append(w.b, '"', ':')
}

// time appends t as Time.MarshalJSON does, refusing, as it does, what RFC
// 3339 cannot spell: a year not four digits wide or a zone hour above 23.
func (w *jsonWriter) time(t time.Time) {
	w.b = append(w.b, '"')
	n := len(w.b)
	w.b = t.AppendFormat(w.b, time.RFC3339Nano)
	s := w.b[n:]
	if s[4] != '-' {
		w.ok = false
	} else if z := s[len(s)-6:]; s[len(s)-1] != 'Z' && (z[0] >= '0' && z[0] <= '9' || (z[1]-'0')*10+z[2]-'0' >= 24) {
		w.ok = false
	}
	w.b = append(w.b, '"')
}

// sortedPids appends m's keys to dst in the order json.Marshal writes them:
// by their decimal strings, so pid 10 comes before pid 9.
func sortedPids[V any](dst []int, m map[int]V) []int {
	for pid := range m {
		dst = append(dst, pid)
	}
	slices.SortFunc(dst, compareDecimal)
	return dst
}

// compareDecimal orders ints as strconv.Itoa's strings compare, without
// spelling them: '-' sorts before every digit, and two digit strings compare
// as their values once the shorter is scaled to the longer's width, the
// shorter first on a tie (it is a prefix of the longer).
func compareDecimal(a, b int) int {
	if (a < 0) != (b < 0) {
		if a < 0 {
			return -1
		}
		return 1
	}
	x, y := magnitude(a), magnitude(b)
	dx, dy := digits(x), digits(y)
	for d := dx; d < dy; d++ {
		x *= 10
	}
	for d := dy; d < dx; d++ {
		y *= 10
	}
	if x != y {
		if x < y {
			return -1
		}
		return 1
	}
	return dx - dy
}

func magnitude(a int) uint64 {
	if a < 0 {
		return uint64(-(a + 1)) + 1
	}
	return uint64(a)
}

func digits(x uint64) int {
	n := 1
	for ; x >= 10; x /= 10 {
		n++
	}
	return n
}

// jsonReader consumes JSON from the front of b; ok turns false for good at
// the first byte outside jsonWriter's spelling.
type jsonReader struct {
	b  []byte
	ok bool
}

// done reports whether the reader accepted everything it was given.
func (r *jsonReader) done() bool { return r.ok && len(r.b) == 0 }

// lit consumes s.
func (r *jsonReader) lit(s string) {
	if r.ok && len(r.b) >= len(s) && string(r.b[:len(s)]) == s {
		r.b = r.b[len(s):]
		return
	}
	r.ok = false
}

// eat consumes c if it comes next.
func (r *jsonReader) eat(c byte) bool {
	if r.ok && len(r.b) > 0 && r.b[0] == c {
		r.b = r.b[1:]
		return true
	}
	return false
}

// null consumes a null if one comes next.
func (r *jsonReader) null() bool {
	if r.ok && len(r.b) >= 4 && string(r.b[:4]) == "null" {
		r.b = r.b[4:]
		return true
	}
	return false
}

// quoted consumes a string of plain bytes and returns them, uncopied.
func (r *jsonReader) quoted() []byte {
	if !r.eat('"') {
		r.ok = false
		return nil
	}
	n := 0
	for n < len(r.b) && r.b[n] != '"' {
		n++
	}
	s := r.b[:n]
	if n == len(r.b) || !plainJSON(s) {
		r.ok = false
		return nil
	}
	r.b = r.b[n+1:]
	return s
}

func (r *jsonReader) str() string {
	return string(r.quoted())
}

// maxFloatLen bounds appendJSONFloat's longest spelling, which also keeps
// strconv.ParseFloat's string off the heap.
const maxFloatLen = 32

// float consumes a number that appendJSONFloat spells exactly so.
func (r *jsonReader) float() float64 {
	n := 0
	for n < len(r.b) && n <= maxFloatLen && numberByte(r.b[n]) {
		n++
	}
	tok := r.b[:n]
	if !r.ok || n == 0 || n > maxFloatLen {
		r.ok = false
		return 0
	}
	if f, ok := smallInt(tok); ok {
		r.b = r.b[n:]
		return f
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil || !canonicalFloat(tok, f) {
		r.ok = false
		return 0
	}
	r.b = r.b[n:]
	return f
}

// smallInt reads an integer of at most 15 digits without a leading zero,
// which is exact in a float64 and appendJSONFloat's spelling of itself.
func smallInt(tok []byte) (float64, bool) {
	digits := tok
	if tok[0] == '-' {
		digits = tok[1:]
	}
	if len(digits) == 0 || len(digits) > 15 || digits[0] == '0' && len(digits) > 1 {
		return 0, false
	}
	var v uint64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	if len(digits) < len(tok) {
		return -float64(v), true // -0 for "-0"
	}
	return float64(v), true
}

// canonicalFloat reports whether tok, which strconv.ParseFloat read as f, is
// appendJSONFloat's spelling of f.
func canonicalFloat(tok []byte, f float64) bool {
	if plainDecimal(tok, f) {
		return true
	}
	var buf [maxFloatLen]byte
	return string(appendJSONFloat(buf[:0], f)) == string(tok)
}

// plainDecimal is canonicalFloat's shortcut for the common spelling, which
// saves re-spelling f: a decimal without exponent or superfluous zero, of
// at most 15 significant digits, and in the magnitude range encoding/json
// spells that way. Distinct decimals of at most 15 significant digits are
// distinct float64s, so no shorter spelling of f exists and tok is the one
// strconv.AppendFloat's shortest 'f' form writes. False says only that the
// shortcut does not apply.
func plainDecimal(tok []byte, f float64) bool {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		return false
	}
	if tok[0] == '-' {
		tok = tok[1:]
	}
	if len(tok) == 0 || tok[0] < '0' || tok[0] > '9' || tok[0] == '0' && len(tok) > 1 && tok[1] != '.' {
		return false // no integer part, or one with a leading zero
	}
	first, last, dot := -1, -1, -1 // of the significant digits, and the point
	for i, c := range tok {
		switch {
		case c == '.' && dot < 0:
			dot = i
		case c >= '1' && c <= '9':
			if first < 0 {
				first = i
			}
			last = i
		case c != '0':
			return false
		}
	}
	if dot >= 0 && last != len(tok)-1 {
		return false // an empty fraction, or one ending in zero
	}
	digits := last - first + 1
	if first < dot && dot < last {
		digits--
	}
	return first < 0 || digits <= 15
}

func numberByte(c byte) bool {
	return c >= '0' && c <= '9' || c == '-' || c == '.' || c == 'e' || c == 'E' || c == '+'
}

// floats consumes null or an array of numbers.
func (r *jsonReader) floats() []float64 {
	if r.null() {
		return nil
	}
	if !r.eat('[') {
		r.ok = false
		return nil
	}
	// A number array holds no string, so its end is the first ']'.
	end := bytes.IndexByte(r.b, ']')
	if end < 0 {
		r.ok = false
		return nil
	}
	v := make([]float64, 0, bytes.Count(r.b[:end], []byte{','})+1)
	if r.eat(']') {
		return v
	}
	for r.ok {
		v = append(v, r.float())
		if !r.eat(',') {
			break
		}
	}
	r.lit("]")
	return v
}

// time consumes a time as Time.MarshalJSON spells it. The value is
// Time.UnmarshalJSON's, as json.Unmarshal's is.
func (r *jsonReader) time() time.Time {
	start := r.b
	s := r.quoted()
	var t time.Time
	if !r.ok || t.UnmarshalJSON(start[:len(s)+2]) != nil {
		r.ok = false
		return time.Time{}
	}
	var buf [len(time.RFC3339Nano) + 2]byte
	w := jsonWriter{b: buf[:0], ok: true}
	if w.time(t); !w.ok || string(w.b) != string(start[:len(s)+2]) {
		r.ok = false
	}
	return t
}

// object consumes null (reporting it) or an object whose keys, spelled plain
// and in strictly ascending order, are handed to value with the reader
// placed at their value.
func (r *jsonReader) object(value func(key []byte)) (isNull bool) {
	if r.null() {
		return true
	}
	if !r.eat('{') {
		r.ok = false
		return false
	}
	if r.eat('}') {
		return false
	}
	var prev []byte
	for r.ok {
		key := r.quoted()
		if prev != nil && string(prev) >= string(key) {
			r.ok = false
		}
		prev = key
		r.lit(":")
		if !r.ok {
			break
		}
		value(key)
		if !r.eat(',') {
			break
		}
	}
	r.lit("}")
	return false
}

// pid parses an int map key spelled as strconv.Itoa spells it.
func (r *jsonReader) pid(key []byte) int {
	pid, err := strconv.Atoi(string(key))
	var buf [24]byte
	if err != nil || string(strconv.AppendInt(buf[:0], int64(pid), 10)) != string(key) {
		r.ok = false
	}
	return pid
}

func (r *jsonReader) record() (rec sadc.Record) {
	r.lit(`{"Time":`)
	rec.Time = r.time()
	r.lit(`,"Node":`)
	rec.Node = r.floats()
	r.lit(`,"Net":`)
	net := make(map[string][]float64)
	if r.object(func(key []byte) { net[string(key)] = r.floats() }) {
		net = nil
	}
	r.lit(`,"Proc":`)
	proc := make(map[int][]float64)
	if r.object(func(key []byte) { proc[r.pid(key)] = r.floats() }) {
		proc = nil
	}
	r.lit(`,"ProcComm":`)
	comm := make(map[int]string)
	if r.object(func(key []byte) { comm[r.pid(key)] = r.str() }) {
		comm = nil
	}
	rec.Net, rec.Proc, rec.ProcComm = net, proc, comm
	r.lit(`,"Warmup":`)
	if rec.Warmup = !r.eat('f'); rec.Warmup {
		r.lit("true")
	} else {
		r.lit("alse")
	}
	r.lit("}")
	return rec
}

func (r *jsonReader) vectors() (v vectorsResponse) {
	r.lit(`{"vectors":`)
	if !r.null() {
		r.lit("[")
		v.Vectors = []stateVectorWire{}
		for r.ok && !r.eat(']') {
			if len(v.Vectors) > 0 {
				r.lit(",")
			}
			var sv stateVectorWire
			r.lit(`{"t":`)
			sv.Time = r.time()
			r.lit(`,"c":`)
			sv.Counts = r.floats()
			r.lit("}")
			v.Vectors = append(v.Vectors, sv)
		}
	}
	r.lit("}")
	return v
}
