package modules

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/hadoopsim"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/sadc"
)

// edgeFloats are the values at encoding/json's spelling boundaries: both
// zeros, both sides of the 1e-6 and 1e21 switches to exponent form, the
// smallest subnormal, the largest finite value, and 15-, 16- and 17-digit
// mantissas.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, 9.99e-7, 1e-6, 1e21, 9.99e20, 1e20,
	5e-324, math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.1, 100, 1200.5,
	123456789012345, 1234567890123456, 0.1 + 0.2, 1.0 / 3, -2.5e-300,
}

// edgeNames need no escaping, or every kind of it: HTML characters, the
// quote and backslash, a control byte, U+2028, invalid UTF-8.
var edgeNames = []string{
	"eth0", "lo", "", "a b~\x7f", "<b>", "a&b", `q"`, `back\`, "tab\t", " ", "\xff", "日本",
}

var edgeZones = []*time.Location{
	time.UTC, time.Local, time.FixedZone("IST", 5*3600+1800), time.FixedZone("", -7*3600),
}

func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 1:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 2:
		return float64(rng.Intn(1_000_000))
	case 3:
		return math.Round(rng.Float64()*1e6) / 100
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
}

// randomFloats is nil, empty or n values.
func randomFloats(rng *rand.Rand, n int) []float64 {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = randomFloat(rng)
	}
	return v
}

func randomName(rng *rand.Rand, plain bool) string {
	if plain || rng.Intn(4) > 0 {
		return edgeNames[rng.Intn(4)]
	}
	return edgeNames[rng.Intn(len(edgeNames))]
}

func randomTime(rng *rand.Rand) time.Time {
	t := time.Unix(rng.Int63n(4e9), 0)
	switch rng.Intn(3) {
	case 0:
		t = t.Add(time.Duration(rng.Int63n(1e9)))
	case 1:
		t = t.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
	}
	return t.In(edgeZones[rng.Intn(len(edgeZones))])
}

// randomPids draws pids whose string order differs from their numeric one.
func randomPids(rng *rand.Rand) []int {
	pool := []int{0, 1, 9, 10, 11, 99, 100, 101, 1000, 4242, 65535, -1, -10, -9, math.MaxInt, math.MinInt}
	n := rng.Intn(6)
	pids := make([]int, n)
	for i := range pids {
		pids[i] = pool[rng.Intn(len(pool))]
	}
	return pids
}

// randomRecord returns a record with nil and empty groups, edge floats,
// unsorted pids, non-UTC times and either Warmup; plain limits names to
// those that need no escaping.
func randomRecord(rng *rand.Rand, plain bool) *sadc.Record {
	rec := &sadc.Record{Time: randomTime(rng), Node: randomFloats(rng, rng.Intn(30)), Warmup: rng.Intn(2) == 0}
	if rng.Intn(6) > 0 {
		rec.Net = map[string][]float64{}
		for i := rng.Intn(4); i > 0; i-- {
			rec.Net[randomName(rng, plain)] = randomFloats(rng, 8)
		}
	}
	if rng.Intn(6) > 0 {
		rec.Proc = map[int][]float64{}
		for _, pid := range randomPids(rng) {
			rec.Proc[pid] = randomFloats(rng, 15)
		}
	}
	if rng.Intn(6) > 0 {
		rec.ProcComm = map[int]string{}
		for _, pid := range randomPids(rng) {
			rec.ProcComm[pid] = randomName(rng, plain)
		}
	}
	return rec
}

func randomVectors(rng *rand.Rand) vectorsResponse {
	var v vectorsResponse
	switch rng.Intn(6) {
	case 0:
		return v
	case 1:
		v.Vectors = []stateVectorWire{}
		return v
	}
	for i := rng.Intn(5); i >= 0; i-- {
		v.Vectors = append(v.Vectors, stateVectorWire{Time: randomTime(rng), Counts: randomFloats(rng, 11)})
	}
	return v
}

// checkReply holds one reply's AppendJSON to json.Marshal, byte for byte or
// error for error, and its ParseJSON to json.Unmarshal; spelled says whether
// the hand-written codec, not the fallback, must have taken it both ways.
// parse decodes into a fresh value with the hand-written reader only.
func checkReply[T any](t *testing.T, v rpc.JSONAppender, marshal any, spelled bool, parse func([]byte) (T, bool), decode func([]byte) (T, error)) {
	t.Helper()
	want, wantErr := json.Marshal(marshal)
	got, err := v.AppendJSON([]byte("hdr"))
	if wantErr != nil || err != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("AppendJSON error %v, json.Marshal error %v", err, wantErr)
		}
		return
	}
	if string(got) != "hdr"+string(want) {
		t.Fatalf("AppendJSON spelled\n%s\njson.Marshal\n%s", got[3:], want)
	}
	var ref T
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	fast, ok := parse(want)
	if ok != spelled {
		t.Fatalf("hand-written reader accepted %v its writer's own spelling %s", ok, want)
	}
	if ok && !reflect.DeepEqual(fast, ref) {
		t.Fatalf("hand-written reader decoded %s to %#v, json.Unmarshal to %#v", want, fast, ref)
	}
	frame := append([]byte(nil), want...)
	dec, err := decode(frame)
	if err != nil || !reflect.DeepEqual(dec, ref) {
		t.Fatalf("ParseJSON decoded %s to %#v, %v; json.Unmarshal to %#v", want, dec, err, ref)
	}
	for i := range frame {
		frame[i] = 'x' // the client's reader reuses the frame buffer
	}
	if !reflect.DeepEqual(dec, ref) {
		t.Fatalf("ParseJSON result aliases the frame: %#v after the frame was overwritten", dec)
	}
}

func parseRecordFast(b []byte) (sadc.Record, bool) {
	r := jsonReader{b: b, ok: true}
	rec := r.record()
	return rec, r.done()
}

func decodeRecord(b []byte) (rec sadc.Record, err error) {
	return rec, recordJSON{&rec}.ParseJSON(b)
}

func parseVectorsFast(b []byte) (vectorsResponse, bool) {
	r := jsonReader{b: b, ok: true}
	v := r.vectors()
	return v, r.done()
}

func decodeVectors(b []byte) (v vectorsResponse, err error) {
	return v, v.ParseJSON(b)
}

// TestRecordJSONMatchesMarshal: for seeded records with every edge the
// spelling has, AppendJSON gives json.Marshal's bytes, and ParseJSON
// json.Unmarshal's value; a record without strings to escape takes the
// hand-written path both ways.
func TestRecordJSONMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(3901))
	for i := 0; i < 2000; i++ {
		plain := i%2 == 0
		rec := randomRecord(rng, plain)
		w := jsonWriter{ok: true}
		w.record(rec)
		if plain && !w.ok {
			t.Fatalf("writer refused a record of plain names: %#v", rec)
		}
		checkReply(t, recordJSON{rec}, rec, w.ok, parseRecordFast, decodeRecord)
	}
}

// TestVectorsJSONMatchesMarshal is TestRecordJSONMatchesMarshal for the
// hadoop_log.vectors reply.
func TestVectorsJSONMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(3902))
	for i := 0; i < 2000; i++ {
		v := randomVectors(rng)
		checkReply(t, v, v, true, parseVectorsFast, decodeVectors)
	}
}

// TestVectorsRequestJSONMatchesMarshal: the hadoop_log.vectors params are
// spelled as json.Marshal spells them, for kinds that need escaping too.
func TestVectorsRequestJSONMatchesMarshal(t *testing.T) {
	for _, kind := range append(edgeNames, hadooplog.KindTaskTracker.String(), hadooplog.KindDataNode.String()) {
		want, _ := json.Marshal(vectorsRequest{Kind: kind})
		if got, err := (vectorsRequest{Kind: kind}).AppendJSON([]byte("hdr")); err != nil || string(got) != "hdr"+string(want) {
			t.Errorf("kind %q: spelled %q, %v; json.Marshal %q", kind, got, err, want)
		}
	}
}

// TestSortedPidsStringOrder: compareDecimal orders ints as their decimal
// strings compare.
func TestSortedPidsStringOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3903))
	vals := []int{0, 1, 9, 10, 19, 2, 100, -1, -10, -9, -100, math.MaxInt, math.MinInt, math.MaxInt - 1, math.MinInt + 1}
	for i := 0; i < 200; i++ {
		vals = append(vals, int(rng.Uint64()>>uint(rng.Intn(64))), -rng.Intn(1000))
	}
	for _, a := range vals {
		for _, b := range vals {
			want := strings.Compare(strconv.Itoa(a), strconv.Itoa(b))
			if got := compareDecimal(a, b); (got > 0) != (want > 0) || (got < 0) != (want < 0) {
				t.Fatalf("compareDecimal(%d, %d) = %d, string order %d", a, b, got, want)
			}
		}
	}
}

// TestFloatSpellingIsCanonical: appendJSONFloat spells every value as
// json.Marshal does, and the reader takes a number only in that spelling,
// over the writer's own spellings and near misses of them — a digit more or
// less, a zero added, a point moved.
func TestFloatSpellingIsCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(3907))
	var toks []string
	for i := 0; i < 20000; i++ {
		f := randomFloat(rng)
		tok := string(appendJSONFloat(nil, f))
		if want, _ := json.Marshal(f); tok != string(want) {
			t.Fatalf("appendJSONFloat(%v) = %s, json.Marshal %s", f, tok, want)
		}
		p := rng.Intn(len(tok) + 1)
		digits := strconv.FormatUint(rng.Uint64(), 10)[:1+rng.Intn(17)]
		toks = append(toks, tok, tok+"0", tok+"1", "0"+tok, tok[:len(tok)-1], strings.Replace(tok, ".", "", 1),
			tok[:p]+"."+tok[p:], tok[:p]+"0"+tok[p:], digits, "-"+digits, "0."+digits, "-0.00000"+digits, digits+"00000.5")
	}
	taken := 0
	for _, tok := range toks {
		if checkFloatToken(t, []byte(tok)) {
			taken++
		}
	}
	if taken < len(toks)/4 {
		t.Errorf("the reader took %d of %d numbers", taken, len(toks))
	}
}

// checkFloatToken fails if the reader takes tok as a number that
// appendJSONFloat spells otherwise or strconv.ParseFloat reads otherwise, and
// reports whether it took it.
func checkFloatToken(t *testing.T, tok []byte) bool {
	t.Helper()
	r := jsonReader{b: tok, ok: true}
	f := r.float()
	if !r.done() {
		return false
	}
	if canon := appendJSONFloat(nil, f); string(canon) != string(tok) {
		t.Fatalf("reader took %q as %v, which encoding/json spells %q", tok, f, canon)
	}
	if g, err := strconv.ParseFloat(string(tok), 64); err != nil || math.Float64bits(g) != math.Float64bits(f) {
		t.Fatalf("reader took %q as %v, strconv.ParseFloat as %v, %v", tok, f, g, err)
	}
	return true
}

// marshalFailures are replies json.Marshal refuses, each in a group of its
// own: the reply must fail with its error, not a near miss.
func marshalFailures() (recs []*sadc.Record, vecs []vectorsResponse) {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	recs = []*sadc.Record{
		{Time: t0, Node: []float64{1, math.NaN()}},
		{Time: t0, Net: map[string][]float64{"eth0": {math.Inf(1)}}},
		{Time: t0, Proc: map[int][]float64{9: {math.Inf(-1)}}},
		{Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		{Time: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)},
		{Time: t0.In(time.FixedZone("", 24*3600))},
		{Time: t0.In(time.FixedZone("", -100*3600))},
	}
	vecs = []vectorsResponse{
		{Vectors: []stateVectorWire{{Time: t0, Counts: []float64{math.NaN()}}}},
		{Vectors: []stateVectorWire{{Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}}},
	}
	return recs, vecs
}

// TestReplyJSONMarshalErrors: a reply json.Marshal refuses fails with
// json.Marshal's error, so the remote error text is the one the daemon sent
// when json.Marshal spelled every reply.
func TestReplyJSONMarshalErrors(t *testing.T) {
	recs, vecs := marshalFailures()
	for _, rec := range recs {
		checkReply(t, recordJSON{rec}, rec, false, parseRecordFast, decodeRecord)
		if _, err := (recordJSON{rec}).AppendJSON(nil); err == nil {
			t.Errorf("record %#v spelled without error", rec)
		}
	}
	for _, v := range vecs {
		checkReply(t, v, v, false, parseVectorsFast, decodeVectors)
		if _, err := v.AppendJSON(nil); err == nil {
			t.Errorf("vectors %#v spelled without error", v)
		}
	}

	// Over the wire, pinned to the texts the daemon sent before.
	srv := rpc.NewServer(ServiceSadc)
	var mu sync.Mutex
	var next *sadc.Record
	srv.Handle(MethodSadcCollect, func(json.RawMessage) (any, error) {
		mu.Lock()
		defer mu.Unlock()
		return recordJSON{next}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	client, err := rpc.Dial(addr.String(), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	for i, want := range map[int]string{
		0: "rpc: remote error in sadc.collect: marshal result: json: unsupported value: NaN",
		1: "rpc: remote error in sadc.collect: marshal result: json: unsupported value: +Inf",
		3: "rpc: remote error in sadc.collect: marshal result: json: error calling MarshalJSON for type time.Time: Time.MarshalJSON: year outside of range [0,9999]",
	} {
		mu.Lock()
		next = recs[i]
		mu.Unlock()
		_, err := NewRPCMetricSource(client).Collect()
		var remote *rpc.RemoteError
		if !errors.As(err, &remote) || err.Error() != want {
			t.Errorf("record %d: %v, want %q", i, err, want)
		}
	}
}

// TestJSONDaemonsServeConcurrentClients: two clients of one daemon — a
// reconnect overlapping the old connection, a second control node — call the
// JSON methods at once. The daemon's one collector and its log cursors take
// turns, so go test -race finds nothing and every call succeeds.
func TestJSONDaemonsServeConcurrentClients(t *testing.T) {
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(1, 3904))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(20 * time.Second)
	n := c.Slave(0)
	sadcSrv := rpc.NewServer(ServiceSadc)
	RegisterSadcServer(sadcSrv, n)
	hlogSrv := rpc.NewServer(ServiceHadoopLog)
	RegisterHadoopLogServer(hlogSrv, n.TaskTrackerLog(), n.DataNodeLog(), c.Now)
	var wg sync.WaitGroup
	for _, srv := range []*rpc.Server{sadcSrv, hlogSrv} {
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func(srv *rpc.Server) { _ = srv.Close() }(srv)
		for k := 0; k < 2; k++ {
			client, err := rpc.Dial(addr.String(), "test")
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = client.Close() }()
			wg.Add(1)
			go func(srv *rpc.Server, client rpc.Caller) {
				defer wg.Done()
				metrics, logs := NewRPCMetricSource(client), NewRPCLogSource(client, hadooplog.KindTaskTracker)
				for i := 0; i < 200; i++ {
					var err error
					if srv == sadcSrv {
						_, err = metrics.Collect()
					} else {
						_, err = logs.Fetch(time.Time{})
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(srv, client)
		}
	}
	wg.Wait()
}

// TestScriptedJSONWireBytesUnchanged replays hello + 100 sadc.collect + 100
// hadoop_log.vectors calls against one seeded simulated node and holds the
// byte totals on both ends to the parent commit's, measured with the same
// script before the replies were spelled by hand: no byte on the wire moved,
// so the Table 4 bandwidth accounting stands.
func TestScriptedJSONWireBytesUnchanged(t *testing.T) {
	const (
		parentSadcSent, parentSadcReceived = 3725, 81320
		parentHlogSent, parentHlogReceived = 7375, 12900
	)
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(1, 3905))
	if err != nil {
		t.Fatal(err)
	}
	n := c.Slave(0)
	sadcSrv := rpc.NewServer(ServiceSadc)
	RegisterSadcServer(sadcSrv, n)
	hlogSrv := rpc.NewServer(ServiceHadoopLog)
	RegisterHadoopLogServer(hlogSrv, n.TaskTrackerLog(), n.DataNodeLog(), c.Now)
	var clients []*rpc.Client
	for _, srv := range []*rpc.Server{sadcSrv, hlogSrv} {
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func(srv *rpc.Server) { _ = srv.Close() }(srv)
		client, err := rpc.Dial(addr.String(), "table4")
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, client)
	}
	metrics := NewRPCMetricSource(clients[0])
	logs := []LogSource{
		NewRPCLogSource(clients[1], hadooplog.KindTaskTracker),
		NewRPCLogSource(clients[1], hadooplog.KindDataNode),
	}
	for i := 0; i < 100; i++ {
		c.Tick()
		if _, err := metrics.Collect(); err != nil {
			t.Fatal(err)
		}
		if _, err := logs[i%2].Fetch(c.Now()); err != nil {
			t.Fatal(err)
		}
	}
	want := [][2]uint64{{parentSadcSent, parentSadcReceived}, {parentHlogSent, parentHlogReceived}}
	names := []string{ServiceSadc, ServiceHadoopLog}
	for i, srv := range []*rpc.Server{sadcSrv, hlogSrv} {
		sent, received := clients[i].Stats()
		if sent != want[i][0] || received != want[i][1] {
			t.Errorf("%s client sent %d and received %d bytes, the parent %d and %d", names[i], sent, received, want[i][0], want[i][1])
		}
		_ = clients[i].Close()
		var read, written uint64
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if read, written = srv.Stats(); read == sent && written == received {
				break
			}
		}
		if read != sent || written != received {
			t.Errorf("%s server read %d and wrote %d bytes, want %d and %d", names[i], read, written, sent, received)
		}
	}
}

// recordSeeds are FuzzParseRecordJSON's seeds: replies the writer spells,
// and near misses of them.
func recordSeeds() []string {
	rng := rand.New(rand.NewSource(3906))
	var seeds []string
	for i := 0; i < 4; i++ {
		b, _ := recordJSON{randomRecord(rng, true)}.AppendJSON(nil)
		seeds = append(seeds, string(b))
		v, _ := randomVectors(rng).AppendJSON(nil)
		seeds = append(seeds, string(v))
	}
	return append(seeds,
		`{"Time":"2026-01-02T03:04:05.5+05:30","Node":[0,-0,1e-7,0.000001,1e+21,5e-324],"Net":{},"Proc":{"10":[1],"9":null},"ProcComm":{"10":"java","9":"sh"},"Warmup":true}`,
		`{"Time":"2026-01-02T03:04:05Z","Node":null,"Net":null,"Proc":null,"ProcComm":null,"Warmup":false}`,
		`{"Time":"2026-01-02T03:04:05Z","Node":[1.0,01,1E5,1e5,.5,0.10],"Net":null,"Proc":null,"ProcComm":null,"Warmup":false}`,
		`{"Time":"2026-01-02T03:04:05.000Z","Node":[],"Net":{"b":[],"a":[]},"Proc":{"9":[],"10":[]},"ProcComm":{"09":"x"},"Warmup":false}`,
		`{"Time":"2026-01-02T03:04:05Z", "Node":[1 ,2],"Net":null,"Proc":null,"ProcComm":{"1":"a&b"},"Warmup":false}`,
		`{"vectors":[{"t":"2026-01-02T03:04:05Z","c":[1,2]},{"t":"2026-01-02T03:04:06+24:00","c":null}]}`,
		`{"vectors":[],"extra":1}`,
		`{"vectors":null}`,
		"1200.5", "0.000001", "100000000000000000000", "123456789012345.6", "-0",
	)
}

// FuzzParseRecordJSON: whenever the hand-written reader accepts bytes,
// json.Unmarshal decodes them to a reflect.DeepEqual value and the writer
// spells that value back to the same bytes — the reader takes the canonical
// spelling only — for both replies; and it never panics.
func FuzzParseRecordJSON(f *testing.F) {
	for _, s := range recordSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFloatToken(t, data)
		if rec, ok := parseRecordFast(data); ok {
			var ref sadc.Record
			if err := json.Unmarshal(data, &ref); err != nil || !reflect.DeepEqual(rec, ref) {
				t.Fatalf("reader decoded %q to %#v; json.Unmarshal to %#v, %v", data, rec, ref, err)
			}
			if again, err := (recordJSON{&rec}).AppendJSON(nil); err != nil || string(again) != string(data) {
				t.Fatalf("reader accepted %q, which the writer spells %q, %v", data, again, err)
			}
		}
		if v, ok := parseVectorsFast(data); ok {
			var ref vectorsResponse
			if err := json.Unmarshal(data, &ref); err != nil || !reflect.DeepEqual(v, ref) {
				t.Fatalf("reader decoded %q to %#v; json.Unmarshal to %#v, %v", data, v, ref, err)
			}
			if again, err := v.AppendJSON(nil); err != nil || string(again) != string(data) {
				t.Fatalf("reader accepted %q, which the writer spells %q, %v", data, again, err)
			}
		}
	})
}
