package rpc

import (
	"encoding/json"
	"fmt"
	"testing"
)

// BenchmarkManagedClientOverhead compares a supervised ManagedClient call
// against a bare Client call on the same echo server, isolating the cost of
// the breaker/reconnect bookkeeping per healthy round trip.
func BenchmarkManagedClientOverhead(b *testing.B) {
	srv := NewServer("bench")
	srv.Handle("echo", func(params json.RawMessage) (any, error) {
		var v map[string]any
		if err := json.Unmarshal(params, &v); err != nil {
			return nil, err
		}
		return v, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	payload := map[string]any{"metrics": []float64{1, 2, 3, 4, 5, 6, 7, 8}}

	b.Run("client=bare", func(b *testing.B) {
		c, err := Dial(addr.String(), "bench")
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var out map[string]any
			if err := c.Call("echo", payload, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("client=managed", func(b *testing.B) {
		m := NewManagedClient(addr.String(), "bench", Options{})
		defer func() { _ = m.Close() }()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var out map[string]any
			if err := m.Call("echo", payload, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchWireSchema is a sadc-shaped 64-column stream schema.
func benchWireSchema() StreamSchema {
	cols := make([]string, 64)
	for i := range cols {
		cols[i] = fmt.Sprintf("metric_%02d", i)
	}
	return StreamSchema{Method: "sadc.metrics", Node: "bench", Groups: []ColumnGroup{{Name: "node", Columns: cols}}}
}

// benchWireTick mutates the slowly-changing columns of a 64-column vector:
// six columns drift per tick, the rest hold still — the shape sadc vectors
// have between load changes.
func benchWireTick(vals []float64, tick int) {
	for j := 0; j < 6; j++ {
		c := (j * 11) % len(vals)
		vals[c] += float64(tick%7) + 0.5
	}
}

// BenchmarkColumnarEncode measures one steady-state row encode (64 columns,
// six changed). Held to 0 allocs/op in CI: every frame, all tick long, must
// come out of the encoder's reused buffers.
func BenchmarkColumnarEncode(b *testing.B) {
	enc := NewColumnarEncoder(benchWireSchema())
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i) * 1.25
	}
	// Warm up: emit the schema frame and grow the buffers once.
	enc.Begin()
	_ = enc.AppendRow(0, false, nil, vals)
	_ = enc.Finish()

	b.ReportAllocs()
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		benchWireTick(vals, i)
		enc.Begin()
		if err := enc.AppendRow(int64(i+1)*1e9, false, nil, vals); err != nil {
			b.Fatal(err)
		}
		total += len(enc.Finish())
	}
	if total == 0 {
		b.Fatal("encoded nothing")
	}
}

// BenchmarkColumnarDecode measures one steady-state frame decode. A cycle of
// pre-encoded frames is replayed (the value walk is periodic, so the delta
// state lines up at the wrap, where only the sequence counter is rewound).
// Held to 0 allocs/op in CI.
func BenchmarkColumnarDecode(b *testing.B) {
	const cycle = 1024
	enc := NewColumnarEncoder(benchWireSchema())
	vals := make([]float64, 64)

	// Prime frame: schema + initial values.
	enc.Begin()
	_ = enc.AppendRow(0, false, nil, vals)
	prime := append([]byte(nil), enc.Finish()...)

	// The toggling walk returns to its start state every 2 ticks, so an
	// even-length cycle replays cleanly.
	frames := make([][]byte, cycle)
	for i := range frames {
		for j := 0; j < 6; j++ {
			c := (j * 11) % len(vals)
			if i%2 == 0 {
				vals[c] += 1.5
			} else {
				vals[c] -= 1.5
			}
		}
		enc.Begin()
		if err := enc.AppendRow(int64(i+1)*1e9, false, nil, vals); err != nil {
			b.Fatal(err)
		}
		frames[i] = append([]byte(nil), enc.Finish()...)
	}

	dec := NewColumnarDecoder()
	if err := dec.Decode(prime); err != nil {
		b.Fatal(err)
	}
	primeSeq := dec.seq

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%cycle == 0 {
			dec.seq = primeSeq // rewind the replay cycle
		}
		if err := dec.Decode(frames[i%cycle]); err != nil {
			b.Fatal(err)
		}
		if len(dec.Rows()) != 1 {
			b.Fatal("wrong row count")
		}
	}
}

// wireBenchJSONResponse is the smallest JSON reply that carries a node
// vector: the node-level part of a sadc record and nothing else.
type wireBenchJSONResponse struct {
	Warmup bool      `json:"warmup,omitempty"`
	Node   []float64 `json:"node,omitempty"`
}

// BenchmarkWireFormat compares the per-tick wire work of the JSON call path
// against the columnar stream path for N nodes of slowly-changing 64-column
// vectors: encode + decode cost in ns (one iteration is one tick across all
// nodes) and bytes on the wire per tick (reported as wire-B/tick). The
// wire= sub-name split pairs the samples for benchstat.
func BenchmarkWireFormat(b *testing.B) {
	for _, nodes := range []int{128, 512, 1024} {
		makeVals := func() [][]float64 {
			vs := make([][]float64, nodes)
			for n := range vs {
				vs[n] = make([]float64, 64)
				for c := range vs[n] {
					vs[n][c] = float64(n*64+c) * 1.25
				}
			}
			return vs
		}

		b.Run(fmt.Sprintf("wire=json/nodes=%d", nodes), func(b *testing.B) {
			vals := makeVals()
			var out wireBenchJSONResponse
			var bytesTotal int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for n := 0; n < nodes; n++ {
					benchWireTick(vals[n], i)
					body, err := json.Marshal(response{ID: uint64(i + 1),
						Result: mustMarshal(wireBenchJSONResponse{Node: vals[n]})})
					if err != nil {
						b.Fatal(err)
					}
					bytesTotal += 4 + len(body) // frame header + body
					var resp response
					if err := json.Unmarshal(body, &resp); err != nil {
						b.Fatal(err)
					}
					if err := json.Unmarshal(resp.Result, &out); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(bytesTotal)/float64(b.N), "wire-B/tick")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes*64), "ns/metric")
		})

		b.Run(fmt.Sprintf("wire=columnar/nodes=%d", nodes), func(b *testing.B) {
			vals := makeVals()
			encs := make([]*ColumnarEncoder, nodes)
			decs := make([]*ColumnarDecoder, nodes)
			for n := range encs {
				encs[n] = NewColumnarEncoder(benchWireSchema())
				decs[n] = NewColumnarDecoder()
				// Schema exchange happens once per stream, off the clock.
				encs[n].Begin()
				_ = encs[n].AppendRow(0, false, nil, vals[n])
				if err := decs[n].Decode(encs[n].Finish()); err != nil {
					b.Fatal(err)
				}
			}
			var bytesTotal int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for n := 0; n < nodes; n++ {
					benchWireTick(vals[n], i)
					encs[n].Begin()
					if err := encs[n].AppendRow(int64(i+1)*1e9, false, nil, vals[n]); err != nil {
						b.Fatal(err)
					}
					body := encs[n].Finish()
					bytesTotal += 4 + len(body)
					if err := decs[n].Decode(body); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(bytesTotal)/float64(b.N), "wire-B/tick")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes*64), "ns/metric")
		})
	}
}

func mustMarshal(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func BenchmarkCallRoundTrip(b *testing.B) {
	srv := NewServer("bench")
	srv.Handle("echo", func(params json.RawMessage) (any, error) {
		var v map[string]any
		if err := json.Unmarshal(params, &v); err != nil {
			return nil, err
		}
		return v, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	c, err := Dial(addr.String(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	payload := map[string]any{"metrics": []float64{1, 2, 3, 4, 5, 6, 7, 8}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out map[string]any
		if err := c.Call("echo", payload, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRowSource streams one sadc-shaped row per collect: 64 columns, six
// of which drift per tick.
type benchRowSource struct {
	vals []float64
	tick int
}

func (s *benchRowSource) Schema() StreamSchema { return benchWireSchema() }

func (s *benchRowSource) Collect(fw *FrameWriter) error {
	s.tick++
	benchWireTick(s.vals, s.tick)
	fw.AppendRow(int64(s.tick)*1e9, false, nil, s.vals)
	return nil
}

// BenchmarkStreamPullRoundTrip measures one steady-state collection round
// trip over loopback TCP, both ends in this process, for a 64-column row:
// wire=columnar pulls an open stream (request encode, one write and one read
// per direction, the server's recognition of the pull, source collect,
// columnar encode and decode), wire=json makes the equivalent Call. The
// columnar path is held to 0 allocs/op in CI — the rpc layer's whole per-pull
// path runs out of reused buffers — and syscalls/op (Read and Write calls on
// both ends) reports the framing cost: 4 is one write and one read each way.
// The wire= sub-name split pairs the samples for benchstat.
func BenchmarkStreamPullRoundTrip(b *testing.B) {
	srv := NewServer("bench")
	jsonRow := &benchRowSource{vals: make([]float64, 64)}
	srv.Handle("bench.row", func(json.RawMessage) (any, error) {
		jsonRow.tick++
		benchWireTick(jsonRow.vals, jsonRow.tick)
		return wireBenchJSONResponse{Node: jsonRow.vals}, nil
	})
	srv.HandleStream("bench.stream", func(json.RawMessage) (StreamSource, error) {
		return &benchRowSource{vals: make([]float64, 64)}, nil
	})
	run := func(b *testing.B, roundTrip func(c *Client) error) {
		c, ce, se := instrumentedPair(b, srv)
		for i := 0; i < 16; i++ { // stream open, schema frame, buffer growth
			if err := roundTrip(c); err != nil {
				b.Fatal(err)
			}
		}
		syscalls := func() int64 {
			return ce.reads.Load() + ce.writes.Load() + se.reads.Load() + se.writes.Load()
		}
		before := syscalls()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := roundTrip(c); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(syscalls()-before)/float64(b.N), "syscalls/op")
	}
	b.Run("wire=json", func(b *testing.B) {
		var out wireBenchJSONResponse
		run(b, func(c *Client) error { return c.Call("bench.row", nil, &out) })
	})
	b.Run("wire=columnar", func(b *testing.B) {
		var id uint64
		dec := NewColumnarDecoder()
		run(b, func(c *Client) (err error) {
			if id == 0 {
				if id, err = c.openStream("bench.stream", nil, false, 0); err != nil {
					return err
				}
			}
			return c.pullStream(id, dec)
		})
	})
}
