package modules

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/sadc"
)

// delayedSadcCaller simulates a collection daemon one network round trip
// away: each call sleeps for the configured latency, then returns a canned
// record's JSON. Latency-bound concurrency gains show up even on a single CPU.
type delayedSadcCaller struct {
	delay time.Duration
}

// delayedSadcReply is the canned record every delayedSadcCaller answers with.
var delayedSadcReply, _ = json.Marshal(sadc.Record{Node: make([]float64, 64)})

func (c *delayedSadcCaller) Call(method string, params, result any) error {
	time.Sleep(c.delay)
	if result == nil {
		return nil
	}
	return rpc.DecodeResult(delayedSadcReply, result)
}

func (c *delayedSadcCaller) Close() error { return nil }

// BenchmarkCollectionFanout measures the per-tick collection latency of one
// multi-node sadc instance polling simulated daemons with a fixed 500µs
// per-RPC latency, serial (fanout=1) versus the bounded worker pool
// (fanout=0, i.e. min(16, nodes)). The mode=... suffix is stripped by the
// CI benchstat step to produce the serial-vs-parallel comparison.
func BenchmarkCollectionFanout(b *testing.B) {
	const rpcLatency = 500 * time.Microsecond
	for _, nodes := range []int{8, 32, 128} {
		for _, mode := range []struct {
			name   string
			fanout int
		}{{"serial", 1}, {"parallel", 0}} {
			b.Run(fmt.Sprintf("nodes=%d/mode=%s", nodes, mode.name), func(b *testing.B) {
				names := make([]string, nodes)
				addrs := make([]string, nodes)
				for i := range names {
					names[i] = fmt.Sprintf("n%03d", i)
					addrs[i] = fmt.Sprintf("10.0.0.%d:9999", i)
				}
				env := NewEnv()
				env.Dial = func(addr, client string) (rpc.Caller, error) {
					return &delayedSadcCaller{delay: rpcLatency}, nil
				}
				cfgText := fmt.Sprintf(
					"[sadc]\nid = collect\nnodes = %s\nmode = rpc\naddrs = %s\nperiod = 1s\nfanout = %d\n",
					strings.Join(names, ","), strings.Join(addrs, ","), mode.fanout)
				file, err := config.ParseString(cfgText)
				if err != nil {
					b.Fatal(err)
				}
				eng, err := core.NewEngine(NewRegistry(env), file)
				if err != nil {
					b.Fatal(err)
				}
				start := time.Unix(1_700_000_000, 0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := eng.Tick(start.Add(time.Duration(i+1) * time.Second)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
