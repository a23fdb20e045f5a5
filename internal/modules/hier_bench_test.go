package modules

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/hierarchy"
	"github.com/asdf-project/asdf/internal/rpc"
)

// BenchmarkCollectionHier measures per-tick collection latency of the
// hierarchical plane: one root delegating the whole fleet to eight shard
// leaders (in-process Leaders behind real loopback RPC servers, columnar
// root hop) versus the single-process sweep, with every simulated daemon a
// fixed 500µs round trip away. Leaders sweep their ranges concurrently and
// the root fetches all partials concurrently, so per-tick latency drops
// toward nodes/(leaders×fanout) round trips. The mode=... suffix is
// stripped by the CI benchstat step to produce the single-vs-hier
// comparison.
func BenchmarkCollectionHier(b *testing.B) {
	const rpcLatency = 500 * time.Microsecond
	const leaders = 8
	for _, nodes := range []int{128, 512, 1024} {
		for _, mode := range []string{"single", "hier"} {
			b.Run(fmt.Sprintf("nodes=%d/mode=%s", nodes, mode), func(b *testing.B) {
				names := make([]string, nodes)
				fakeAddrs := make([]string, nodes)
				for i := range names {
					names[i] = fmt.Sprintf("n%04d", i)
					fakeAddrs[i] = fmt.Sprintf("10.0.0.%d:9999", i)
				}
				dial := func(addr, client string) (rpc.Caller, error) {
					return &delayedSadcCaller{delay: rpcLatency}, nil
				}
				env := NewEnv()
				var cfgText string
				if mode == "single" {
					env.Dial = dial
					cfgText = fmt.Sprintf(
						"[sadc]\nid = collect\nnodes = %s\nmode = rpc\naddrs = %s\nperiod = 1s\n",
						strings.Join(names, ","), strings.Join(fakeAddrs, ","))
				} else {
					// The root's env keeps the real dialer so the leader hop
					// crosses an actual loopback connection; only the
					// leader→daemon edge is faked.
					per := nodes / leaders
					leaderAddrs := make([]string, leaders)
					ranges := make([]string, leaders)
					for li := 0; li < leaders; li++ {
						lo, hi := li*per, (li+1)*per
						lenv := NewEnv()
						lenv.Dial = dial
						ldr, err := NewLeader(lenv, LeaderOptions{
							Name:      fmt.Sprintf("leader%d", li),
							Nodes:     names[lo:hi],
							SadcAddrs: fakeAddrs[lo:hi],
							Fanout:    16,
						})
						if err != nil {
							b.Fatal(err)
						}
						srv := rpc.NewServer(hierarchy.ServiceLeader)
						ldr.Register(srv)
						a, err := srv.Listen("127.0.0.1:0")
						if err != nil {
							b.Fatal(err)
						}
						b.Cleanup(func() { _ = srv.Close() })
						leaderAddrs[li] = a.String()
						ranges[li] = fmt.Sprintf("%d-%d", lo, hi)
					}
					dashes := make([]string, nodes)
					for i := range dashes {
						dashes[i] = "-"
					}
					cfgText = fmt.Sprintf(
						"[sadc]\nid = collect\nnodes = %s\nmode = rpc\naddrs = %s\nperiod = 1s\nwire = columnar\nleaders = %s\nleader_ranges = %s\n",
						strings.Join(names, ","), strings.Join(dashes, ","),
						strings.Join(leaderAddrs, ","), strings.Join(ranges, ","))
				}
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
