package modules

import (
	"testing"
	"time"

	"github.com/asdf-project/asdf/internal/hadoopsim"
	"github.com/asdf-project/asdf/internal/procfs"
	"github.com/asdf-project/asdf/internal/rpc"
)

// replayProvider replays snapshots recorded from a simulated node, one
// second apart and without end, so every Collect after the first reports
// the rates of a working node.
type replayProvider struct {
	snaps []*procfs.Snapshot
	i     int
	t     time.Time
}

func (p *replayProvider) Snapshot() (*procfs.Snapshot, error) {
	s := p.snaps[p.i%len(p.snaps)]
	p.i++
	p.t = p.t.Add(time.Second)
	s.Time = p.t
	return s, nil
}

// newReplayProvider records n snapshots of one busy simulated slave.
func newReplayProvider(tb testing.TB, seed int64, n int) *replayProvider {
	tb.Helper()
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(1, seed))
	if err != nil {
		tb.Fatal(err)
	}
	p := &replayProvider{t: c.Now()}
	for i := 0; i < 30+n; i++ {
		c.Tick()
		if i < 30 {
			continue // let jobs start
		}
		s, err := c.Slave(0).Snapshot()
		if err != nil {
			tb.Fatal(err)
		}
		p.snaps = append(p.snaps, s)
	}
	return p
}

// BenchmarkJSONCollectRoundTrip is one sadc.collect call of wire = json, the
// default, over loopback TCP: the real daemon registration and the real
// metric source, request encode to Record decode on both ends (both live in
// this process, so allocs/op counts the server's share too).
func BenchmarkJSONCollectRoundTrip(b *testing.B) {
	srv := rpc.NewServer(ServiceSadc)
	RegisterSadcServer(srv, newReplayProvider(b, 7, 16))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	client, err := rpc.Dial(addr.String(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	src := NewRPCMetricSource(client)
	for i := 0; i < 16; i++ {
		if _, err := src.Collect(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Collect(); err != nil {
			b.Fatal(err)
		}
	}
}
