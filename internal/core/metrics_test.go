package core

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// dataPlaneCounters are the counters every packet or frame moves on the
// data path; only the ranks' own sets may hold them.
var dataPlaneCounters = []string{
	"packets_up", "packets_queued", "frames_sent", "batches", "shard_dispatches", "credit_grants",
	"flush_size", "flush_age", "flush_idle", "flush_grant", "flush_control", "flush_drain",
}

// TestDataPathCountsPerRank pins who owns the counters: a reduction counts
// into the ranks' own sets and leaves the network-level set's data-plane
// counters at 0, Network.Metrics is the network-level set plus every
// rank's set (sums, and maxima for the high-water gauges), and a router
// killed and adopted away keeps its counts in that sum.
func TestDataPathCountsPerRank(t *testing.T) {
	bothFabrics(t, func(t *testing.T, kind TransportKind) {
		nw := recoverableEchoOn(t, "kary:2^2", 0, kind) // 0; 1,2; leaves 3..6
		defer nw.Shutdown()
		st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
		if err != nil {
			t.Fatal(err)
		}
		// A reader polls the sums while ranks count and one dies.
		stop, polled := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(polled)
			for {
				select {
				case <-stop:
					return
				default:
					nw.Metrics()
					nw.RankMetrics(1)
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()
		defer func() { close(stop); <-polled }()
		for i := 0; i < 5; i++ {
			sumRound(t, st, 18)
		}
		victim, _ := nw.RankMetrics(1)
		if victim.PacketsUp.Load() == 0 {
			t.Fatal("router 1 counted no upstream packets")
		}
		total := nw.Metrics().PacketsUp.Load()
		if err := nw.Kill(1); err != nil {
			t.Fatal(err)
		}
		if _, err := nw.Adopt(1, nil); err != nil {
			t.Fatal(err)
		}
		if got := nw.Metrics().PacketsUp.Load(); got < total {
			t.Errorf("packets_up went back from %d to %d when router 1 died", total, got)
		}
		for i := 0; i < 5; i++ {
			sumRound(t, st, 18)
		}
		if err := nw.Shutdown(); err != nil {
			t.Fatal(err)
		}

		want := nw.metrics.Snapshot()
		for _, name := range dataPlaneCounters {
			if want[name] != 0 {
				t.Errorf("the network-level set counted %s = %d; the data path counts per rank", name, want[name])
			}
		}
		ranks := nw.Tree().Len()
		for r := 0; r < ranks; r++ {
			m, ok := nw.RankMetrics(Rank(r))
			if !ok {
				t.Fatalf("rank %d has no counter set", r)
			}
			for name, v := range m.Snapshot() {
				if strings.HasSuffix(name, "_high_water") {
					want[name] = max(want[name], v)
				} else {
					want[name] += v
				}
			}
		}
		got := nw.Metrics().Snapshot()
		for name, v := range want {
			if got[name] != v {
				t.Errorf("Metrics().%s = %d, want %d (network-level set plus %d ranks)", name, got[name], v, ranks)
			}
		}
		if dead, _ := nw.RankMetrics(1); dead.PacketsUp.Load() < victim.PacketsUp.Load() {
			t.Errorf("killed router's packets_up = %d, want >= %d", dead.PacketsUp.Load(), victim.PacketsUp.Load())
		}
	})
}

// TestRankMetrics reads single ranks' counters after reductions on
// kary:2^2: each router takes in its two children's packets per round, a
// back-end its one command, and the snapshot is a copy.
func TestRankMetrics(t *testing.T) {
	const rounds = 3
	nw := recoverableEcho(t, "kary:2^2", 0)
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		sumRound(t, st, 18)
	}
	if err := nw.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for _, r := range []Rank{0, 1, 2} {
		m, ok := nw.RankMetrics(r)
		if !ok {
			t.Fatalf("router %d has no counter set", r)
		}
		if got := m.PacketsUp.Load(); got != 2*rounds {
			t.Errorf("router %d packets_up = %d, want %d", r, got, 2*rounds)
		}
		if got := m.Batches.Load(); got != rounds {
			t.Errorf("router %d batches = %d, want %d", r, got, rounds)
		}
	}
	leaf, _ := nw.RankMetrics(3)
	if got := leaf.PacketsDown.Load(); got != rounds {
		t.Errorf("back-end 3 packets_down = %d, want %d", got, rounds)
	}
	if got := leaf.PacketsQueued.Load(); got != rounds {
		t.Errorf("back-end 3 packets_queued = %d, want %d", got, rounds)
	}
	leaf.PacketsDown.Add(100)
	if again, _ := nw.RankMetrics(3); again.PacketsDown.Load() != rounds {
		t.Errorf("a write to the snapshot reached rank 3's set: packets_down = %d", again.PacketsDown.Load())
	}
	if _, ok := nw.RankMetrics(7); ok {
		t.Error("RankMetrics(7) found a set for a rank the network never spawned")
	}
}

// BenchmarkParallelLeafSend drives many back-ends sending into one chan
// router at once: flat:16, one sum/waitforall stream, every leaf sending
// b.N values as fast as its credits allow while the front-end reads the
// b.N reduced rounds. Every rank's data path runs concurrently here, so a
// counter or any other cache line that all ranks write shows up as lost
// rate, at -cpu 2 and above. One op is one round of 16 leaf packets; it
// reports pkts/s and asserts nothing.
func BenchmarkParallelLeafSend(b *testing.B) {
	const leaves = 16
	rounds := b.N
	nw, err := NewNetwork(Config{
		Topology: mustTreeTB(b, fmt.Sprintf("flat:%d", leaves)),
		OnBackEnd: func(be *BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				for i := 0; i < rounds; i++ {
					if err := be.Send(p.StreamID, p.Tag, "%d", int64(i)); err != nil {
						return nil
					}
				}
			}
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := st.Multicast(tagQuery, ""); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		if _, err := st.RecvTimeout(30 * time.Second); err != nil {
			b.Fatalf("round %d: %v", i, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rounds*leaves)/b.Elapsed().Seconds(), "pkts/s")
}
