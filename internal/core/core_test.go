package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/transport"
)

const tagQuery = packet.TagFirstApplication

// echoValue builds a network whose back-ends answer every multicast with
// rank-derived float payloads.
func echoValue(t *testing.T, tree *topology.Tree, kind TransportKind) *Network {
	t.Helper()
	nw, err := NewNetwork(Config{
		Topology:  tree,
		Transport: kind,
		OnBackEnd: func(be *BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				if err := be.Send(p.StreamID, p.Tag, "%f", float64(be.Rank())); err != nil {
					return nil
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func mustTree(t *testing.T, spec string) *topology.Tree {
	t.Helper()
	tr, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSumReductionFlat(t *testing.T) {
	tree := mustTree(t, "flat:8")
	nw := echoValue(t, tree, ChanTransport)
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	p, err := st.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Leaves are ranks 1..8; sum = 36.
	if v, _ := p.Float(0); v != 36 {
		t.Errorf("sum = %g, want 36", v)
	}
}

func TestSumReductionDeepTree(t *testing.T) {
	// The same reduction must be correct on a multi-level tree where
	// filters execute at every communication process.
	for _, spec := range []string{"kary:4^2", "kary:2^3", "balanced:13,3", "knomial:2^4"} {
		t.Run(spec, func(t *testing.T) {
			tree := mustTree(t, spec)
			nw := echoValue(t, tree, ChanTransport)
			defer nw.Shutdown()
			st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
			if err != nil {
				t.Fatal(err)
			}
			var want float64
			for _, l := range tree.Leaves() {
				want += float64(l)
			}
			if err := st.Multicast(tagQuery, ""); err != nil {
				t.Fatal(err)
			}
			p, err := st.RecvTimeout(5 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := p.Float(0); v != want {
				t.Errorf("sum = %g, want %g", v, want)
			}
		})
	}
}

func TestAvgAcrossLevels(t *testing.T) {
	tree := mustTree(t, "kary:3^2") // 9 leaves, ranks 4..12
	nw := echoValue(t, tree, ChanTransport)
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "avg", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	p, err := st.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := p.Int(0)
	m, _ := p.Float(1)
	if w != 9 {
		t.Errorf("weight = %d, want 9", w)
	}
	var want float64
	for _, l := range tree.Leaves() {
		want += float64(l)
	}
	want /= 9
	if math.Abs(m-want) > 1e-9 {
		t.Errorf("avg = %g, want %g", m, want)
	}
}

func TestMinMaxCount(t *testing.T) {
	tree := mustTree(t, "kary:2^3") // leaves 7..14
	nw := echoValue(t, tree, ChanTransport)
	defer nw.Shutdown()
	cases := []struct {
		tform string
		check func(p *packet.Packet) error
	}{
		{"min", func(p *packet.Packet) error {
			if v, _ := p.Float(0); v != 7 {
				return fmt.Errorf("min = %g, want 7", v)
			}
			return nil
		}},
		{"max", func(p *packet.Packet) error {
			if v, _ := p.Float(0); v != 14 {
				return fmt.Errorf("max = %g, want 14", v)
			}
			return nil
		}},
		{"count", func(p *packet.Packet) error {
			if v, _ := p.Int(0); v != 8 {
				return fmt.Errorf("count = %d, want 8", v)
			}
			return nil
		}},
	}
	for _, c := range cases {
		st, err := nw.NewStream(StreamSpec{Transformation: c.tform, Synchronization: "waitforall"})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Multicast(tagQuery, ""); err != nil {
			t.Fatal(err)
		}
		p, err := st.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatalf("%s: %v", c.tform, err)
		}
		if err := c.check(p); err != nil {
			t.Errorf("%s: %v", c.tform, err)
		}
	}
}

func TestSubsetStream(t *testing.T) {
	tree := mustTree(t, "kary:2^2") // leaves 3,4,5,6
	nw := echoValue(t, tree, ChanTransport)
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{
		Endpoints:       []Rank{3, 6},
		Transformation:  "sum",
		Synchronization: "waitforall",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	p, err := st.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Float(0); v != 9 {
		t.Errorf("subset sum = %g, want 9 (leaves 3+6)", v)
	}
}

func TestOverlappingConcurrentStreams(t *testing.T) {
	tree := mustTree(t, "kary:2^2")
	nw := echoValue(t, tree, ChanTransport)
	defer nw.Shutdown()
	stA, err := nw.NewStream(StreamSpec{
		Endpoints: []Rank{3, 4, 5}, Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	stB, err := nw.NewStream(StreamSpec{
		Endpoints: []Rank{4, 5, 6}, Transformation: "max", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if err := stA.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	if err := stB.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	pa, err := stA.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := stB.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := pa.Float(0); v != 12 {
		t.Errorf("stream A sum = %g, want 12", v)
	}
	if v, _ := pb.Float(0); v != 6 {
		t.Errorf("stream B max = %g, want 6", v)
	}
}

func TestMultipleRounds(t *testing.T) {
	tree := mustTree(t, "kary:3^2")
	nw := echoValue(t, tree, ChanTransport)
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "count", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		if err := st.Multicast(tagQuery, ""); err != nil {
			t.Fatal(err)
		}
		p, err := st.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if v, _ := p.Int(0); v != 9 {
			t.Fatalf("round %d: count = %d, want 9", round, v)
		}
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	tree := mustTree(t, "kary:2^2")
	nw := echoValue(t, tree, TCPTransport)
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	p, err := st.RecvTimeout(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Float(0); v != 18 {
		t.Errorf("TCP sum = %g, want 18 (3+4+5+6)", v)
	}
}

func TestTimeoutSynchronization(t *testing.T) {
	// With the timeout policy a straggler does not block delivery: back-end
	// 2 never answers, yet the front-end receives a partial aggregate.
	tree := mustTree(t, "flat:3")
	reg := filter.NewRegistry()
	reg.RegisterSynchronizer("timeout", func() filter.Synchronizer {
		return filter.NewTimeOut(100 * time.Millisecond)
	})
	nw, err := NewNetwork(Config{
		Topology: tree,
		Registry: reg,
		OnBackEnd: func(be *BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				if be.Rank() == 2 {
					continue // permanent straggler
				}
				be.Send(p.StreamID, p.Tag, "%f", float64(be.Rank()))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "timeout"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	p, err := st.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Float(0); v != 4 { // ranks 1+3
		t.Errorf("timeout partial sum = %g, want 4", v)
	}
}

func TestWaitForAllBlocksOnStraggler(t *testing.T) {
	tree := mustTree(t, "flat:3")
	nw, err := NewNetwork(Config{
		Topology: tree,
		OnBackEnd: func(be *BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				if be.Rank() == 2 {
					continue
				}
				be.Send(p.StreamID, p.Tag, "%f", 1.0)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	st.Multicast(tagQuery, "")
	if p, err := st.RecvTimeout(200 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("wait_for_all with straggler: got %v, %v; want timeout", p, err)
	}
}

func TestStreamClose(t *testing.T) {
	tree := mustTree(t, "kary:2^2")
	nw := echoValue(t, tree, ChanTransport)
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); !errors.Is(err, io.EOF) {
		t.Errorf("Recv on closed stream: %v, want io.EOF", err)
	}
	if err := st.Multicast(tagQuery, ""); !errors.Is(err, ErrShutdown) {
		t.Errorf("Multicast on closed stream: %v, want ErrShutdown", err)
	}
	if nw.Stream(st.ID()) != nil {
		t.Error("closed stream still registered")
	}
	// Closing twice is fine.
	if err := st.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestNewStreamValidation(t *testing.T) {
	tree := mustTree(t, "kary:2^2")
	nw := echoValue(t, tree, ChanTransport)
	defer nw.Shutdown()
	if _, err := nw.NewStream(StreamSpec{Transformation: "no-such-filter"}); err == nil {
		t.Error("unknown transformation: want error")
	}
	if _, err := nw.NewStream(StreamSpec{Synchronization: "no-such-sync"}); err == nil {
		t.Error("unknown synchronizer: want error")
	}
	if _, err := nw.NewStream(StreamSpec{Endpoints: []Rank{1}}); err == nil {
		t.Error("internal node as endpoint: want error")
	}
	if _, err := nw.NewStream(StreamSpec{Endpoints: []Rank{99}}); err == nil {
		t.Error("nonexistent endpoint: want error")
	}
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(Config{}); err == nil {
		t.Error("nil topology: want error")
	}
	one, _ := topology.FromParents([]Rank{topology.NoRank})
	if _, err := NewNetwork(Config{Topology: one}); err == nil {
		t.Error("single-node topology: want error")
	}
	tr := mustTree(t, "flat:2")
	if _, err := NewNetwork(Config{Topology: tr, Transport: TransportKind(99)}); err == nil {
		t.Error("unknown transport: want error")
	}
}

func TestShutdownIdempotentAndEOF(t *testing.T) {
	tree := mustTree(t, "kary:2^2")
	nw := echoValue(t, tree, ChanTransport)
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := nw.Shutdown(); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
	if _, err := st.Recv(); !errors.Is(err, io.EOF) {
		t.Errorf("Recv after shutdown: %v, want io.EOF", err)
	}
	if _, err := nw.NewStream(StreamSpec{}); !errors.Is(err, ErrShutdown) {
		t.Errorf("NewStream after shutdown: %v, want ErrShutdown", err)
	}
}

func TestBackEndErrorSurfaces(t *testing.T) {
	tree := mustTree(t, "flat:2")
	boom := errors.New("boom")
	nw, err := NewNetwork(Config{
		Topology: tree,
		OnBackEnd: func(be *BackEnd) error {
			if be.Rank() == 1 {
				return boom
			}
			for {
				if _, err := be.Recv(); err != nil {
					return nil
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Shutdown(); !errors.Is(err, boom) {
		t.Errorf("Shutdown = %v, want boom", err)
	}
}

func TestUnreducedStreamDeliversAll(t *testing.T) {
	// Identity transformation + nullsync: the front-end sees one packet per
	// back-end per round (a gather, not a reduction).
	tree := mustTree(t, "kary:2^2")
	nw := echoValue(t, tree, ChanTransport)
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	got := map[float64]bool{}
	for i := 0; i < 4; i++ {
		p, err := st.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		v, _ := p.Float(0)
		got[v] = true
	}
	for _, leaf := range tree.Leaves() {
		if !got[float64(leaf)] {
			t.Errorf("missing packet from leaf %d (got %v)", leaf, got)
		}
	}
}

func TestCustomFilterViaRegistry(t *testing.T) {
	// An application-specific filter loaded by name: a "vote" filter that
	// forwards only the majority value — exercising the dynamic-loading
	// path the paper describes via dlopen.
	reg := filter.NewRegistry()
	reg.RegisterTransformation("vote", func() filter.Transformation {
		return filter.TransformFunc(func(in []*packet.Packet, emit filter.Emitter) error {
			counts := map[int64]int{}
			for _, p := range in {
				v, err := p.Int(0)
				if err != nil {
					return err
				}
				counts[v]++
			}
			var best int64
			bestN := -1
			for v, n := range counts {
				if n > bestN || (n == bestN && v < best) {
					best, bestN = v, n
				}
			}
			out, err := packet.New(in[0].Tag, in[0].StreamID, packet.UnknownRank, "%d", best)
			if err != nil {
				return err
			}
			emit.Emit(out)
			return nil
		})
	})
	tree := mustTree(t, "kary:3^2")
	nw, err := NewNetwork(Config{
		Topology: tree,
		Registry: reg,
		OnBackEnd: func(be *BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				v := int64(1)
				if be.Rank()%4 == 0 {
					v = 2
				}
				be.Send(p.StreamID, p.Tag, "%d", v)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "vote", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	p, err := st.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Int(0); v != 1 {
		t.Errorf("vote = %d, want 1", v)
	}
}

func TestSimnetWrappedNetwork(t *testing.T) {
	tree := mustTree(t, "kary:2^2")
	var clock simnet.Clock
	nw, err := NewNetwork(Config{
		Topology: tree,
		WrapFabric: func(eps []*transport.Endpoint) {
			simnet.Wrap(eps, simnet.GigE, &clock, 0)
		},
		OnBackEnd: func(be *BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				be.Send(p.StreamID, p.Tag, "%f", 1.0)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := st.RecvTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if clock.Elapsed() == 0 {
		t.Error("simnet clock did not advance")
	}
}

func TestMetricsCount(t *testing.T) {
	tree := mustTree(t, "flat:4")
	nw := echoValue(t, tree, ChanTransport)
	defer nw.Shutdown()
	st, _ := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	st.Multicast(tagQuery, "")
	if _, err := st.RecvTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if nw.Metrics().PacketsUp.Load() < 4 {
		t.Errorf("PacketsUp = %d, want >= 4", nw.Metrics().PacketsUp.Load())
	}
	if nw.Metrics().PacketsDown.Load() < 1 {
		t.Errorf("PacketsDown = %d, want >= 1", nw.Metrics().PacketsDown.Load())
	}
	if nw.Metrics().Batches.Load() < 1 {
		t.Errorf("Batches = %d, want >= 1", nw.Metrics().Batches.Load())
	}
}

func TestLargeOverlay(t *testing.T) {
	if testing.Short() {
		t.Skip("large overlay in -short mode")
	}
	// A 1024-leaf, 3-level tree: 1 + 8 + 64 + ... goroutine-per-node scale.
	tree := mustTree(t, "kary:8^3") // 512 leaves... 8^3 = 512
	nw := echoValue(t, tree, ChanTransport)
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "count", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := st.Multicast(tagQuery, ""); err != nil {
			t.Fatal(err)
		}
		p, err := st.RecvTimeout(30 * time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if v, _ := p.Int(0); v != 512 {
			t.Fatalf("round %d: count = %d, want 512", round, v)
		}
	}
}

func TestSpontaneousUpstream(t *testing.T) {
	// Back-ends may send without a triggering multicast (monitoring-style
	// periodic reporting).
	tree := mustTree(t, "flat:4")
	var started atomic.Int32
	nw, err := NewNetwork(Config{
		Topology: tree,
		OnBackEnd: func(be *BackEnd) error {
			started.Add(1)
			// Stream 1 will be created by the front-end; wait for the
			// control to arrive is not observable here, so retry sends
			// until the network shuts down.
			for i := 0; i < 500; i++ {
				if err := be.Send(1, tagQuery, "%f", 2.5); err != nil {
					return nil
				}
				time.Sleep(20 * time.Millisecond)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID() != 1 {
		t.Fatalf("first stream id = %d, want 1", st.ID())
	}
	p, err := st.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Float(0); v != 10 {
		t.Errorf("spontaneous sum = %g, want 10", v)
	}
}

func BenchmarkReductionRoundFlat64(b *testing.B) {
	benchReductionRound(b, "flat:64")
}

func BenchmarkReductionRoundDeep64(b *testing.B) {
	benchReductionRound(b, "kary:8^2")
}

func benchReductionRound(b *testing.B, spec string) {
	tree, err := topology.ParseSpec(spec)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := NewNetwork(Config{
		Topology: tree,
		OnBackEnd: func(be *BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				if err := be.Send(p.StreamID, p.Tag, "%f", 1.0); err != nil {
					return nil
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
	for i := 0; i < b.N; i++ {
		if err := st.Multicast(tagQuery, ""); err != nil {
			b.Fatal(err)
		}
		if _, err := st.RecvTimeout(30 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
