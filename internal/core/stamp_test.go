package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/packet"
)

// header is the part of a packet a hop may restamp.
type header struct {
	stream uint32
	src    Rank
	seq    uint64
}

func headerOf(p *packet.Packet) header { return header{p.StreamID, p.SrcRank, p.Seq} }

// inputLog records every packet a filter instance was handed, with its
// header as the filter saw it. On the chan fabric those are the pointers
// the sending hop built and still holds in its replay ring.
type inputLog struct {
	mu   sync.Mutex
	pkts []*packet.Packet
	seen []header
}

func (l *inputLog) Apply(in []*packet.Packet, out filter.Emitter) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range in {
		l.pkts = append(l.pkts, p)
		l.seen = append(l.seen, headerOf(p))
	}
	return filter.Identity{}.Apply(in, out)
}

// unchanged reports every logged packet whose header moved after a filter
// had received it.
func (l *inputLog) unchanged(t *testing.T) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, p := range l.pkts {
		if got := headerOf(p); got != l.seen[i] {
			t.Errorf("a received packet was restamped in place: %+v, was %+v", got, l.seen[i])
		}
	}
}

// TestForwardNeverRestampsInPlace: on the chan fabric a hop's input is the
// very packet its child sent and still holds in its replay ring. A parent
// forwarding it (identity/nullsync) must restamp a copy: the back-end's
// packet, and the interior's copy the front-end reads, keep the header
// their sender gave them, and the origin Seq survives both hops.
func TestForwardNeverRestampsInPlace(t *testing.T) {
	const perLeaf = 50
	log := &inputLog{}
	reg := filter.NewRegistry()
	reg.RegisterTransformation("log", func() filter.Transformation { return log })
	var sentMu sync.Mutex
	sent := map[*packet.Packet]header{}
	nw, err := NewNetwork(Config{
		Topology: mustTree(t, "kary:2^2"),
		Registry: reg,
		OnBackEnd: func(be *BackEnd) error {
			start, err := be.Recv()
			if err != nil {
				return nil
			}
			for i := 1; i <= perLeaf; i++ {
				// Pre-stamped, so SendPacket queues this very pointer.
				p := packet.MustNew(start.Tag, start.StreamID, be.Rank(), "%d", i).
					WithSeq(packet.MakeSeq(be.Rank(), uint64(i)))
				sentMu.Lock()
				sent[p] = headerOf(p)
				sentMu.Unlock()
				if err := be.SendPacket(p); err != nil {
					return nil
				}
			}
			_, _ = be.Recv() // hold the handler open until shutdown
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "log", Synchronization: "nullsync"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	leaves := nw.cfg.Topology.Leaves()
	for i := 0; i < perLeaf*len(leaves); i++ {
		p, err := st.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if p.StreamID != st.ID() || p.SrcRank != 0 || p.Seq == 0 {
			t.Fatalf("delivered header %+v, want stream %d from the root with its origin Seq", headerOf(p), st.ID())
		}
	}
	sentMu.Lock()
	defer sentMu.Unlock()
	if len(sent) != perLeaf*len(leaves) {
		t.Fatalf("back-ends sent %d packets, want %d", len(sent), perLeaf*len(leaves))
	}
	for p, h := range sent {
		if got := headerOf(p); got != h {
			t.Errorf("a back-end's queued packet was restamped in place: %+v, was %+v", got, h)
		}
	}
	log.unchanged(t)
}

// TestReduceOutputsStampedInPlace: a sum output is built by its node's
// filter, so the node stamps it in place. Every output an interior node
// sends up carries the stream, that node's rank and an origin Seq of its
// own, consecutive outputs distinct and increasing; the front-end's
// results are addressed from the root; and no packet changes after its
// receiver saw it.
func TestReduceOutputsStampedInPlace(t *testing.T) {
	const waves = 20
	log := &inputLog{}
	reg := filter.NewRegistry()
	reg.RegisterTransformation("logsum", func() filter.Transformation {
		return filter.NewChain(log, filter.NewNumericReduce(filter.OpSum))
	})
	tree := mustTree(t, "kary:2^2")
	nw, err := NewNetwork(Config{
		Topology: tree,
		Registry: reg,
		OnBackEnd: func(be *BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				if err := be.Send(p.StreamID, p.Tag, "%d", int64(be.Rank())); err != nil {
					return nil
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "logsum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, r := range tree.Leaves() {
		want += int64(r)
	}
	for i := 0; i < waves; i++ {
		if err := st.Multicast(tagQuery, ""); err != nil {
			t.Fatal(err)
		}
		p, err := st.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatalf("wave %d: %v", i, err)
		}
		if v, _ := p.Int(0); v != want || p.StreamID != st.ID() || p.SrcRank != 0 {
			t.Fatalf("wave %d delivered %d with header %+v, want %d on stream %d from the root", i, v, headerOf(p), want, st.ID())
		}
	}

	interior := map[Rank][]uint64{}
	for _, r := range tree.InternalNodes() {
		interior[r] = nil
	}
	log.mu.Lock()
	for _, h := range log.seen {
		if _, ok := interior[h.src]; !ok {
			continue // a back-end's packet, at an interior node
		}
		if h.stream != st.ID() || packet.SeqOrigin(h.seq) != h.src {
			t.Errorf("interior output %+v: want stream %d and an origin Seq of rank %d", h, st.ID(), h.src)
		}
		interior[h.src] = append(interior[h.src], packet.SeqCounter(h.seq))
	}
	log.mu.Unlock()
	for r, ctrs := range interior {
		if len(ctrs) != waves {
			t.Errorf("rank %d sent %d outputs up, want %d", r, len(ctrs), waves)
		}
		for i := 1; i < len(ctrs); i++ {
			if ctrs[i] <= ctrs[i-1] {
				t.Errorf("rank %d: output %d has Seq counter %d after %d", r, i, ctrs[i], ctrs[i-1])
			}
		}
	}
	log.unchanged(t)
}

// TestForwardKeepsCreatorSrcRank: an interior node forwards a back-end's
// packet as it is, so the root's filter sees it with the SrcRank of the
// back-end that built it — the rank its origin Seq names — not the
// interior's.
func TestForwardKeepsCreatorSrcRank(t *testing.T) {
	const perLeaf = 20
	var mu sync.Mutex
	var logs []*inputLog
	reg := filter.NewRegistry()
	reg.RegisterTransformation("log", func() filter.Transformation {
		mu.Lock()
		defer mu.Unlock()
		l := &inputLog{}
		logs = append(logs, l)
		return l
	})
	tree := mustTree(t, "kary:2^2")
	nw, err := NewNetwork(Config{
		Topology: tree,
		Registry: reg,
		OnBackEnd: func(be *BackEnd) error {
			start, err := be.Recv()
			if err != nil {
				return nil
			}
			for i := 1; i <= perLeaf; i++ {
				if err := be.Send(start.StreamID, start.Tag, "%d", i); err != nil {
					return nil
				}
			}
			_, _ = be.Recv()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "log", Synchronization: "nullsync"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	for i := 0; i < perLeaf*len(leaves); i++ {
		if _, err := st.RecvTimeout(10 * time.Second); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
	// Each interior instance sees its own subtree's packets; the root's
	// sees every back-end's.
	isLeaf := map[Rank]bool{}
	for _, r := range leaves {
		isLeaf[r] = true
	}
	mu.Lock()
	defer mu.Unlock()
	var root *inputLog
	for _, l := range logs {
		l.mu.Lock()
		if len(l.seen) == perLeaf*len(leaves) {
			root = l
		}
		l.mu.Unlock()
	}
	if root == nil {
		t.Fatalf("no filter instance saw all %d packets", perLeaf*len(leaves))
	}
	root.mu.Lock()
	defer root.mu.Unlock()
	for _, h := range root.seen {
		if !isLeaf[h.src] || packet.SeqOrigin(h.seq) != h.src {
			t.Fatalf("the root's filter saw header %+v: want the SrcRank of the back-end its origin Seq names", h)
		}
	}
}
