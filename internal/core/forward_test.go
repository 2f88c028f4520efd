package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/packet"
)

// TestForwardHopEncodesNothing pins where serialization happens on the
// shipping data plane over TCP (kary:2^2, identity/nullsync, exactly-once):
// at a packet's origin and nowhere else. Upstream, the encode counter
// rises by exactly the packets the leaves sent — the interior hop frames
// what it received from header fields and wire payload, and so does its
// replay ring; the front-end only reads. Downstream, a multicast costs the
// front-end one pass and the interior, fanning it out to two child links,
// none.
func TestForwardHopEncodesNothing(t *testing.T) {
	const (
		perLeaf = 100
		casts   = 20
	)
	payload := make([]byte, 256)
	var castsSeen atomic.Int64
	nw, err := NewNetwork(Config{
		Topology:  mustTree(t, "kary:2^2"),
		Transport: TCPTransport,
		OnBackEnd: func(be *BackEnd) error {
			p, err := be.Recv() // the start multicast
			if err != nil {
				return nil
			}
			for i := 0; i < perLeaf; i++ {
				if err := be.Send(p.StreamID, p.Tag, "%d %ac", int64(i), payload); err != nil {
					return nil
				}
			}
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				if b, err := p.Bytes(1); err != nil || len(b) != len(payload) {
					t.Errorf("back-end %d: multicast payload %d bytes, %v", be.Rank(), len(b), err)
				}
				castsSeen.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "null", Synchronization: "nullsync"})
	if err != nil {
		t.Fatal(err)
	}
	leaves := len(nw.cfg.Topology.Leaves())

	// Stream setup is control traffic with values and is over; the start
	// multicast is header-only and has nothing to serialize.
	before := packet.WireEncodes()
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < perLeaf*leaves; i++ {
		p, err := st.RecvTimeout(30 * time.Second)
		if err != nil {
			t.Fatalf("packet %d of %d: %v", i, perLeaf*leaves, err)
		}
		if b, err := p.Bytes(1); err != nil || len(b) != len(payload) {
			t.Fatalf("packet %d: payload %d bytes, %v", i, len(b), err)
		}
	}
	if got, want := packet.WireEncodes()-before, int64(perLeaf*leaves); got != want {
		t.Errorf("%d leaf packets crossed two TCP hops for %d serialization passes, want %d (the leaves' own, none at the interior or the front-end)", want, got, want)
	}

	before = packet.WireEncodes()
	for i := 0; i < casts; i++ {
		if err := st.Multicast(tagQuery, "%d %ac", int64(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for castsSeen.Load() < int64(casts*leaves) {
		if time.Now().After(deadline) {
			t.Fatalf("back-ends saw %d of %d multicast packets", castsSeen.Load(), casts*leaves)
		}
		time.Sleep(time.Millisecond)
	}
	if got := packet.WireEncodes() - before; got != casts {
		t.Errorf("%d multicasts down two TCP levels cost %d serialization passes, want %d (one each at the front-end, none at the interior)", casts, got, casts)
	}
}
