package core

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestAttachBackEnd exercises the paper's dynamic topology model: a
// back-end joins a running network, and a stream created afterwards
// includes it in the reduction.
func TestAttachBackEnd(t *testing.T) {
	tree := mustTree(t, "kary:2^2") // leaves 3..6
	var mu sync.Mutex
	values := map[Rank]float64{}
	nw, err := NewNetwork(Config{
		Topology: tree,
		OnBackEnd: func(be *BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				mu.Lock()
				values[be.Rank()] = float64(be.Rank())
				mu.Unlock()
				if err := be.Send(p.StreamID, p.Tag, "%f", float64(be.Rank())); err != nil {
					return nil
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()

	// Attach two new back-ends under comm node 1.
	r1, err := nw.AttachBackEnd(1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := nw.AttachBackEnd(1)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != 7 || r2 != 8 {
		t.Fatalf("attached ranks %d, %d; want 7, 8", r1, r2)
	}
	if got := len(nw.Tree().Leaves()); got != 6 {
		t.Fatalf("tree now has %d leaves, want 6", got)
	}

	// A count over all leaves must include the newcomers.
	st, err := nw.NewStream(StreamSpec{Transformation: "count", Synchronization: "waitforall"})
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
	if v, _ := p.Int(0); v != 6 {
		t.Errorf("count = %d, want 6 (4 original + 2 attached)", v)
	}

	// A sum over just the newcomers works too (subset stream).
	st2, err := nw.NewStream(StreamSpec{
		Endpoints:       []Rank{r1, r2},
		Transformation:  "sum",
		Synchronization: "waitforall",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	p, err = st2.RecvTimeout(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Float(0); v != 15 { // 7 + 8
		t.Errorf("newcomer sum = %g, want 15", v)
	}
}

func TestAttachBackEndValidation(t *testing.T) {
	tree := mustTree(t, "kary:2^2")
	nw := echoValue(t, tree, ChanTransport)
	defer nw.Shutdown()
	// The front-end of a non-flat tree and back-ends cannot accept
	// children; both rejections carry the documented typed error.
	if _, err := nw.AttachBackEnd(0); !errors.Is(err, ErrBadAttachParent) {
		t.Errorf("attach to front-end of deep tree: err = %v, want ErrBadAttachParent", err)
	}
	if _, err := nw.AttachBackEnd(3); !errors.Is(err, ErrBadAttachParent) {
		t.Errorf("attach to back-end: err = %v, want ErrBadAttachParent", err)
	}
	if _, err := nw.AttachBackEnd(99); err == nil {
		t.Error("attach to missing rank: want error")
	}
}

// TestAttachBackEndTCP: dynamic attach works on the TCP fabric — the new
// link is minted by a listen, dial and accept, and the newcomer joins
// new streams.
func TestAttachBackEndTCP(t *testing.T) {
	tcp := echoValue(t, mustTree(t, "kary:2^2"), TCPTransport)
	defer tcp.Shutdown()
	r, err := tcp.AttachBackEnd(1)
	if err != nil {
		t.Fatalf("attach on TCP transport: %v", err)
	}
	if r != 7 {
		t.Fatalf("attached rank %d, want 7", r)
	}
	st, err := tcp.NewStream(StreamSpec{Transformation: "count", Synchronization: "waitforall"})
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
	if v, _ := p.Int(0); v != 5 {
		t.Errorf("count = %d, want 5 (4 original + 1 attached over TCP)", v)
	}
	if tcp.Metrics().RewiredLinks.Load() == 0 {
		t.Error("RewiredLinks not counted")
	}
}

// TestAttachBackEndFlatTree: on a flat (depth-1) topology the front-end
// is the only routing process, so it accepts attachments directly —
// previously rejected outright, which made flat trees permanently static.
func TestAttachBackEndFlatTree(t *testing.T) {
	for _, tr := range []TransportKind{ChanTransport, TCPTransport} {
		name := "chan"
		if tr == TCPTransport {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			nw := echoValue(t, mustTree(t, "flat:3"), tr)
			defer nw.Shutdown()

			// Existing streams must keep excluding the newcomer.
			pre, err := nw.NewStream(StreamSpec{Transformation: "count", Synchronization: "waitforall"})
			if err != nil {
				t.Fatal(err)
			}
			r, err := nw.AttachBackEnd(0)
			if err != nil {
				t.Fatal(err)
			}
			if r != 4 {
				t.Fatalf("attached rank %d, want 4", r)
			}
			for round := 0; round < 2; round++ {
				if err := pre.Multicast(tagQuery, ""); err != nil {
					t.Fatal(err)
				}
				p, err := pre.RecvTimeout(10 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if v, _ := p.Int(0); v != 3 {
					t.Errorf("old stream count = %d, want 3 (newcomer excluded)", v)
				}
			}

			// A stream created afterwards includes it.
			post, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
			if err != nil {
				t.Fatal(err)
			}
			if err := post.Multicast(tagQuery, ""); err != nil {
				t.Fatal(err)
			}
			p, err := post.RecvTimeout(10 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := p.Float(0); v != 10 { // ranks 1+2+3+4
				t.Errorf("new stream sum = %g, want 10", v)
			}
		})
	}
}

func TestAttachedBackEndSurvivesExistingStreams(t *testing.T) {
	// Streams created before the attach keep working and exclude the
	// newcomer; the newcomer's spontaneous sends on an old stream pass
	// through unfiltered at nodes that do not know it (slot -1 delivers
	// immediately under WaitForAll).
	tree := mustTree(t, "kary:2^2")
	nw := echoValue(t, tree, ChanTransport)
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "count", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AttachBackEnd(2); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := st.Multicast(tagQuery, ""); err != nil {
			t.Fatal(err)
		}
		p, err := st.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if v, _ := p.Int(0); v != 4 {
			t.Errorf("round %d: old stream count = %d, want 4 (newcomer excluded)", round, v)
		}
	}
}

func TestAttachAfterShutdown(t *testing.T) {
	tree := mustTree(t, "kary:2^2")
	nw := echoValue(t, tree, ChanTransport)
	nw.Shutdown()
	if _, err := nw.AttachBackEnd(1); err == nil {
		t.Error("attach after shutdown: want error")
	}
}
