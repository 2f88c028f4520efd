package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/transport"
)

// A dead process keeps no live link: every edge the network mints is
// dropped at both ends when the process meant to hold one is dead.

// endTap records whether a link end was dropped or closed.
type endTap struct {
	transport.Link
	shut atomic.Bool
}

func (e *endTap) Drop()        { e.shut.Store(true); transport.DropLink(e.Link) }
func (e *endTap) Close() error { e.shut.Store(true); return e.Link.Close() }

// readsEOF fails the test unless a read on l ends within five seconds.
func readsEOF(t *testing.T, l transport.Link) {
	t.Helper()
	got := make(chan error, 1)
	go func() {
		_, err := l.Recv()
		got <- err
	}()
	select {
	case err := <-got:
		if err == nil {
			t.Error("the end read a packet, want EOF")
		}
	case <-time.After(5 * time.Second):
		t.Error("the end is still open: its peer was never dropped")
	}
}

// TestReparentHandOffFailureDropsBothEnds: handing a replacement link's
// end to a child killed first fails, and leaves neither end open — for a
// router child and a back-end child.
func TestReparentHandOffFailureDropsBothEnds(t *testing.T) {
	bothFabrics(t, func(t *testing.T, kind TransportKind) {
		nw := recoverableEchoOn(t, "kary:2^2", 0, kind) // 0; 1,2; leaves 3..6
		defer nw.Shutdown()
		for _, r := range []Rank{1, 5} { // a router, and a back-end of rank 2
			if err := nw.Kill(r); err != nil {
				t.Fatal(err)
			}
			nw.mu.Lock()
			n, be := nw.byRank[r], nw.bes[r]
			nw.mu.Unlock()
			p, c, err := nw.newPair()
			if err != nil {
				t.Fatal(err)
			}
			parent, child := &endTap{Link: p}, &endTap{Link: c}
			if nw.handReparent(n, be, parent, child) {
				t.Fatalf("rank %d took a link after Kill", r)
			}
			if !parent.shut.Load() || !child.shut.Load() {
				t.Errorf("rank %d: parent end shut %v, child end shut %v; want both", r, parent.shut.Load(), child.shut.Load())
			}
		}
	})
}

// TestKilledRouterDropsLateInstall: an install a router applies after
// Kill's sweep — the command was already in its loop, waiting for the
// pipeline to park — leaves the new child end at EOF: a crashed router
// drops every link it holds on its way out.
func TestKilledRouterDropsLateInstall(t *testing.T) {
	bothFabrics(t, func(t *testing.T, kind TransportKind) {
		// The first round to reach a filter is rank 1's: its up lane holds
		// it in the gate until release.
		entered, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		reg := filter.NewRegistry()
		reg.RegisterTransformation("gate", func() filter.Transformation {
			return filter.TransformFunc(func(in []*packet.Packet, out filter.Emitter) error {
				once.Do(func() {
					close(entered)
					<-release
				})
				for _, p := range in {
					out.Emit(p)
				}
				return nil
			})
		})
		nw, err := NewNetwork(Config{
			Topology:  mustTree(t, "kary:1^2"), // 0 -> 1 -> 2
			Registry:  reg,
			Transport: kind,
			OnBackEnd: func(be *BackEnd) error {
				for {
					p, err := be.Recv()
					if err != nil {
						return nil
					}
					_ = be.Send(p.StreamID, p.Tag, "%f", float64(be.Rank()))
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Shutdown()
		st, err := nw.NewStream(StreamSpec{Transformation: "gate", Synchronization: "nullsync"})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Multicast(tagQuery, ""); err != nil {
			t.Fatal(err)
		}
		<-entered

		nw.mu.Lock()
		_, slot := nw.view.add(1)
		n, info := nw.byRank[1], nw.view.slotInfoLocked(1)
		nw.mu.Unlock()
		parentEnd, childEnd, err := nw.newPair()
		if err != nil {
			t.Fatal(err)
		}
		defer childEnd.Close()
		c := &cmdInstall{
			slots:    []int{slot},
			links:    []transport.Link{transport.NewFlowLink(parentEnd, nw.cfg.LinkWindow)},
			slotInfo: info,
			done:     make(chan struct{}),
		}
		n.cmdCh <- c // the loop has the install; it waits for the gated lane to park
		if err := nw.Kill(1); err != nil {
			t.Fatal(err)
		}
		close(release)
		<-c.done
		readsEOF(t, childEnd)
	})
}
