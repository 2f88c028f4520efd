package core

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestOverlappingFailureCreditsOutstanding: an internal node is killed
// mid-stream with credits outstanding on every surrounding link. The
// sender replay rings re-deliver the in-flight windows across the
// adoption: zero burst-A payloads may be lost, and nothing may be
// duplicated.
func TestOverlappingFailureCreditsOutstanding(t *testing.T) {
	kinds := []TransportKind{ChanTransport}
	if !testing.Short() {
		kinds = append(kinds, TCPTransport)
	}
	for _, kind := range kinds {
		name := "chan"
		if kind == TCPTransport {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			if lostA := overlappingFailureCreditsOutstanding(t, kind); lostA != 0 {
				t.Errorf("lost %d burst-A payloads, want 0: exactly-once replay must cover the spent windows", lostA)
			}
		})
	}
}

// TestReplayRingBoundedUnderSlowConsumerAndKills extends
// TestSlowConsumerBoundedMemory's property to the replay plane: with
// exactly-once recovery enabled, replay memory per link is priced at
// exactly the credit window, and the bound must hold in the worst case
// for a ring — a consumer draining ~100× slower than the producers
// inject (windows pinned full, every egress queue backed up against its
// bound) while internal nodes are repeatedly killed and re-adopted
// mid-stream. ReplayRingHighWater is the max occupancy any ring in the
// overlay ever reached; it may never exceed LinkWindow, regardless of
// stalls, reparent replays, drains, or kill timing. Delivery must still
// be exact: every payload arrives exactly once.
func TestReplayRingBoundedUnderSlowConsumerAndKills(t *testing.T) {
	kinds := []TransportKind{ChanTransport}
	if !testing.Short() {
		kinds = append(kinds, TCPTransport)
	}
	const window = 8
	perBE := 60
	if testing.Short() {
		perBE = 30
	}
	for _, kind := range kinds {
		name := "chan"
		if kind == TCPTransport {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			tree := mustTree(t, "kary:4^2")
			var stID uint32
			start := make(chan struct{})
			nw, err := NewNetwork(Config{
				Topology:  tree,
				Transport: kind,
				// Small frame buffers: the backlog the slow consumer creates
				// must sit in egress queues and replay rings, which is
				// exactly the memory the window prices.
				ChanBuf:    8,
				LinkWindow: window,
				Batch:      BatchPolicy{MaxBatch: 4, MaxDelay: time.Millisecond},
				OnBackEnd: func(be *BackEnd) error {
					<-start
					for i := 0; i < perBE; i++ {
						if err := be.Send(stID, tagQuery, "%d", int64(be.Rank())*1000+int64(i)); err != nil {
							return nil
						}
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
			// A tiny delivery buffer plus a sleeping reader makes the
			// front-end the ~100×-slow consumer: deliver() blocks when the
			// buffer is full, backpressuring the pipeline workers and keeping
			// the credit windows below pinned at their bound.
			st, err := nw.NewStream(StreamSpec{Synchronization: "nullsync", RecvBuffer: 16})
			if err != nil {
				t.Fatal(err)
			}
			stID = st.ID()
			close(start)

			victims := tree.InternalNodes()[:3]
			want := len(tree.Leaves()) * perBE
			got := map[int64]int{}
			var delivered atomic.Int64
			// Repeated kills run beside the reader (adoption quiesces the
			// overlay, and the quiesce needs the slow consumer to keep
			// draining): crash another internal node at every quarter of the
			// run, always mid-traffic with the windows toward the slow
			// front-end spent.
			killErr := make(chan error, 1)
			go func() {
				for i, v := range victims {
					for delivered.Load() < int64((i+1)*want/4) {
						time.Sleep(time.Millisecond)
					}
					if err := nw.Kill(v); err != nil {
						killErr <- err
						return
					}
					if _, err := nw.Adopt(v, nil); err != nil {
						killErr <- err
						return
					}
				}
				killErr <- nil
			}()

			deadline := time.Now().Add(120 * time.Second)
			for have := 0; have < want; have++ {
				p, err := st.RecvTimeout(time.Until(deadline))
				if err != nil {
					t.Fatalf("with %d of %d delivered: %v", have, want, err)
				}
				if v, err := p.Int(0); err == nil {
					got[v]++
				}
				delivered.Store(int64(have + 1))
				time.Sleep(300 * time.Microsecond) // the slow consumer
			}
			if err := <-killErr; err != nil {
				t.Fatal(err)
			}

			m := nw.Metrics()
			hw := m.ReplayRingHighWater.Load()
			if hw > int64(window) {
				t.Errorf("replay ring high water %d exceeds the credit window %d", hw, window)
			}
			for _, leaf := range tree.Leaves() {
				for i := 0; i < perBE; i++ {
					v := int64(leaf)*1000 + int64(i)
					if got[v] != 1 {
						t.Errorf("payload %d delivered %d times, want exactly once", v, got[v])
					}
				}
			}
			if err := nw.Shutdown(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: ringHW=%d (window %d) kills=%d stalls=%d replayed=%d dups-dropped=%d",
				name, hw, window, len(victims),
				m.CreditStalls.Load(), m.PacketsReplayed.Load(), m.DupsDropped.Load())
		})
	}
}
