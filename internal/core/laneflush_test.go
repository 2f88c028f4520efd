package core

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/transport"
)

// TestRouterFlushesRunOnTheLane: in a command round — a multicast down a
// 3-level tree, each back-end echoing one value, the sum reduced back up —
// every router flush runs on the pipeline lane that filled the queue, when
// its mailbox drains, not on a clock wake-up. A round moves 168 frames, of
// which the routers send 100; the bound leaves room for the back-ends'
// clocks, armed by each reply, that beat the handler's Recv to the flush.
// With an age bound of an hour no age flush can stand in for them.
func TestRouterFlushesRunOnTheLane(t *testing.T) {
	const warm, rounds = 50, 500
	const maxClockPerRound = 10
	bothFabrics(t, func(t *testing.T, kind TransportKind) {
		tree := mustTree(t, "kary:4^3")
		nw, err := NewNetwork(Config{
			Topology:  tree,
			Transport: kind,
			Batch:     BatchPolicy{MaxDelay: time.Hour},
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
			t.Fatal(err)
		}
		defer nw.Shutdown()
		st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
		if err != nil {
			t.Fatal(err)
		}
		want := float64(len(tree.Leaves()))
		run := func(n int) {
			for i := 0; i < n; i++ {
				if err := st.Multicast(tagQuery, "%d", int64(i)); err != nil {
					t.Fatal(err)
				}
				p, err := st.RecvTimeout(5 * time.Second)
				if err != nil {
					t.Fatalf("round %d: %v", i, err)
				}
				if v, _ := p.Float(0); v != want {
					t.Fatalf("round %d: sum %v, want %v", i, v, want)
				}
			}
		}
		run(warm)
		before := nw.Metrics()
		run(rounds)
		after := nw.Metrics()
		clock := float64(after.FlushClock.Load()-before.FlushClock.Load()) / rounds
		idle := float64(after.FlushIdle.Load()-before.FlushIdle.Load()) / rounds
		t.Logf("per round: flush_clock %.2f, flush_idle %.2f", clock, idle)
		if clock > maxClockPerRound {
			t.Errorf("flush_clock %.1f per round (flush_idle %.1f), want <= %d: router flushes wait for a clock wake-up", clock, idle, maxClockPerRound)
		}
		if n := after.FlushAge.Load(); n != 0 {
			t.Errorf("%d age flushes under an age bound of an hour", n)
		}
	})
}

// TestLaneIdleFlushSkipsBlockedChild: a lane's idle flush never waits on
// the wire. One lane serves every child of its router and the quiesce
// barrier, so a child link that blocks the first data frame sent on it
// must stall neither its siblings nor a router command. And a lane that
// fills a child's queue to the window without reaching its idle point
// must have the clock flush it before it waits for a slot, or it waits
// for ever.
func TestLaneIdleFlushSkipsBlockedChild(t *testing.T) {
	t.Run("gated", func(t *testing.T) {
		const multicasts = 20
		tree := mustTree(t, "kary:2^2")
		router := tree.InternalNodes()[0]
		slow, fast := tree.Children(router)[0], tree.Children(router)[1]
		var gate *gateLink
		got := make(chan int64, multicasts)
		slowGot := make(chan int64, multicasts)
		nw, err := NewNetwork(Config{
			Topology: tree,
			WrapFabric: func(eps []*transport.Endpoint) {
				gate = newGateLink(eps[router].Children[0])
				eps[router].Children[0] = gate
			},
			OnBackEnd: func(be *BackEnd) error {
				for {
					p, err := be.Recv()
					if err != nil {
						return nil
					}
					v, _ := p.Int(0)
					switch be.Rank() {
					case fast:
						got <- v
					case slow:
						slowGot <- v
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Shutdown()
		defer gate.open() // a failed run must not leave Shutdown parked on the gate
		st, err := nw.NewStream(StreamSpec{Synchronization: "nullsync"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < multicasts; i++ {
			if err := st.Multicast(tagQuery, "%d", int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		gate.awaitEntered(t)
		for i := 0; i < multicasts; i++ {
			select {
			case v := <-got:
				if v != int64(i) {
					t.Fatalf("the open child received %d as multicast %d", v, i)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("the open child received %d of %d multicasts while its sibling's link was blocked", i, multicasts)
			}
		}

		refreshed := make(chan struct{})
		go func() {
			_, _ = refreshRouting(nw, router) // a command into this router's loop
			close(refreshed)
		}()
		select {
		case <-refreshed:
		case <-time.After(time.Second):
			t.Error("the router took no command within 1s while a child link blocked its first data frame")
		}
		if n := len(slowGot); n != 0 {
			t.Fatalf("%d packets passed the closed gate", n)
		}

		gate.open()
		for i := 0; i < multicasts; i++ {
			select {
			case v := <-slowGot:
				if v != int64(i) {
					t.Fatalf("the gated child received %d as multicast %d", v, i)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("the gated child received %d of %d multicasts after its gate opened", i, multicasts)
			}
		}
	})

	t.Run("window4", func(t *testing.T) {
		// Each back-end echoes every multicast, so a router's up lane can
		// hold both children's windows of replies, twice its parent
		// queue's window, and fills that queue before its mailbox drains.
		const multicasts = 200
		tree := mustTree(t, "kary:2^2")
		nw, err := NewNetwork(Config{
			Topology:   tree,
			LinkWindow: 4,
			OnBackEnd: func(be *BackEnd) error {
				for {
					p, err := be.Recv()
					if err != nil {
						return nil
					}
					if err := be.SendPacket(p); err != nil {
						return nil
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Shutdown()
		st, err := nw.NewStream(StreamSpec{Synchronization: "nullsync"})
		if err != nil {
			t.Fatal(err)
		}
		sent := make(chan error, 1)
		go func() {
			for i := 0; i < multicasts; i++ {
				if err := st.Multicast(tagQuery, "%d", int64(i)); err != nil {
					sent <- err
					return
				}
			}
			sent <- nil
		}()
		want := multicasts * len(tree.Leaves())
		for i := 0; i < want; i++ {
			if _, err := st.RecvTimeout(10 * time.Second); err != nil {
				t.Fatalf("the front-end received %d of %d echoes: %v; a lane waits for a slot no flush frees", i, want, err)
			}
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	})
}

// TestLaneIdleHandsBlockedBatchToClock: a lane's idle flush onto a link
// that would make it wait returns at once, and the batch it took leaves
// whole on the clock once the peer reads: nothing is rewound or lost, and
// it is counted as the clock's flush, not the lane's.
func TestLaneIdleHandsBlockedBatchToClock(t *testing.T) {
	a, b := transport.NewPair(1)
	var m Metrics
	q := newEgressQueue(transport.NewFlowLink(a, 64), DefaultBatchPolicy(), &m)
	defer q.stop()
	q.owner = &node{} // a router's queue: its lanes flush it at their idle point
	if err := a.Send(packet.MustNew(tagQuery, 0, 0, "%d", int64(-1))); err != nil {
		t.Fatal(err) // fills the link's one-frame buffer
	}
	for i := int64(0); i < 3; i++ {
		if err := q.send(packet.MustNew(tagQuery, 0, 0, "%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		q.laneIdle()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("the lane's idle flush waited on a full link")
	}
	got := drainLink(t, b, 4)
	for i, p := range got {
		if v, _ := p.Int(0); v != int64(i)-1 {
			t.Fatalf("packet %d carried %d, want %d", i, v, i-1)
		}
	}
	eventually(t, "the clock counts the handed-off frame", func() bool { return m.FlushClock.Load() == 1 })
	if idle, frames := m.FlushIdle.Load(), m.FramesSent.Load(); idle != 0 || frames != 1 {
		t.Errorf("flush_idle %d, frames_sent %d; want 0 and the one frame the clock sent", idle, frames)
	}
}
