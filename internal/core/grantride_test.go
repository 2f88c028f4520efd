package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/transport"
)

// tcpLinkPair connects two TCP link ends over loopback.
func tcpLinkPair(t *testing.T) (a, b transport.Link) {
	t.Helper()
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan transport.Link, 1)
	go func() {
		l, _ := ln.Accept()
		accepted <- l
	}()
	a, err = transport.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if b = <-accepted; b == nil {
		a.Close()
		t.Fatal("accept failed")
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

// readData runs fl's reader until the link closes — absorbing the grants
// the peer writes — and counts the data packets it delivers.
func readData(fl *transport.FlowLink) *atomic.Int64 {
	var n atomic.Int64
	go func() {
		for {
			ps, err := fl.RecvBatch()
			if err != nil {
				return
			}
			n.Add(int64(len(ps)))
		}
	}()
	return &n
}

// retireOne retires one inbound packet on fl below the grant threshold and
// returns its credit from an idle point, which must owe it.
func retireOne(t *testing.T, m *Metrics, fl *transport.FlowLink) {
	t.Helper()
	if g := fl.Retire(1); g != 0 {
		t.Fatalf("one retirement crossed the grant threshold (%d)", g)
	}
	flushGrant(m, fl)
	if fl.Owed() != 1 {
		t.Fatalf("%d credits owed after an idle grant of 1; want it owed, not sent", fl.Owed())
	}
}

// grantDeadline reads the queue's grant backstop.
func grantDeadline(q *egressQueue) time.Time {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.grantDue
}

// TestOwedGrantsCannotDeadlockStalledPeers: two peers, each with its
// queue credit-stalled and each owing the other the below-threshold grant
// that would unstall it. No data frame can leave to carry either grant, so
// the backstop on a queue's clock must write it on its own, whatever the
// data side is doing — stalled here, then empty, then with the wire held by
// another flusher — no later than the grant deadline. Folding the grant
// deadline into the data deadline, which a stalled or empty queue does not
// have, deadlocks the pair.
func TestOwedGrantsCannotDeadlockStalledPeers(t *testing.T) {
	const window, batch = 8, 8
	pol := BatchPolicy{MaxBatch: batch, MaxDelay: time.Hour}.normalized()
	a, b := tcpLinkPair(t)
	fa, fb := transport.NewFlowLink(a, window), transport.NewFlowLink(b, window)
	var m Metrics
	qa, qb := newEgressQueue(fa, pol, &m), newEgressQueue(fb, pol, &m)
	defer qa.stop()
	defer qb.stop()
	atB, atA := readData(fb), readData(fa) // what qa and qb delivered

	for _, q := range []*egressQueue{qa, qb} {
		for i := 0; i <= window; i++ { // a size flush spends the window; one more waits
			if err := q.send(packet.MustNew(tagQuery, 1, 1, "%d", int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := q.drain(); err != nil {
			t.Fatal(err)
		}
		q.mu.Lock()
		stalled := q.stalled
		q.mu.Unlock()
		if !stalled || q.pending() != 1 {
			t.Fatalf("queue stalled=%v with %d queued; want stalled with 1", stalled, q.pending())
		}
	}
	eventually(t, "each peer receives a window", func() bool { return atA.Load() == window && atB.Load() == window })

	// oweOne retires one packet on fl and owes its credit from an idle
	// point, returning the grant deadline it armed on q's clock.
	oweOne := func(what string, q *egressQueue, fl *transport.FlowLink) time.Time {
		t.Helper()
		before := time.Now()
		retireOne(t, &m, fl)
		after := time.Now()
		due := grantDeadline(q)
		if due.IsZero() {
			// Only the clock, firing already, may have cleared it.
			return after.Add(DefaultBatchDelay)
		}
		if due.Before(before.Add(DefaultBatchDelay)) || due.After(after.Add(DefaultBatchDelay)) {
			t.Errorf("%s: grant deadline %v after the owe, want %v under a one-hour MaxDelay", what, due.Sub(before), DefaultBatchDelay)
		}
		return due
	}
	// pay drives q's clock at the grant deadline, which must have paid it.
	pay := func(what string, q *egressQueue, fl *transport.FlowLink, due time.Time) {
		t.Helper()
		q.pollAge(due)
		if n := fl.Owed(); n != 0 {
			t.Errorf("%s: %d credits still owed past the grant deadline", what, n)
		}
	}
	owe := func(what string, q *egressQueue, fl *transport.FlowLink) {
		t.Helper()
		grants := m.CreditGrants.Load()
		pay(what, q, fl, oweOne(what, q, fl))
		if got := m.CreditGrants.Load() - grants; got != 1 {
			t.Errorf("%s: credit_grants rose by %d, want 1", what, got)
		}
	}
	// Both grants are owed before either is paid. a's clock pays the grant
	// for b's data, which unstalls qb; b's resumed frame may then carry b's
	// grant before b's clock comes to pay it, so only the pair is counted.
	grants := m.CreditGrants.Load()
	dueA, dueB := oweOne("stalled a", qa, fa), oweOne("stalled b", qb, fb)
	pay("stalled a", qa, fa, dueA)
	pay("stalled b", qb, fb, dueB)
	if got := m.CreditGrants.Load() - grants; got != 2 {
		t.Errorf("stalled pair: credit_grants rose by %d, want 2", got)
	}
	eventually(t, "both stalled queues resume", func() bool {
		return atA.Load() == window+1 && atB.Load() == window+1 && qa.pending() == 0 && qb.pending() == 0
	})
	ridden := m.GrantsRidden.Load()

	owe("empty", qa, fa)
	qa.flushMu.Lock() // another flusher owns the wire
	owe("busy wire", qa, fa)

	// An idle flush that hands its packet off to the busy wire's owner
	// leaves the data deadline to that owner, not the grant deadline the
	// clock also held: the clock alone still pays the grant, with the wire
	// held throughout.
	if err := fb.SendGrant(1); err != nil { // a credit for the packet
		t.Fatal(err)
	}
	eventually(t, "qa has a credit", func() bool { return fa.Available() == 1 })
	// The send arms the clock at zero; it finds the wire busy.
	if err := qa.send(packet.MustNew(tagQuery, 1, 1, "%d", int64(window+1))); err != nil {
		t.Fatal(err)
	}
	retireOne(t, &m, fa)
	eventually(t, "the idle flush hands off to the busy wire", qa.handoff.Load)
	eventually(t, "the clock pays the grant owed behind a hand-off", func() bool { return fa.Owed() == 0 })
	qa.unlockWire()
	eventually(t, "the handed-off packet leaves", func() bool { return atB.Load() == window+2 })
	if got := m.GrantsRidden.Load() - ridden; got != 0 {
		t.Errorf("grants_ridden rose by %d with no data frame to carry one", got)
	}
}

// TestBackEndReplyCarriesCommandGrant: on TCP, a back-end's Recv owes its
// parent the credit for the command it returns, and the handler's reply —
// flushed on the handler's own goroutine at its next Recv — carries that
// grant in the same write, microseconds later, well inside the backstop.
// Afterwards no credit is lost in either direction of a leaf's link.
func TestBackEndReplyCarriesCommandGrant(t *testing.T) {
	const rounds = 200
	tree := mustTree(t, "kary:4^3")
	leaves := len(tree.Leaves())
	nw, err := NewNetwork(Config{
		Topology:  tree,
		Transport: TCPTransport,
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
	for i := 0; i < rounds; i++ {
		if err := st.Multicast(tagQuery, "%d", int64(i)); err != nil {
			t.Fatal(err)
		}
		p, err := st.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if v, _ := p.Float(0); v != float64(leaves) {
			t.Fatalf("round %d: sum %v, want %d", i, v, leaves)
		}
	}
	m := nw.Metrics()
	if got, want := m.GrantsRidden.Load(), int64(rounds/2*leaves); got < want {
		t.Errorf("grants_ridden = %d after %d rounds over %d leaves, want >= %d", got, rounds, leaves, want)
	}
	if got, want := m.FlushIdle.Load(), int64(rounds/2*leaves); got < want {
		t.Errorf("flush_idle = %d after %d rounds over %d leaves, want >= %d", got, rounds, leaves, want)
	}

	// Both directions of every leaf's link get their whole window back:
	// the leaf's (its replies, granted by its parent) and its parent's
	// (its commands, granted by the leaf).
	whole := func(fl *transport.FlowLink) bool { return fl.Available() == fl.Window() && fl.Owed() == 0 }
	for _, leaf := range tree.Leaves() {
		nw.mu.Lock()
		be, parent := nw.bes[leaf], nw.byRank[tree.Parent(leaf)]
		nw.mu.Unlock()
		slot := -1
		for i, c := range tree.Children(tree.Parent(leaf)) {
			if c == leaf {
				slot = i
			}
		}
		up, down := flowOf(be.parentLink()), flowOf(parent.childLinks()[slot])
		eventually(t, "leaf windows are whole", func() bool { return whole(up) && whole(down) })
	}
}

// TestClockPaysAtOnceGrantsAndBeaconsWhileStalled: a queue's clock is
// where its rank pays the grants a link reader owes at once and sends its
// liveness beacons, so both leave whatever the data side is doing — here
// the queue is credit-stalled, so no data frame can leave to carry the
// grant, and then another flusher holds the wire — on both fabrics.
func TestClockPaysAtOnceGrantsAndBeaconsWhileStalled(t *testing.T) {
	const window = 8
	pairs := map[string]func() (transport.Link, transport.Link){
		"chan": func() (transport.Link, transport.Link) { return transport.NewPair(64) },
		"tcp":  func() (transport.Link, transport.Link) { return tcpLinkPair(t) },
	}
	for name, pair := range pairs {
		t.Run(name, func(t *testing.T) {
			a, b := pair()
			fa, fb := transport.NewFlowLink(a, window), transport.NewFlowLink(b, window)
			var m Metrics
			q := newEgressQueue(fa, BatchPolicy{MaxBatch: window, MaxDelay: time.Hour}.normalized(), &m)
			defer q.stop()
			defer fb.Close()
			var beacons atomic.Int64
			go func() { // b's reader: absorbs a's grants and counts beacons
				for {
					ps, err := fb.RecvBatch()
					if err != nil {
						return
					}
					for _, p := range ps {
						if _, ok := parseHeartbeat(p); ok {
							beacons.Add(1)
						}
					}
				}
			}()
			for i := 0; i <= window; i++ { // a size flush spends the window; one more waits
				if err := q.send(packet.MustNew(tagQuery, 1, 1, "%d", int64(i))); err != nil {
					t.Fatal(err)
				}
			}
			eventually(t, "the queue stalls", func() bool {
				q.mu.Lock()
				defer q.mu.Unlock()
				return q.stalled && q.sched.len() == 1
			})
			fb.TryAcquireN(window) // b's data is in flight: a owes it grants
			q.beacon(7, 5*time.Millisecond)

			fa.OweNow(3)
			if due := grantDeadline(q); due.After(time.Now()) {
				t.Errorf("an at-once grant is due in %v, want now", time.Until(due))
			}
			eventually(t, "the stalled queue's clock pays the at-once grant", func() bool { return fb.Available() == 3 })
			eventually(t, "the stalled queue beacons", func() bool { return beacons.Load() >= 2 })

			q.flushMu.Lock() // another flusher owns the wire
			fa.OweNow(2)
			eventually(t, "the clock pays the at-once grant past a busy wire", func() bool { return fb.Available() == 5 })
			from := beacons.Load()
			eventually(t, "the clock beacons past a busy wire", func() bool { return beacons.Load() >= from+2 })
			q.flushMu.Unlock()

			if got := m.HeartbeatsSent.Load(); got < beacons.Load() {
				t.Errorf("heartbeats_sent = %d, below the %d beacons heard", got, beacons.Load())
			}
			if q.pending() != 1 {
				t.Errorf("%d packets queued, want the one stalled packet", q.pending())
			}
			q.stop()
			stopped := m.HeartbeatsSent.Load()
			time.Sleep(20 * time.Millisecond)
			if got := m.HeartbeatsSent.Load(); got > stopped+1 {
				t.Errorf("%d beacons sent after stop, want at most one already firing", got-stopped)
			}
		})
	}
}
