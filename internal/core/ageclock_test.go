package core

import (
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/transport"
)

// gateLink is a link end whose outbound application data parks on the wire
// until the gate opens — a slow socket. Control packets and credit grants
// pass, and so does everything inbound.
type gateLink struct {
	transport.Link
	gate    chan struct{} // closed by open
	once    sync.Once
	entered chan struct{} // one token per data send that reached the wire
}

func newGateLink(l transport.Link) *gateLink {
	return &gateLink{Link: l, gate: make(chan struct{}), entered: make(chan struct{}, 16)}
}

func (g *gateLink) open() { g.once.Do(func() { close(g.gate) }) }

func (g *gateLink) hold(ps ...*packet.Packet) {
	for _, p := range ps {
		if p.Tag >= packet.TagFirstApplication {
			g.entered <- struct{}{}
			<-g.gate
			return
		}
	}
}

func (g *gateLink) Send(p *packet.Packet) error {
	g.hold(p)
	return g.Link.Send(p)
}

func (g *gateLink) SendBatch(ps []*packet.Packet) error {
	g.hold(ps...)
	return transport.SendBatch(g.Link, ps)
}

// RecvBatch completes transport.BatchLink, so frames stay frames through the
// stub in both directions.
func (g *gateLink) RecvBatch() ([]*packet.Packet, error) { return transport.RecvBatch(g.Link) }

// awaitEntered waits for a data send to park on the gate.
func (g *gateLink) awaitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no data send reached the gated link")
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refreshRouting hands router r the install command with no links (a
// routing refresh) and waits until its loop has applied it. It returns the
// router.
func refreshRouting(nw *Network, r Rank) (*node, error) {
	nw.mu.Lock()
	n := nw.byRank[r]
	nw.mu.Unlock()
	return n, nw.install(n, &cmdInstall{slotInfo: nw.slotInfoAt(r)})
}

// eventually polls cond until it holds or five seconds pass.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestBusyWireDoesNotSpinAgeClock is the hot-loop regression: while one
// producer's flush holds the wire inside a slow SendBatch, another
// stream's packet waits in the same queue with its deadline expired. The
// deadline's owner used to re-poll it without sleeping (the TryLock fails,
// the deadline stays expired), burning a core for as long as the send
// took; the queue's own clock hands the packet off to the wire's owner
// instead. The two producers are front-end user goroutines sending on two
// streams through the root's queue toward one child.
func TestBusyWireDoesNotSpinAgeClock(t *testing.T) {
	tree := mustTree(t, "flat:2")
	child := tree.Children(0)[0]
	var gate *gateLink
	got := make(chan int64, 4)
	nw, err := NewNetwork(Config{
		Topology: tree,
		WrapFabric: func(eps []*transport.Endpoint) {
			gate = newGateLink(eps[0].Children[0])
			eps[0].Children[0] = gate
		},
		OnBackEnd: func(be *BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				if be.Rank() == child {
					v, _ := p.Int(0)
					got <- v
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	defer gate.open() // a failed run must not leave Shutdown parked on the gate
	stA, err := nw.NewStream(StreamSpec{Synchronization: "nullsync"})
	if err != nil {
		t.Fatal(err)
	}
	stB, err := nw.NewStream(StreamSpec{Synchronization: "nullsync"})
	if err != nil {
		t.Fatal(err)
	}

	sentA := make(chan error, 1)
	go func() { sentA <- stA.Multicast(tagQuery, "%d", int64(1)) }()
	gate.awaitEntered(t) // stream A's send holds the wire in its idle flush
	if err := stB.Multicast(tagQuery, "%d", int64(2)); err != nil {
		t.Fatal(err)
	}
	out := nw.root.childOut[0]
	eventually(t, "stream B's packet is queued behind the busy wire", func() bool { return out.pending() == 1 })

	before := cpuTime(t)
	time.Sleep(300 * time.Millisecond)
	if burned := cpuTime(t) - before; burned >= 100*time.Millisecond {
		t.Errorf("burned %v of CPU in 300ms with one packet waiting behind a busy wire; its age deadline is being re-polled without sleeping", burned)
	}

	gate.open()
	if err := <-sentA; err != nil {
		t.Fatal(err)
	}
	var vs []int64
	for len(vs) < 2 {
		select {
		case v := <-got:
			vs = append(vs, v)
		case <-time.After(5 * time.Second):
			t.Fatalf("the gated child received %v, want [1 2]", vs)
		}
	}
	if vs[0] != 1 || vs[1] != 2 {
		t.Errorf("the gated child received %v, want [1 2]", vs)
	}
	if err := nw.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("the gated child received %d extra packets; want each exactly once", len(got))
	}
}

// TestAgeFlushOffTheRouter is the router-on-the-wire regression: an age
// flush onto a slow child socket used to run on the router goroutine, so
// recovery commands and attachments waited for the send.
// The goroutines that may wait on the wire are the queue's own clock, a
// pipeline lane in a size flush, a back-end handler (Send, and the idle flush
// in Recv) and a front-end user goroutine (its sends' idle flush, outside
// epMu) — never the router or a link reader.
func TestAgeFlushOffTheRouter(t *testing.T) {
	tree := mustTree(t, "kary:2^2")
	router := tree.InternalNodes()[0]
	slow := tree.Children(router)[0]
	var gate *gateLink
	var delivered atomic.Int64
	nw, err := NewNetwork(Config{
		Topology: tree,
		WrapFabric: func(eps []*transport.Endpoint) {
			gate = newGateLink(eps[router].Children[0])
			eps[router].Children[0] = gate
		},
		OnBackEnd: func(be *BackEnd) error {
			for {
				if _, err := be.Recv(); err != nil {
					return nil
				}
				if be.Rank() == slow {
					delivered.Add(1)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	defer gate.open()
	st, err := nw.NewStream(StreamSpec{Synchronization: "nullsync"})
	if err != nil {
		t.Fatal(err)
	}
	// One packet toward the slow child: too few for a size flush, so only
	// the queue's clock can send it.
	if err := st.Multicast(tagQuery, "%d", int64(1)); err != nil {
		t.Fatal(err)
	}
	gate.awaitEntered(t)

	refreshed := make(chan struct{})
	go func() {
		_, _ = refreshRouting(nw, router) // a command into this router's loop
		close(refreshed)
	}()
	select {
	case <-refreshed:
	case <-time.After(time.Second):
		t.Error("the router took no command within 1s of an age flush blocking on a slow child link")
	}
	if n := delivered.Load(); n != 0 {
		t.Fatalf("%d packets passed the closed gate", n)
	}

	gate.open()
	eventually(t, "the held packet reaches the slow child", func() bool { return delivered.Load() == 1 })
	if err := nw.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if n := delivered.Load(); n != 1 {
		t.Errorf("slow child received %d packets, want exactly 1", n)
	}
}

// TestRoundsNeedNoAgeFlush: a command round — a multicast down a 3-level
// tree, each back-end echoing one value, the sum reduced back up — crosses
// every egress queue kind (child queues, back-end queues, parent queues)
// and never fills a flush window. With an age bound of an hour, the only
// things that can move those packets are the clock each enqueue arms at
// zero and a handler's Recv, so a round that completes proves no hop waited
// for an age flush.
func TestRoundsNeedNoAgeFlush(t *testing.T) {
	const rounds = 50
	for _, tc := range []struct {
		name string
		kind TransportKind
	}{
		{"chan", ChanTransport},
		{"tcp", TCPTransport},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree := mustTree(t, "kary:4^3")
			nw, err := NewNetwork(Config{
				Topology:  tree,
				Transport: tc.kind,
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
			for i := 0; i < rounds; i++ {
				if err := st.Multicast(tagQuery, "%d", int64(i)); err != nil {
					t.Fatal(err)
				}
				p, err := st.RecvTimeout(3 * time.Second)
				if err != nil {
					t.Fatalf("round %d: %v", i, err)
				}
				if v, _ := p.Float(0); v != want {
					t.Fatalf("round %d: sum %v, want %v", i, v, want)
				}
			}
			if n := nw.Metrics().FlushAge.Load(); n != 0 {
				t.Errorf("%d age flushes under an age bound of an hour", n)
			}
		})
	}
}

// TestBurstNeedsNoRecv: a back-end handler that sends a burst below the
// flush window and then waits somewhere other than Recv — here on its own
// channel, for the whole test — still gets the burst to the front-end at
// once: the enqueue that made each queue non-empty armed its clock at zero.
// With an age bound of an hour, an age flush cannot be what moved it.
func TestBurstNeedsNoRecv(t *testing.T) {
	const burst = 10 // below the default window of 32
	for _, tc := range []struct {
		name string
		kind TransportKind
	}{
		{"chan", ChanTransport},
		{"tcp", TCPTransport},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree := mustTree(t, "kary:2^2")
			ids := make(chan uint32)
			park := make(chan struct{})
			nw, err := NewNetwork(Config{
				Topology:  tree,
				Transport: tc.kind,
				Batch:     BatchPolicy{MaxDelay: time.Hour},
				OnBackEnd: func(be *BackEnd) error {
					id := <-ids
					for i := 0; i < burst; i++ {
						if err := be.Send(id, tagQuery, "%d", int64(i)); err != nil {
							return err
						}
					}
					<-park
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
			defer nw.Shutdown()
			defer close(park)
			st, err := nw.NewStream(StreamSpec{Synchronization: "nullsync"})
			if err != nil {
				t.Fatal(err)
			}
			for range tree.Leaves() {
				ids <- st.ID()
			}
			want := burst * len(tree.Leaves())
			for i := 0; i < want; i++ {
				if _, err := st.RecvTimeout(5 * time.Second); err != nil {
					t.Fatalf("after %d of %d packets: %v", i, want, err)
				}
			}
			if n := nw.Metrics().FlushAge.Load(); n != 0 {
				t.Errorf("%d age flushes under an age bound of an hour", n)
			}
		})
	}
}

// TestIdleFlushHandsOffToBusyWire: the clock's idle flush the enqueue
// armed at zero that finds another flusher owning the wire — one that may
// already have taken its last batch — must not leave its packet to the age
// bound: the owner re-arms the clock at zero when it lets go, and the
// packet leaves at once, on the clock.
func TestIdleFlushHandsOffToBusyWire(t *testing.T) {
	a, b := transport.NewPair(16)
	var m Metrics
	q := newEgressQueue(transport.NewFlowLink(a, 64), BatchPolicy{MaxDelay: time.Hour}.normalized(), &m)
	defer q.stop()
	q.flushMu.Lock() // the owner, past its last take
	if err := q.send(packet.MustNew(tagQuery, 1, 1, "%d", int64(1))); err != nil {
		q.flushMu.Unlock()
		t.Fatal(err)
	}
	eventually(t, "the idle flush hands off to the busy wire", q.handoff.Load)
	q.unlockWire()
	drainLink(t, b, 1)
	if got := m.FlushClock.Load(); got != 1 {
		t.Errorf("flush_clock = %d, want 1", got)
	}
	if got := m.FlushAge.Load(); got != 0 {
		t.Errorf("flush_age = %d, want 0", got)
	}
}

// egressActivity is the slice of the counters an egress retry would move.
func egressActivity(nw *Network) [3]int64 {
	m := nw.Metrics()
	return [3]int64{m.FlushAge.Load(), m.EgressDrops.Load(), m.FramesSent.Load()}
}

// TestQueueStopsWithOwner: a queue's age clock ends with its owner. A killed
// orphan that still holds retained packets, and every process after
// Shutdown, leaves nothing behind that re-arms a timer or touches a link.
func TestQueueStopsWithOwner(t *testing.T) {
	const maxDelay = time.Millisecond
	tree := mustTree(t, "kary:2^3")
	top := tree.InternalNodes()[0]
	orphan := tree.Children(top)[0]
	const perBE = 3
	var stID uint32
	send := make(chan struct{})
	var sent sync.WaitGroup
	sent.Add(len(tree.Children(orphan)))
	nw, err := NewNetwork(Config{
		Topology: tree,
		Batch:    BatchPolicy{MaxBatch: 64, MaxDelay: maxDelay},
		OnBackEnd: func(be *BackEnd) error {
			if tree.Parent(be.Rank()) == orphan {
				<-send
				for i := 0; i < perBE; i++ {
					_ = be.Send(stID, tagQuery, "%d", int64(i))
				}
				sent.Done()
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
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Synchronization: "nullsync"})
	if err != nil {
		t.Fatal(err)
	}
	stID = st.ID()
	// run builds the queue before its loop takes the command.
	n, err := refreshRouting(nw, orphan)
	if err != nil {
		t.Fatal(err)
	}
	q := n.parentOut

	// Orphan the node, then let its back-ends send: every flush toward the
	// dead parent fails and is retained, retried by the age clock.
	if err := nw.Kill(top); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	close(send)
	sent.Wait()
	want := perBE * len(tree.Children(orphan))
	eventually(t, "the orphan retains its back-ends' packets", func() bool { return q.pending() == want })
	eventually(t, "the live orphan's age clock is retrying", func() bool { return !q.deadline().IsZero() })

	quiet := func(when string) {
		t.Helper()
		q.mu.Lock()
		due := q.due
		q.mu.Unlock()
		before := egressActivity(nw)
		time.Sleep(20 * maxDelay)
		if after := egressActivity(nw); after != before {
			t.Errorf("%s: flush_age/egress_drops/frames_sent moved %v -> %v", when, before, after)
		}
		q.mu.Lock()
		moved := !q.due.Equal(due)
		q.mu.Unlock()
		if moved {
			t.Errorf("%s: the dead owner's queue re-armed its age clock", when)
		}
	}
	if err := nw.Kill(orphan); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the killed router stops its queues", func() bool {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.stopped
	})
	if got := q.pending(); got != want {
		t.Errorf("killed orphan holds %d packets, want the %d it retained", got, want)
	}
	quiet("after Kill")
	if err := nw.Shutdown(); err != nil {
		t.Fatal(err)
	}
	quiet("after Shutdown")
}

// TestStopRacesEnqueue: stop racing the enqueue that arms the clock leaves
// the queue disarmed whichever wins, and a stopped queue never flushes what
// it still holds on its clock (run under -race in CI).
func TestStopRacesEnqueue(t *testing.T) {
	pol := BatchPolicy{MaxBatch: 8, MaxDelay: 50 * time.Microsecond}.normalized()
	var m Metrics
	for i := 0; i < 300; i++ {
		a, _ := transport.NewPair(4)
		q := newUpstreamQueue(transport.NewFlowLink(a, 64), pol, &m)
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = q.send(packet.MustNew(tagQuery, 1, 1, "%d", int64(i)))
		}()
		q.stop()
		<-done
		if !q.deadline().IsZero() {
			t.Fatalf("cycle %d: a stopped queue has an armed deadline", i)
		}
	}
	time.Sleep(time.Millisecond) // a callback that beat the last stop finishes
	clockFlushes := func() int64 { return m.FlushAge.Load() + m.FlushIdle.Load() + m.FlushClock.Load() }
	flushed := clockFlushes()
	time.Sleep(5 * time.Millisecond)
	if got := clockFlushes(); got != flushed {
		t.Errorf("stopped queues kept flushing on their clocks: %d -> %d", flushed, got)
	}
}

// TestNewQueueClockRace: a queue's clock can fire before its constructor
// has stopped it (here a nanosecond after it is built). The callback must
// find the timer it re-arms, not a nil one (run under -race in CI).
func TestNewQueueClockRace(t *testing.T) {
	pol := BatchPolicy{MaxDelay: time.Nanosecond}.normalized()
	var m Metrics
	a, _ := transport.NewPair(1)
	fl := transport.NewFlowLink(a, 64)
	for i := 0; i < 20000; i++ {
		newEgressQueue(fl, pol, &m).stop()
	}
	time.Sleep(time.Millisecond) // a callback that beat the last stop finishes
}
