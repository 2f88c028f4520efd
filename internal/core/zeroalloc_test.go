package core

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/transport"
)

// discardConn is a socket that accepts every write and is never read: under
// it a TCP link runs the full enqueue → schedule → encode → frame → write
// path at memory speed.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }

func newDiscardLink(window int) *transport.FlowLink {
	return transport.NewFlowLink(transport.NewTCPLink(discardConn{}), window)
}

// loopConn is a socket that reads back what was written to it and reports
// io.EOF when nothing is pending: a TCP link over it receives its own
// frames at memory speed, on the caller's goroutine. writes counts the
// Write calls.
type loopConn struct {
	net.Conn
	buf    []byte
	off    int
	writes int
}

func (c *loopConn) Write(b []byte) (int, error) {
	c.writes++
	if c.off == len(c.buf) {
		c.buf, c.off = c.buf[:0], 0
	}
	c.buf = append(c.buf, b...)
	return len(b), nil
}

// skip drops everything written so far, unread.
func (c *loopConn) skip() { c.off = len(c.buf) }

func (c *loopConn) Read(b []byte) (int, error) {
	if c.off == len(c.buf) {
		return 0, io.EOF
	}
	n := copy(b, c.buf[c.off:])
	c.off += n
	return n, nil
}

// newAllocQueue builds the egress queue the allocation gates measure over a
// shipping TCP link to nowhere: an upstream queue (replay ring, popped by
// the test's Refill acks) or a downstream one.
func newAllocQueue(tb testing.TB, window int, pol BatchPolicy, upstream bool) (*egressQueue, *transport.FlowLink) {
	fl := newDiscardLink(window)
	var q *egressQueue
	if upstream {
		q = newUpstreamQueue(fl, pol.normalized(), &Metrics{})
	} else {
		q = newEgressQueue(fl, pol.normalized(), &Metrics{})
	}
	tb.Cleanup(q.stop)
	return q, fl
}

// newSinkStream binds a stream with the given filters to a node at rank 3
// whose parent queue is q, routing child slot i to synchronizer slot i.
func newSinkStream(q *egressQueue, tf filter.Transformation, sy filter.Synchronizer, children int) (*node, *streamState) {
	n := &node{nw: &Network{}, rank: 3, m: &Metrics{}, parentOut: q}
	ss := &streamState{id: 1, tform: tf, sync: sy, n: n}
	ss.rounds = ss.round
	r := &streamRoutes{down: make([]bool, children), up: make([]int, children), numUp: children}
	for i := range r.up {
		r.down[i], r.up[i] = true, i
	}
	ss.routes.Store(r)
	return n, ss
}

// offer releases what a run from child slot c completes, as pipeUp does
// past its dedup.
func offer(ss *streamState, c int, run []*packet.Packet) {
	ss.sync.Offer(ss.syncSlot(c), run, ss.begin(true, pendRetire{}))
	ss.end()
}

// reduceRound returns one round of ss's synchronizer: a packet from each
// child slot, the last completing it, and a grant for the one output.
func reduceRound(ss *streamState, fl *transport.FlowLink) func() {
	n := ss.routes.Load().numUp
	runs := make([][]*packet.Packet, n)
	for c := range runs {
		runs[c] = []*packet.Packet{packet.MustNew(tagQuery, 1, Rank(10+c), "%d", int64(100*(c+1))).
			WithSeq(packet.MakeSeq(Rank(10+c), 1))}
	}
	return func() {
		for c := range runs {
			offer(ss, c, runs[c])
		}
		fl.Refill(1)
	}
}

func allocPacket(t testing.TB) *packet.Packet {
	t.Helper()
	p, err := packet.New(tagQuery, 1, 7, "%d %f", 42, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestHotPathAllocs pins the data plane's steady-state allocation behavior
// with testing.AllocsPerRun: the flow-controlled forward path allocates
// nothing, nor does a grant whose acknowledgement pops a deferred inbound
// retirement, a k-way multicast stays at or under 2 per child queue, a
// filter's reduce output reaches the parent queue as its one packet — a
// waitforall round released into it included — and a nullsync run is
// forwarded without a copy, the credit-grant protocol amortizes under 1 alloc per retired
// data packet, on TCP a grant's whole trip — sent, received, absorbed —
// allocates nothing, and neither does an owed grant riding a data write; a
// flush onto a chan link allocates its batch once, and a frame read off a
// TCP link is one object when it carries one small packet. A regression
// here is per-packet garbage on a path that only moves a packet's bytes.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated by race instrumentation")
	}

	t.Run("forward", func(t *testing.T) {
		q, fl := newAllocQueue(t, 64, BatchPolicy{MaxBatch: 1}, true)
		p := allocPacket(t)
		op := func() {
			if err := q.send(p); err != nil {
				t.Fatal(err)
			}
			fl.Refill(1)
		}
		for i := 0; i < 256; i++ {
			op() // grow the FIFO's array and the frame scratch
		}
		if n := testing.AllocsPerRun(500, op); n != 0 {
			t.Errorf("forward path allocates %.2f/op, want 0", n)
		}
	})

	t.Run("grant-retires", func(t *testing.T) {
		// A forwarded packet carrying an inbound run's deferred retirement:
		// the parent's grant pops it off the ring and completeRuns
		// completes it on the granting goroutine, owing the child its
		// credit on a TCP link that can owe it.
		fl := newDiscardLink(64)
		q := newUpstreamQueue(fl, BatchPolicy{MaxBatch: 1}.normalized(), &Metrics{})
		t.Cleanup(q.stop)
		child := newDiscardLink(64)
		child.SetGrantHooks(func(bool) {}, nil)
		tr := &inOrder{}
		p := allocPacket(t)
		op := func() {
			ret := pendRetire{src: child, tr: tr, start: tr.assign(1), n: 1}
			if err := q.sendAck(p, true, ret); err != nil {
				t.Fatal(err)
			}
			fl.Refill(1)
		}
		// An op's flush may run on the queue's clock goroutine, and then
		// its retirement completes there, after op returns: read the owed
		// count only once the queue is quiescent, every packet queued so
		// far sent and recorded (drain waits for a flush in progress).
		quiescentOwed := func() int {
			if err := q.drain(); err != nil {
				t.Fatal(err)
			}
			return child.Owed()
		}
		for i := 0; i < 256; i++ {
			op()
		}
		owed := quiescentOwed()
		if n := testing.AllocsPerRun(500, op); n != 0 {
			t.Errorf("a grant that pops a deferred retirement allocates %.2f/op, want 0", n)
		}
		if got := quiescentOwed() - owed; got != 501 {
			t.Errorf("the child is owed %d more credits after 501 grants, want 501: the retirements were not completed", got)
		}
	})

	t.Run("multicast", func(t *testing.T) {
		const k = 4
		var qs [k]*egressQueue
		var fls [k]*transport.FlowLink
		for i := range qs {
			qs[i], fls[i] = newAllocQueue(t, 64, BatchPolicy{MaxBatch: 8}, false)
		}
		p := allocPacket(t)
		op := func() {
			// The downstream fan-out shape: enqueue the one packet to every
			// child queue first, then each link frames it from the shared
			// payload.
			for _, q := range qs {
				if err := q.sendCtx(p, true); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range qs {
				if err := q.drain(); err != nil {
					t.Fatal(err)
				}
			}
			for _, fl := range fls {
				fl.Refill(1)
			}
		}
		for i := 0; i < 128; i++ {
			op()
		}
		if n := testing.AllocsPerRun(300, op); n > 2*k {
			t.Errorf("%d-way multicast allocates %.2f/op, want <= %d", k, n, 2*k)
		}
	})

	t.Run("reduce-output", func(t *testing.T) {
		// An interior node's released round: the sum filter builds one
		// packet and emits it into the stream's sink, which stamps it in
		// place and hands it to the parent queue, forwarded there at the
		// forward path's cost. The packet is the one allocation a reduce
		// needs; a result slice, or a restamp copy per header field, would
		// add one each.
		q, fl := newAllocQueue(t, 64, BatchPolicy{MaxBatch: 1}, true)
		n, ss := newSinkStream(q, filter.NewNumericReduce(filter.OpSum), filter.NewNullSync(), 0)
		round := []*packet.Packet{
			packet.MustNew(tagQuery, 1, 7, "%d", 1000).WithSeq(packet.MakeSeq(7, 1)),
			packet.MustNew(tagQuery, 1, 8, "%d", 2000).WithSeq(packet.MakeSeq(8, 1)),
		}
		op := func() {
			ss.begin(true, pendRetire{})
			ss.round(round)
			ss.end()
			fl.Refill(1)
		}
		for i := 0; i < 256; i++ {
			op()
		}
		if got := n.m.FilterErrors.Load(); got != 0 {
			t.Fatalf("the sum filter failed %d times", got)
		}
		if n := testing.AllocsPerRun(500, op); n > 1 {
			t.Errorf("a reduce output allocates %.2f/op from the filter to the parent queue, want <= 1 (the packet)", n)
		}
	})

	t.Run("waitforall-round", func(t *testing.T) {
		// A warm 8-child WaitForAll releases each round in its one round
		// array, straight into the sum filter through the sink: nothing
		// allocates but the output packet.
		q, fl := newAllocQueue(t, 64, BatchPolicy{MaxBatch: 1}, true)
		_, ss := newSinkStream(q, filter.NewNumericReduce(filter.OpSum), filter.NewWaitForAll(8), 8)
		op := reduceRound(ss, fl)
		for i := 0; i < 256; i++ {
			op()
		}
		built := testing.AllocsPerRun(500, func() {
			_ = packet.MustNew(tagQuery, 1, packet.UnknownRank, "%d", int64(3600))
		})
		if n := testing.AllocsPerRun(500, op); n > built {
			t.Errorf("an 8-way waitforall/sum round allocates %.2f/op, want <= %.2f (its output packet)", n, built)
		}
	})

	t.Run("nullsync-run", func(t *testing.T) {
		// A 64-packet run through NullSync and Identity: each packet is
		// its own round, emitted as it is and forwarded to the parent
		// queue without a header copy.
		const k = 64
		q, fl := newAllocQueue(t, k, BatchPolicy{MaxBatch: k}, true)
		_, ss := newSinkStream(q, filter.Identity{}, filter.NewNullSync(), 1)
		run := make([]*packet.Packet, k)
		for i := range run {
			run[i] = packet.MustNew(tagQuery, 1, 7, "%d", int64(i)).WithSeq(packet.MakeSeq(7, uint64(i+1)))
		}
		op := func() {
			offer(ss, 0, run)
			if err := q.drain(); err != nil {
				t.Fatal(err)
			}
			fl.Refill(k)
		}
		for i := 0; i < 64; i++ {
			op()
		}
		if n := testing.AllocsPerRun(300, op); n != 0 {
			t.Errorf("a %d-packet nullsync/identity run allocates %.2f/op, want 0", k, n)
		}
	})

	t.Run("chan-batch", func(t *testing.T) {
		// A chan link keeps the slice it is sent, so every flush takes a
		// fresh batch: one allocation at the queued count, never grown, and
		// the only one of the cycle — the drained egress FIFO keeps its
		// array for the next round. The test holds the wire while the
		// batch queues: the first enqueue arms the clock's idle flush,
		// which would otherwise take whatever had queued when it fired.
		// Releasing the wire (unlockWire, which re-arms an idle flush that
		// found it busy) hands the whole batch to one flush.
		const batch = 8
		a, b := transport.NewPair(4)
		fl := transport.NewFlowLink(a, 64)
		q := newEgressQueue(fl, BatchPolicy{MaxBatch: batch}.normalized(), &Metrics{})
		t.Cleanup(q.stop)
		p := allocPacket(t)
		op := func() {
			q.flushMu.Lock()
			for i := 0; i < batch; i++ {
				if err := q.sendCtx(p, true); err != nil {
					t.Fatal(err)
				}
			}
			q.unlockWire()
			if ps, err := transport.RecvBatch(b); err != nil || len(ps) != batch {
				t.Fatalf("peer received %d packets (%v), want one frame of %d", len(ps), err, batch)
			}
			fl.Refill(batch)
		}
		for i := 0; i < 64; i++ {
			op()
		}
		if n := testing.AllocsPerRun(300, op); n != 1 {
			t.Errorf("a %d-packet flush onto a chan link allocates %.2f/op, want 1 (the batch)", batch, n)
		}
	})

	t.Run("tcp-recv-frame", func(t *testing.T) {
		// A frame read off a TCP link is allocated whole: a one-packet
		// frame of one scalar (a round's command, a leaf's reply) is one
		// object — body, Packet and result slice — and a 32-packet frame
		// at most three. The link's send side allocates nothing
		// (tcp-grant-rides).
		l := transport.NewTCPLink(&loopConn{buf: make([]byte, 0, 4096)})
		p, err := packet.New(tagQuery, 1, 7, "%d", 42)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			n    int
			want float64
		}{{1, 1}, {32, 3}} {
			batch := make([]*packet.Packet, c.n)
			for i := range batch {
				batch[i] = p
			}
			op := func() {
				if err := transport.SendBatch(l, batch); err != nil {
					t.Fatal(err)
				}
				if ps, err := transport.RecvBatch(l); err != nil || len(ps) != c.n {
					t.Fatalf("RecvBatch = %d packets, %v; want the %d sent", len(ps), err, c.n)
				}
			}
			for i := 0; i < 16; i++ {
				op()
			}
			if n := testing.AllocsPerRun(300, op); n > c.want {
				t.Errorf("receiving a %d-packet frame allocates %.2f/op, want <= %.0f", c.n, n, c.want)
			}
		}
	})

	t.Run("credit-grant", func(t *testing.T) {
		m := &Metrics{}
		fl := newDiscardLink(64)
		quarter := fl.Window() / 4
		op := func() { retireAndGrant(m, fl, quarter) } // one grant per call
		for i := 0; i < 64; i++ {
			op()
		}
		n := testing.AllocsPerRun(300, op)
		if per := n / float64(quarter); per > 1 {
			t.Errorf("credit grants amortize to %.2f allocs per retired packet (%.1f/grant), want <= 1", per, n)
		}
	})

	t.Run("tcp-grant", func(t *testing.T) {
		// The link's frames come back to it: each grant it sends is the
		// grant-only frame its reader absorbs, refilling the credit spent.
		fl := transport.NewFlowLink(transport.NewTCPLink(&loopConn{buf: make([]byte, 0, 256)}), 64)
		op := func() {
			if !fl.TryAcquire() {
				t.Fatal("window exhausted: a grant was not absorbed")
			}
			if err := fl.SendGrant(1); err != nil {
				t.Fatal(err)
			}
			if ps, err := fl.RecvBatch(); err != io.EOF {
				t.Fatalf("RecvBatch = %v, %v; want the grant absorbed and io.EOF", ps, err)
			}
		}
		for i := 0; i < 128; i++ {
			op()
		}
		if n := testing.AllocsPerRun(500, op); n != 0 {
			t.Errorf("a TCP credit grant allocates %.2f/op sent and received, want 0", n)
		}
	})

	t.Run("tcp-grant-rides", func(t *testing.T) {
		// Credits owed on a link with no backstop hook: only a frame can
		// pay them, and it must do so inside its own write.
		var m Metrics
		conn := &loopConn{buf: make([]byte, 0, 1024)}
		fl := transport.NewFlowLink(transport.NewTCPLink(conn), 64)
		fl.SetGrantHooks(nil, m.grantRode)
		p := allocPacket(t)
		batch := []*packet.Packet{p, p, p}
		for _, send := range []struct {
			name string
			n    int
			fn   func() error
		}{
			{"packet", 1, func() error { return fl.Send(p) }},
			{"batch", len(batch), func() error { return fl.SendBatch(batch) }},
		} {
			if got := fl.TryAcquireN(3); got != 3 {
				t.Fatalf("%s: took %d credits, want 3", send.name, got)
			}
			fl.Owe(3)
			writes, rides := conn.writes, m.GrantsRidden.Load()
			if err := send.fn(); err != nil {
				t.Fatal(err)
			}
			if got := conn.writes - writes; got != 1 {
				t.Errorf("%s: the owed grant and the data took %d writes, want 1", send.name, got)
			}
			if got := m.GrantsRidden.Load() - rides; got != 1 {
				t.Errorf("%s: grants_ridden rose by %d, want 1", send.name, got)
			}
			if fl.Owed() != 0 {
				t.Errorf("%s: %d credits still owed after the write", send.name, fl.Owed())
			}
			ps, err := fl.RecvBatch()
			if err != nil || len(ps) != send.n {
				t.Fatalf("%s: RecvBatch = %d packets, %v; want the %d sent", send.name, len(ps), err, send.n)
			}
			if got := fl.Available(); got != fl.Window() {
				t.Errorf("%s: %d of %d credits free when the data arrived: the grant ahead of it was not absorbed first",
					send.name, got, fl.Window())
			}
			op := func() {
				fl.Owe(3)
				if err := send.fn(); err != nil {
					t.Fatal(err)
				}
				conn.skip()
			}
			rides, writes = m.GrantsRidden.Load(), conn.writes
			if n := testing.AllocsPerRun(200, op); n != 0 {
				t.Errorf("%s: a write carrying an owed grant allocates %.2f/op, want 0", send.name, n)
			}
			if r, w := m.GrantsRidden.Load()-rides, int64(conn.writes-writes); r != w {
				t.Errorf("%s: %d writes carried %d grants, want one each", send.name, w, r)
			}
		}
	})
}

// TestDrainedFIFOsReleaseBurstArrays holds the pipeline lane and the egress
// FIFO to their memory bound: a burst may grow either past what a round
// needs, but once drained neither holds the largest burst it has seen —
// the lane is back on its inline array, the egress FIFO drops an array
// grown past twice its link's window — and the next rounds queue without
// allocating.
func TestDrainedFIFOsReleaseBurstArrays(t *testing.T) {
	ln := lane{notify: make(chan struct{}, 1)}
	for i := 0; i < 4*len(ln.buf); i++ {
		ln.push(&Metrics{}, pipeItem{kind: itemRegister})
	}
	if cap(ln.q) <= len(ln.buf) {
		t.Fatalf("a %d-item burst left the lane at capacity %d: it never left the inline array", 4*len(ln.buf), cap(ln.q))
	}
	for {
		if _, ok := ln.pop(); !ok {
			break
		}
	}
	if cap(ln.q) != len(ln.buf) || &ln.q[:1][0] != &ln.buf[0] {
		t.Errorf("the drained lane holds a %d-item array, not its %d-item inline one", cap(ln.q), len(ln.buf))
	}

	// A burst of eight windows, drained at once.
	a, _ := transport.NewPair(4)
	fl := transport.NewFlowLink(a, 8)
	var s egressSched
	barrier := closeStreamPacket(1)
	burst := 8 * fl.Window()
	for i := 0; i < burst; i++ {
		s.add(barrier, pendRetire{})
	}
	if cap(s.es) <= 2*fl.Window() {
		t.Fatalf("a %d-packet burst left the FIFO at capacity %d: it never outgrew a window's rounds", burst, cap(s.es))
	}
	ps, _, _, stalled := s.take(fl, true, nil)
	if stalled || len(ps) != burst || s.len() != 0 {
		t.Fatalf("take returned %d packets (stalled %v), %d left; want all %d", len(ps), stalled, s.len(), burst)
	}
	if cap(s.es) != 0 {
		t.Errorf("the drained FIFO holds the burst's %d-slot array", cap(s.es))
	}
	// A window-sized round keeps its array once drained.
	round := func() {
		for i := 0; i < fl.Window(); i++ {
			s.add(barrier, pendRetire{})
		}
		ps, _, _, _ = s.take(fl, true, ps[:0])
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("a drained FIFO's next %d-packet round allocates %.2f/op, want 0 (it keeps its array)", fl.Window(), n)
	}
}

// runWaveSoak drives a fixed reduction workload and returns every
// front-end result in arrival order.
func runWaveSoak(t *testing.T, kind TransportKind, waves int) []float64 {
	t.Helper()
	nw, err := NewNetwork(Config{
		Topology:   mustTree(t, "kary:3^2"),
		Transport:  kind,
		LinkWindow: 32,
		Batch:      DefaultBatchPolicy(),
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
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 0, waves)
	for i := 0; i < waves; i++ {
		if err := st.Multicast(tagQuery, "%d", i); err != nil {
			t.Fatal(err)
		}
		p, err := st.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatalf("wave %d: %v", i, err)
		}
		v, _ := p.Float(0)
		out = append(out, v)
	}
	return out
}

// TestBufferReuseEquivalence asserts that the buffers the data plane reuses —
// the TCP link's frame scratch, the flusher's take buffer, ring slots —
// never change what the overlay delivers: on both fabrics every wave's
// result is the sum the tree must compute. A buffer reused while a packet
// still referenced it would show here as a corrupted value.
func TestBufferReuseEquivalence(t *testing.T) {
	const waves = 40
	var want float64
	for _, leaf := range mustTree(t, "kary:3^2").Leaves() {
		want += float64(leaf) // small integers: exact in any fold order
	}
	for _, tc := range []struct {
		name string
		kind TransportKind
	}{
		{"chan", ChanTransport},
		{"tcp", TCPTransport},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, v := range runWaveSoak(t, tc.kind, waves) {
				if v != want {
					t.Errorf("wave %d delivered %v, want %v", i, v, want)
				}
			}
		})
	}
}

// BenchmarkHotPathForward is the CI allocation gate: run with -benchmem,
// its allocs/op column is asserted by the workflow's zero-alloc step.
func BenchmarkHotPathForward(b *testing.B) {
	q, fl := newAllocQueue(b, 64, BatchPolicy{MaxBatch: 1}, true)
	p := allocPacket(b)
	for i := 0; i < 256; i++ {
		if err := q.send(p); err != nil {
			b.Fatal(err)
		}
		fl.Refill(1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.send(p); err != nil {
			b.Fatal(err)
		}
		fl.Refill(1)
	}
}

// BenchmarkReduceRound is one 8-way waitforall/sum round from the child
// runs through the stream's sink to the parent queue; its one allocation
// is the sum's output packet.
func BenchmarkReduceRound(b *testing.B) {
	q, fl := newAllocQueue(b, 64, BatchPolicy{MaxBatch: 1}, true)
	_, ss := newSinkStream(q, filter.NewNumericReduce(filter.OpSum), filter.NewWaitForAll(8), 8)
	op := reduceRound(ss, fl)
	for i := 0; i < 256; i++ {
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
