package core

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/transport"
)

// ---------------------------------------------------------------------------
// Scheduler-level unit tests (white box: drive one egress queue directly;
// drainLink comes from egress_test.go).

// TestEgressBarrierOrdering: an egress queue is one FIFO. Data of three
// streams interleaved with control packets leaves in exactly the order it
// was enqueued — through a flush that stalls on credits, the rewind of a
// failed flush's remainder, and data fed in while the queue is stalled —
// so per-stream FIFO holds and no packet overtakes a control packet
// enqueued before it. The FIFO retains, as an upstream queue's does: what
// it took stays kept until the peer's cumulative acknowledgement.
func TestEgressBarrierOrdering(t *testing.T) {
	a, _ := transport.NewPair(64)
	fl := transport.NewFlowLink(a, 8)
	s := egressSched{retain: true}
	var want, wire []*packet.Packet
	enqueue := func(n int) {
		for i := 0; i < n; i++ {
			k := len(want)
			p := packet.MustNew(tagQuery, uint32(1+k%3), 1, "%d", int64(k))
			if k%4 == 3 {
				p = closeStreamPacket(uint32(k))
			}
			s.add(p, pendRetire{})
			want = append(want, p)
		}
	}
	countData := func(ps []*packet.Packet) (n int) {
		for _, p := range ps {
			if p.Tag != packet.TagControl {
				n++
			}
		}
		return n
	}
	// The peer retires n more data packets: it acknowledges them, then
	// grants their credits back.
	retire := func(n int) {
		s.ack(s.acked+uint64(n), nil, fl.Window())
		fl.Refund(n)
	}

	enqueue(24) // 18 data packets against a window of 8
	ps, _, nData, stalled := s.take(fl, false, nil)
	if !stalled || nData != fl.Window() {
		t.Fatalf("first take: %d data packets, stalled %v; want the window's %d, stalled", nData, stalled, fl.Window())
	}
	if next := want[len(ps)]; next.Tag == packet.TagControl {
		t.Fatalf("the stalled take stopped at a control packet, not at the first data packet without a credit")
	}
	// The wire accepts half the batch and fails: the remainder goes back
	// at the head, its credits refunded (failedFlush), and the peer
	// acknowledges and grants back what it retired.
	half := len(ps) / 2
	wire = append(wire, ps[:half]...)
	fl.Refund(countData(ps[half:]))
	s.rewind(len(ps)-half, countData(ps[half:]))
	if s.kept != countData(ps[:half]) {
		t.Fatalf("after the rewind the FIFO keeps %d data packets, want the %d sent", s.kept, countData(ps[:half]))
	}
	retire(countData(ps[:half]))

	enqueue(8) // fed while the flush is being retried
	for rounds := 0; s.len() > 0; rounds++ {
		if rounds > 100 {
			t.Fatalf("%d packets still queued after %d rounds", s.len(), rounds)
		}
		ps, _, nData, _ := s.take(fl, false, nil)
		wire = append(wire, ps...)
		retire(nData)
	}
	if len(wire) != len(want) {
		t.Fatalf("the wire carried %d packets, want %d", len(wire), len(want))
	}
	for i := range want {
		if wire[i] != want[i] {
			t.Fatalf("wire position %d carries tag %d stream %d, want tag %d stream %d (enqueue order)",
				i, wire[i].Tag, wire[i].StreamID, want[i].Tag, want[i].StreamID)
		}
	}
	if s.data != 0 || s.kept != 0 || fl.Available() != fl.Window() {
		t.Errorf("drained queue counts %d data packets, keeps %d, and has %d of %d credits free; want 0, 0 and all",
			s.data, s.kept, fl.Available(), fl.Window())
	}
}

// TestStalledFIFOKeepsBoundedArray: a credit-stalled queue that keeps
// being fed — every round a grant lets a window out and as much arrives —
// never drains, so only sliding the live part down when the array fills
// keeps the array from growing by every packet it ever queued. The same
// holds for a retaining FIFO whose acknowledgements lag a window behind
// its sends: what it keeps slides down with what it queues.
func TestStalledFIFOKeepsBoundedArray(t *testing.T) {
	for _, tc := range []struct {
		name    string
		retain  bool
		rounds  int
		ceiling int // in windows
	}{
		{"stalled", false, 1000, 4},
		{"retaining", true, 20000, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, _ := transport.NewPair(64)
			fl := transport.NewFlowLink(a, 8)
			s := egressSched{retain: tc.retain}
			p := packet.MustNew(tagQuery, 1, 1, "%d", int64(1))
			for i := 0; i < 2*fl.Window(); i++ {
				s.add(p, pendRetire{})
			}
			var buf []*packet.Packet
			lag := 0 // data taken in the last round, not yet acknowledged
			for round := 0; round < tc.rounds; round++ {
				batch, _, nData, stalled := s.take(fl, false, buf[:0])
				if !stalled {
					t.Fatalf("round %d: the queue drained; it must stay stalled", round)
				}
				buf = batch
				for i := 0; i < nData; i++ {
					s.add(p, pendRetire{}) // as much arrives as left
				}
				// The peer retires what it got and grants it back: at once,
				// or, retaining, one round later, acknowledging it first.
				if !tc.retain {
					fl.Refund(nData)
					continue
				}
				s.ack(s.acked+uint64(lag), nil, fl.Window())
				fl.Refund(lag)
				lag = nData
				if s.kept > fl.Window() {
					t.Fatalf("round %d: the FIFO keeps %d data packets, past the window %d", round, s.kept, fl.Window())
				}
			}
			if c := cap(s.es); c > tc.ceiling*fl.Window() {
				t.Errorf("a stalled queue holding %d packets (%d kept) grew a %d-slot array over %d rounds",
					s.len(), s.kept, c, tc.rounds)
			}
		})
	}
}

// TestEgressCreditStallAndResume: a flush halts when the peer window is
// exhausted (counting a stall), the queue has no armed deadline while
// stalled, and an inbound grant resumes the flush by itself — the refill
// hook arms the queue's age clock at zero delay, nobody polls.
func TestEgressCreditStallAndResume(t *testing.T) {
	a, b := transport.NewPair(64)
	fa := transport.NewFlowLink(a, 4)
	var m Metrics
	q := newEgressQueue(fa, BatchPolicy{MaxBatch: 4, MaxDelay: time.Millisecond}.normalized(), &m)
	defer q.stop()

	for i := 0; i < 4; i++ {
		if err := q.send(packet.MustNew(tagQuery, 1, 1, "%d", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	drainLink(t, b, 4) // window now fully outstanding at the "peer"

	// Next sends queue but cannot flush: the window is spent, and the size
	// flush the fourth one triggers stalls.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 4; i < 8; i++ {
			_ = q.send(packet.MustNew(tagQuery, 1, 1, "%d", int64(i)))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("senders blocked inside the queue bound")
	}
	// The stalled flush may be the clock's, still running when the senders
	// return.
	eventually(t, "a credit stall is recorded with the window exhausted", func() bool {
		return m.CreditStalls.Load() > 0
	})
	time.Sleep(5 * time.Millisecond) // several age periods: a stalled queue must sit still
	if got := q.pending(); got != 4 {
		t.Fatalf("queue holds %d packets, want 4 (hard bound)", got)
	}
	if !q.deadline().IsZero() {
		t.Fatal("stalled queue still has an armed age deadline (its timer would spin)")
	}
	if got := m.FlushAge.Load(); got != 0 {
		t.Fatalf("%d age flushes went out against an exhausted window", got)
	}

	// The peer retires and grants. The grant shares a frame with a data
	// packet so the receive returns.
	if err := transport.SendBatch(b, []*packet.Packet{
		packet.NewCreditGrant(4, 0),
		packet.MustNew(tagQuery, 2, 2, "%d", int64(0)),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := fa.RecvBatch(); err != nil { // absorb the grant the way a reader would
		t.Fatal(err)
	}
	drainLink(t, b, 4) // bounded wait: the resumed flush arrives on its own
	if got := q.pending(); got != 0 {
		t.Errorf("%d packets still queued after the grant resumed the flush", got)
	}
	// The resumed flush is the grant's, not the age backstop's. It is
	// counted once its write returns, which may be after the peer has read
	// the packets.
	eventually(t, "the resumed flush is counted", func() bool { return m.FlushGrant.Load()+m.FlushAge.Load() > 0 })
	if snap := m.Snapshot(); snap["flush_grant"] != 1 || snap["flush_age"] != 0 {
		t.Errorf("flush_grant = %d, flush_age = %d; want the resumed flush as 1 grant flush and no age flush",
			snap["flush_grant"], snap["flush_age"])
	}
}

// TestEgressHardBoundBlocksSender: with the window full and no credits, a
// blocking sender waits — and a stop channel releases it.
func TestEgressHardBoundBlocksSender(t *testing.T) {
	a, b := transport.NewPair(64)
	_ = b
	fa := transport.NewFlowLink(a, 2)
	var m Metrics
	q := newEgressQueue(fa, BatchPolicy{MaxBatch: 2, MaxDelay: time.Hour}.normalized(), &m)
	defer q.stop()
	stop := make(chan struct{})
	q.bindStops(stop, nil)

	// Fill wire window (2) and queue bound (2).
	for i := 0; i < 4; i++ {
		_ = q.send(packet.MustNew(tagQuery, 1, 1, "%d", int64(i)))
	}
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		_ = q.send(packet.MustNew(tagQuery, 1, 1, "%d", int64(99)))
	}()
	select {
	case <-blocked:
		t.Fatal("fifth send proceeded past a full window and full queue")
	case <-time.After(50 * time.Millisecond):
	}
	close(stop) // the owner is going away: release the sender (overflow)
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("stop channel did not release the blocked sender")
	}
}

// TestEgressFlushWakesEveryBlockedProducer: four producers blocked on a
// full queue all proceed once one flush frees the four slots. The flush
// leaves one wake-up, so this holds only if each woken producer passes it
// on while slots remain.
func TestEgressFlushWakesEveryBlockedProducer(t *testing.T) {
	a, b := transport.NewPair(64)
	const w = 4
	fa := transport.NewFlowLink(a, w)
	var m Metrics
	q := newEgressQueue(fa, BatchPolicy{MaxBatch: 1 << 16, MaxDelay: time.Hour}.normalized(), &m)
	defer q.stop()
	stop := make(chan struct{})
	defer close(stop)
	q.bindStops(stop, nil)

	// No wire credits, so nothing flushes, and a full queue.
	if got := fa.TryAcquireN(w); got != w {
		t.Fatalf("took %d credits of a window of %d", got, w)
	}
	for i := 0; i < w; i++ {
		_ = q.send(packet.MustNew(tagQuery, 1, 1, "%d", int64(i)))
	}
	done := make(chan struct{}, w)
	for i := 0; i < w; i++ {
		go func(i int) {
			_ = q.send(packet.MustNew(tagQuery, 1, 1, "%d", int64(w+i)))
			done <- struct{}{}
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		q.mu.Lock()
		waiting := q.slotWaiters
		q.mu.Unlock()
		if waiting == w {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d producers blocked, want %d", waiting, w)
		}
		time.Sleep(time.Millisecond)
	}
	// One grant: the stalled queue resumes and one flush sends the four
	// queued packets, releasing their slots at once.
	grant(t, fa, transport.NewFlowLink(b, w), w)
	timeout := time.After(time.Second)
	for i := 0; i < w; i++ {
		select {
		case <-done:
		case <-timeout:
			t.Fatalf("%d of %d blocked producers still asleep 1s after a flush freed %d slots", w-i, w, w)
		}
	}
}

// ---------------------------------------------------------------------------
// End-to-end slow-consumer tests.

// slowConsumerResult is what one slow-consumer run observes.
type slowConsumerResult struct {
	sums      map[int][]float64 // per-stream ordered round sums
	highWater int64
	stalls    int64
	grants    int64
}

// runSlowConsumer streams rounds of a waitforall+sum reduction over several
// concurrent streams on kary:8^2 while ONE back-end consumes its downstream
// packets ~100× slower than its siblings. Returns everything the front-end
// observed plus the flow-control gauges.
func runSlowConsumer(t *testing.T, kind TransportKind, window, streams, rounds int) slowConsumerResult {
	t.Helper()
	tree := mustTree(t, "kary:8^2")
	slowRank := tree.Leaves()[0]
	pad := strings.Repeat("p", 256) // keep wire buffers from absorbing the backlog
	nw, err := NewNetwork(Config{
		Topology:  tree,
		Transport: kind,
		// The credit window, not the wire, bounds the slow consumer's
		// backlog: what cannot be sent sits in egress queues, which is
		// exactly the memory the window bounds.
		Batch:      BatchPolicy{MaxBatch: 8, MaxDelay: time.Millisecond},
		LinkWindow: window,
		OnBackEnd: func(be *BackEnd) error {
			delay := 20 * time.Microsecond
			if be.Rank() == slowRank {
				delay = 2 * time.Millisecond // the 100×-slower consumer
			}
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				time.Sleep(delay)
				r, err := p.Int(0)
				if err != nil {
					return err
				}
				v := float64(be.Rank())*1e-3 + float64(r)
				if err := be.Send(p.StreamID, p.Tag, "%f", v); err != nil {
					return nil
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()

	var wg sync.WaitGroup
	var mu sync.Mutex
	res := slowConsumerResult{sums: map[int][]float64{}}
	for s := 0; s < streams; s++ {
		st, err := nw.NewStream(StreamSpec{
			Transformation:  "sum",
			Synchronization: "waitforall",
			RecvBuffer:      rounds + 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s int, st *Stream) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := st.Multicast(tagQuery, "%d %s", int64(r), pad); err != nil {
					t.Errorf("stream %d round %d multicast: %v", s, r, err)
					return
				}
			}
			sums := make([]float64, 0, rounds)
			for r := 0; r < rounds; r++ {
				p, err := st.RecvTimeout(120 * time.Second)
				if err != nil {
					t.Errorf("stream %d round %d recv: %v", s, r, err)
					return
				}
				v, err := p.Float(0)
				if err != nil {
					t.Errorf("stream %d round %d: %v", s, r, err)
					return
				}
				sums = append(sums, v)
			}
			mu.Lock()
			res.sums[s] = sums
			mu.Unlock()
		}(s, st)
	}
	wg.Wait()
	m := nw.Metrics()
	res.highWater = m.EgressHighWater.Load()
	res.stalls = m.CreditStalls.Load()
	res.grants = m.CreditGrants.Load()
	return res
}

// TestSlowConsumerBoundedMemory is the flow-control acceptance test: with a
// 100×-slower consumer on kary:8^2, every per-link egress queue stays
// within the configured window on BOTH fabrics (the high-water gauge is
// the max over all queues), the protocol visibly engages (stalls and
// grants), and every stream delivers exactly the per-round sums the tree
// must compute.
func TestSlowConsumerBoundedMemory(t *testing.T) {
	// Cap the frame size so a backlog cannot hide in the wire as a few
	// enormous frames (the chan buffer counts frames, not packets): queued
	// memory is measured where the gauge looks.
	oldFrame := maxEgressFrameBytes
	maxEgressFrameBytes = 4096
	defer func() { maxEgressFrameBytes = oldFrame }()

	const window = 16
	streams, rounds := 8, 60
	if testing.Short() {
		streams, rounds = 8, 40
	}
	tree := mustTree(t, "kary:8^2")
	want := make([]float64, rounds)
	for r := range want {
		want[r] = soakRoundSum(tree, 0, r)
	}

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
			on := runSlowConsumer(t, kind, window, streams, rounds)
			if t.Failed() {
				t.FailNow()
			}
			if on.highWater > int64(window) {
				t.Errorf("egress high-water = %d, want <= window %d", on.highWater, window)
			}
			if on.grants == 0 {
				t.Error("no credit grants observed; the protocol never engaged")
			}
			for s := 0; s < streams; s++ {
				got := on.sums[s]
				if len(got) != len(want) {
					t.Fatalf("stream %d: %d deliveries, want %d", s, len(got), len(want))
				}
				for r := range want {
					if got[r] != want[r] {
						t.Errorf("stream %d round %d: sum %v, want %v", s, r, got[r], want[r])
					}
				}
			}
			t.Logf("%s: hw=%d stalls=%d grants=%d", name, on.highWater, on.stalls, on.grants)
		})
	}
}

// ---------------------------------------------------------------------------
// Control-plane liveness under data saturation.

// TestControlFlowsThroughSaturatedDataPlane is the regression test for the
// head-of-line bug: with one subtree's consumers fully stalled (windows
// exhausted, every queue toward them credit-stalled, producers blocked),
// heartbeats from EVERY process must keep reaching their parents, and a
// recovery command (kill + adopt in a different subtree) must complete.
// Runs on both fabrics.
func TestControlFlowsThroughSaturatedDataPlane(t *testing.T) {
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
			const hb = 10 * time.Millisecond
			tree := mustTree(t, "kary:4^2")
			stalledParent := tree.InternalNodes()[0]
			stalled := map[Rank]bool{}
			for _, c := range tree.Children(stalledParent) {
				stalled[c] = true
			}
			release := make(chan struct{})
			nw, err := NewNetwork(Config{
				Topology:        tree,
				Transport:       kind,
				HeartbeatPeriod: hb,
				Batch:           BatchPolicy{MaxBatch: 4, MaxDelay: time.Millisecond},
				LinkWindow:      4,
				OnBackEnd: func(be *BackEnd) error {
					if stalled[be.Rank()] {
						<-release // a consumer that reads nothing: total stall
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
			defer close(release)

			st, err := nw.NewStream(StreamSpec{Synchronization: "nullsync"})
			if err != nil {
				t.Fatal(err)
			}
			// Saturate the stalled subtree from a producer goroutine: it will
			// block once the windows toward the stalled consumers exhaust —
			// which is the point.
			go func() {
				for i := 0; i < 4096; i++ {
					if err := st.Multicast(tagQuery, "%d", int64(i)); err != nil {
						return
					}
				}
			}()
			// Wait until the data plane is demonstrably wedged on credits.
			deadline := time.Now().Add(10 * time.Second)
			for nw.Metrics().CreditStalls.Load() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("data plane never credit-stalled; saturation not reached")
				}
				time.Sleep(time.Millisecond)
			}

			// 1. Heartbeats: every live rank must be heard from again while
			// the data plane stays saturated.
			before := nw.Heartbeats()
			time.Sleep(20 * hb)
			after := nw.Heartbeats()
			for r := 1; r < tree.Len(); r++ {
				b, seenB := before[Rank(r)]
				a, seenA := after[Rank(r)]
				if !seenA {
					t.Errorf("rank %d never heard from at all", r)
					continue
				}
				if seenB && !a.After(b) {
					t.Errorf("rank %d beacon did not advance under saturation", r)
				}
			}

			// 2. Recovery commands: a kill + adoption in a DIFFERENT subtree
			// completes while the stalled one stays wedged.
			victim := tree.InternalNodes()[1]
			if err := nw.Kill(victim); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := nw.Adopt(victim, nil)
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("adoption failed under data saturation: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("adoption wedged behind saturated data plane")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Chaos: failure with credits outstanding.

// overlappingFailureCreditsOutstanding is the shared runner of the
// failure-with-credits-outstanding chaos scenario: an internal node is
// killed while credits are outstanding on every surrounding link
// (mid-stream, windows partially spent), and adoption must rebuild fresh
// windows on the replacement links. Post-recovery traffic (burst B) must
// always arrive completely and nothing may ever be duplicated — those are
// asserted here. Returns the burst-A payloads lost, which the caller holds
// to zero.
func overlappingFailureCreditsOutstanding(t *testing.T, kind TransportKind) (lostA int) {
	t.Helper()
	const window = 8
	const burstA, burstB = 30, 20
	tree := mustTree(t, "kary:4^2")
	var stID uint32
	start := make(chan struct{})
	phaseB := make(chan struct{})
	var aSent sync.WaitGroup
	aSent.Add(len(tree.Leaves()))
	nw, err := NewNetwork(Config{
		Topology:   tree,
		Transport:  kind,
		Batch:      BatchPolicy{MaxBatch: 4, MaxDelay: time.Millisecond},
		LinkWindow: window,
		OnBackEnd: func(be *BackEnd) error {
			<-start
			for i := 0; i < burstA; i++ {
				if err := be.Send(stID, tagQuery, "%d", int64(be.Rank())*1000+int64(i)); err != nil {
					break
				}
			}
			aSent.Done()
			<-phaseB
			for i := burstA; i < burstA+burstB; i++ {
				if err := be.Send(stID, tagQuery, "%d", int64(be.Rank())*1000+int64(i)); err != nil {
					break
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
	st, err := nw.NewStream(StreamSpec{Synchronization: "nullsync", RecvBuffer: 8192})
	if err != nil {
		t.Fatal(err)
	}
	stID = st.ID()

	victim := tree.InternalNodes()[0]
	close(start)
	// Kill mid-burst: windows toward and from the victim are spent,
	// and its back-ends wedge against their 8-packet bound with
	// credits outstanding (burst A is far larger than the window).
	time.Sleep(2 * time.Millisecond)
	if err := nw.Kill(victim); err != nil {
		t.Fatal(err)
	}
	// Adoption must rebuild the windows: only then can the orphans'
	// blocked handlers finish burst A through the replacement links.
	if _, err := nw.Adopt(victim, nil); err != nil {
		t.Fatal(err)
	}
	aSent.Wait()
	close(phaseB)

	got := map[int64]int{}
	deadline := time.Now().Add(60 * time.Second)
	// Burst B is sent entirely after adoption over rebuilt windows:
	// it must arrive completely. Collect until every leaf's burst B
	// is in (or the deadline explains what wedged).
	want := len(tree.Leaves()) * burstB
	haveB := 0
	for haveB < want {
		p, err := st.RecvTimeout(time.Until(deadline))
		if err != nil {
			t.Fatalf("with %d of %d post-recovery packets: %v", haveB, want, err)
		}
		v, err := p.Int(0)
		if err != nil {
			t.Fatal(err)
		}
		got[v]++
		if v%1000 >= burstA {
			haveB++
		}
	}
	if err := nw.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for {
		p, err := st.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if v, err := p.Int(0); err == nil {
			got[v]++
		}
	}

	for _, leaf := range tree.Leaves() {
		for i := 0; i < burstA+burstB; i++ {
			v := int64(leaf)*1000 + int64(i)
			switch got[v] {
			case 0:
				if i >= burstA {
					t.Errorf("post-recovery payload %d lost: window not rebuilt?", v)
				} else {
					lostA++
				}
			case 1:
				// exactly once: good
			default:
				t.Errorf("payload %d delivered %d times (duplicated by re-flush)", v, got[v])
			}
		}
	}
	t.Logf("lostA=%d grants=%d stalls=%d replayed=%d dups-dropped=%d",
		lostA, nw.Metrics().CreditGrants.Load(), nw.Metrics().CreditStalls.Load(),
		nw.Metrics().PacketsReplayed.Load(), nw.Metrics().DupsDropped.Load())
	return lostA
}

// TestReparentWithSaturatedWindowsDepth3 is the regression test for the
// quiesce/backpressure deadlock: on a depth-3 tree the orphans of a killed
// mid-level node are INTERNAL nodes whose pipeline workers may be blocked
// on the dead parent's exhausted window. Reparenting quiesces those
// workers — so releaseWaiters on the dead link must free them first, or
// the adoption wedges forever. Back-ends stream continuously throughout;
// after recovery the stream must drain (bounded in-flight loss, no
// duplicates).
func TestReparentWithSaturatedWindowsDepth3(t *testing.T) {
	const window = 4
	const perBE = 120
	tree := mustTree(t, "kary:2^3") // FE -> 2 internal -> 4 internal -> 8 BEs
	var stID uint32
	start := make(chan struct{})
	nw, err := NewNetwork(Config{
		Topology:   tree,
		Batch:      BatchPolicy{MaxBatch: 4, MaxDelay: time.Millisecond},
		LinkWindow: window,
		OnBackEnd: func(be *BackEnd) error {
			<-start
			for i := 0; i < perBE; i++ {
				if err := be.Send(stID, tagQuery, "%d", int64(be.Rank())*1000+int64(i)); err != nil {
					break
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
	// The receive buffer holds the whole run: the saturation this test
	// needs is at the ORPHANS (windows toward the dead parent exhaust the
	// moment it dies, with leaves still pumping), not at the front-end —
	// a front-end that consumes nothing stalls adoption by design (its
	// workers block delivering, exactly like any other slow consumer).
	st, err := nw.NewStream(StreamSpec{Synchronization: "nullsync", RecvBuffer: 8192})
	if err != nil {
		t.Fatal(err)
	}
	stID = st.ID()
	victim := tree.Children(0)[0] // a depth-1 node: its orphans are internal
	if len(tree.Children(victim)) == 0 || tree.Node(tree.Children(victim)[0]).IsLeaf() {
		t.Fatalf("test topology wrong: victim %d must have internal children", victim)
	}
	close(start)
	// Let the subtree saturate against the un-consumed stream, then crash
	// the mid-level node with every surrounding window spent.
	deadline := time.Now().Add(10 * time.Second)
	for nw.Metrics().CreditStalls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("windows never saturated")
		}
		time.Sleep(time.Millisecond)
	}
	if err := nw.Kill(victim); err != nil {
		t.Fatal(err)
	}
	adopted := make(chan error, 1)
	go func() {
		_, err := nw.Adopt(victim, nil)
		adopted <- err
	}()
	select {
	case err := <-adopted:
		if err != nil {
			t.Fatalf("adoption failed: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("adoption wedged: blocked workers never reached the quiesce barrier")
	}

	// Drain: every back-end's packets flow now that the front-end reads;
	// in-flight loss at the crash is bounded, nothing is duplicated.
	got := map[int64]int{}
	total := len(tree.Leaves()) * perBE
	for {
		p, err := st.RecvTimeout(5 * time.Second)
		if err != nil {
			break // quiescent: everything that survived has arrived
		}
		v, err := p.Int(0)
		if err != nil {
			t.Fatal(err)
		}
		got[v]++
		if got[v] > 1 {
			t.Fatalf("payload %d duplicated", v)
		}
		if len(got) == total {
			break
		}
	}
	if err := nw.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for {
		p, err := st.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if v, err := p.Int(0); err == nil {
			got[v]++
			if got[v] > 1 {
				t.Fatalf("payload %d duplicated in shutdown drain", v)
			}
		}
	}
	lost := total - len(got)
	// The crash can lose in-flight windows and wire buffers around the
	// victim, and (if saturation wedged deep) retained overflow beyond
	// maxRetained — but the vast majority must survive.
	if lost > total/4 {
		t.Errorf("lost %d of %d payloads; retained buffers not re-flushed?", lost, total)
	}
	t.Logf("lost=%d/%d stalls=%d grants=%d", lost, total,
		nw.Metrics().CreditStalls.Load(), nw.Metrics().CreditGrants.Load())
}

// TestFlowControlMetricsSnapshot: the snapshot map carries the credit and
// egress gauges tbon-query -stats exposes.
func TestFlowControlMetricsSnapshot(t *testing.T) {
	var m Metrics
	m.EgressHighWater.Store(7)
	m.CreditStalls.Store(3)
	m.CreditGrants.Store(11)
	snap := m.Snapshot()
	for _, k := range []string{"egress_high_water", "credit_stalls", "credit_grants", "shard_queue_high_water"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("snapshot missing %q", k)
		}
	}
	if snap["egress_high_water"] != 7 || snap["credit_stalls"] != 3 || snap["credit_grants"] != 11 {
		t.Errorf("snapshot values wrong: %v", snap)
	}
}

// TestClosedStreamCreditsReturnToLeaf: a leaf that keeps sending on a
// stream the front-end has closed gets every credit back. The root drops
// the late packets, and fewer than a grant threshold of them (5 of a
// quarter window of 16) return only through the idle flush.
func TestClosedStreamCreditsReturnToLeaf(t *testing.T) {
	for _, kind := range []TransportKind{ChanTransport, TCPTransport} {
		name := "chan"
		if kind == TCPTransport {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			const leaf, late = Rank(1), 5
			ids := make(chan uint32, 1)
			free := make(chan int, 1)
			nw, err := NewNetwork(Config{
				Topology:  mustTree(t, "flat:2"),
				Transport: kind,
				OnBackEnd: func(be *BackEnd) error {
					if be.Rank() == leaf {
						id := <-ids
						for i := 0; i < late; i++ {
							if err := be.Send(id, tagQuery, "%d", int64(i)); err != nil {
								t.Error(err)
							}
						}
						// Wait until the burst is on the wire.
						for deadline := time.Now().Add(time.Second); be.eg.pending() > 0; time.Sleep(time.Millisecond) {
							if time.Now().After(deadline) {
								t.Errorf("%d packets still queued 1s after the burst", be.eg.pending())
								break
							}
						}
						// Count the credits the parent link can spend now,
						// handing them straight back, until the window is
						// whole again or a second has passed.
						fl := flowOf(be.parentLink())
						n := 0
						for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
							for n = 0; fl.TryAcquire(); n++ {
							}
							fl.Refund(n)
							if n == fl.Window() || time.Now().After(deadline) {
								break
							}
						}
						free <- n
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
			st, err := nw.NewStream(StreamSpec{})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			ids <- st.ID()
			if n := <-free; n != DefaultLinkWindow {
				t.Errorf("leaf can spend %d of its %d credits 1s after sending %d packets on a closed stream", n, DefaultLinkWindow, late)
			}
		})
	}
}
