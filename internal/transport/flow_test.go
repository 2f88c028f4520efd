package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/packet"
)

// grantsRetired holds, per link, the cumulative retired count its peer
// stamped on the last grant a test delivered to it (grant).
var grantsRetired sync.Map

// grant delivers the grant a peer sends after retiring n packets: n
// credits, stamped with the peer's cumulative retired count, taken where
// every inbound grant on f's link is taken (absorb).
func grant(f *FlowLink, n int) {
	v, _ := grantsRetired.LoadOrStore(f, new(atomic.Uint64))
	cum := v.(*atomic.Uint64).Add(uint64(n))
	f.absorb([]*packet.Packet{packet.NewCreditGrant(uint32(n), cum)})
}

// TestFlowLinkWindowAccounting: the sender pool holds exactly the window,
// TryAcquire exhausts it, a grant restores it, and over-grants are clamped.
func TestFlowLinkWindowAccounting(t *testing.T) {
	a, b := NewPair(4)
	defer a.Close()
	defer b.Close()
	f := NewFlowLink(a, 3)
	for i := 0; i < 3; i++ {
		if !f.TryAcquire() {
			t.Fatalf("acquire %d failed inside the window", i)
		}
	}
	if f.TryAcquire() {
		t.Fatal("acquired a fourth credit from a window of 3")
	}
	grant(f, 2)
	if !f.TryAcquire() || !f.TryAcquire() {
		t.Fatal("refilled credits not acquirable")
	}
	if f.TryAcquire() {
		t.Fatal("acquired beyond the refill")
	}
	// Over-refill (duplicate grant) is clamped at the window.
	grant(f, 100)
	n := 0
	for f.TryAcquire() {
		n++
	}
	if n != 3 {
		t.Fatalf("pool refilled to %d credits, want the window of 3", n)
	}
}

// TestFlowLinkAcquireBlocksAndAborts: Acquire blocks on an exhausted window
// until a grant refills it, and aborts cleanly on a stop channel.
func TestFlowLinkAcquireBlocksAndAborts(t *testing.T) {
	a, b := NewPair(4)
	defer a.Close()
	defer b.Close()
	f := NewFlowLink(a, 1)
	if !f.TryAcquire() {
		t.Fatal("first acquire failed")
	}
	got := make(chan bool, 1)
	go func() { got <- f.Acquire(nil, nil) }()
	select {
	case <-got:
		t.Fatal("Acquire returned with the window exhausted")
	case <-time.After(20 * time.Millisecond):
	}
	grant(f, 1)
	select {
	case ok := <-got:
		if !ok {
			t.Fatal("Acquire aborted after a refill")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Acquire did not wake on refill")
	}

	if !f.TryAcquire() {
		// the woken Acquire took the refilled credit; exhaust again below
		t.Log("window already exhausted by the woken Acquire")
	}
	stop := make(chan struct{})
	aborted := make(chan bool, 1)
	go func() { aborted <- f.Acquire(stop, nil) }()
	close(stop)
	select {
	case ok := <-aborted:
		if ok {
			t.Fatal("Acquire succeeded past an exhausted window without a refill")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Acquire did not abort on stop")
	}
}

// TestFlowLinkRetireThreshold: retirements below a quarter window stay
// accumulated; crossing it claims the whole accumulation exactly once.
func TestFlowLinkRetireThreshold(t *testing.T) {
	a, b := NewPair(4)
	defer a.Close()
	defer b.Close()
	f := NewFlowLink(a, 16) // threshold 4
	for i := 0; i < 3; i++ {
		if g := f.Retire(1); g != 0 {
			t.Fatalf("grant of %d released below the threshold", g)
		}
	}
	if g := f.Retire(1); g != 4 {
		t.Fatalf("threshold crossing granted %d, want 4", g)
	}
	if g := f.Retire(2); g != 0 {
		t.Fatalf("fresh accumulation granted %d early", g)
	}
	if g := f.Retire(7); g != 9 {
		t.Fatalf("bulk retirement granted %d, want 9", g)
	}
}

// TestFlowLinkAbsorbsGrants: grants put on the wire by the peer refill the
// pool inside Recv/RecvBatch and never surface; data packets pass through
// untouched, on both the per-packet and batch receive paths.
func TestFlowLinkAbsorbsGrants(t *testing.T) {
	a, b := NewPair(16)
	defer a.Close()
	defer b.Close()
	f := NewFlowLink(a, 4)
	for i := 0; i < 4; i++ {
		f.TryAcquire()
	}

	// A frame of only grants, then a mixed frame: RecvBatch must skip the
	// first entirely and filter the second.
	if err := SendBatch(b, []*packet.Packet{packet.NewCreditGrant(2, 0)}); err != nil {
		t.Fatal(err)
	}
	data := packet.MustNew(packet.TagFirstApplication, 9, 2, "%d", int64(5))
	if err := SendBatch(b, []*packet.Packet{packet.NewCreditGrant(1, 0), data}); err != nil {
		t.Fatal(err)
	}
	ps, err := f.RecvBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0].StreamID != 9 {
		t.Fatalf("RecvBatch returned %d packets (stream %d), want the 1 data packet", len(ps), ps[0].StreamID)
	}
	n := 0
	for f.TryAcquire() {
		n++
	}
	if n != 3 {
		t.Fatalf("absorbed grants refilled %d credits, want 3", n)
	}

	// Per-packet path: grant then data.
	if err := b.Send(packet.NewCreditGrant(2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(data); err != nil {
		t.Fatal(err)
	}
	p, err := f.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if p.StreamID != 9 {
		t.Fatalf("Recv returned stream %d, want the data packet", p.StreamID)
	}
	if !f.TryAcquire() || !f.TryAcquire() {
		t.Fatal("per-packet grant did not refill")
	}
}

// TestFlowLinkRefillHook: the hook fires after refills — the egress
// stall/resume wakeup contract.
func TestFlowLinkRefillHook(t *testing.T) {
	a, b := NewPair(4)
	defer a.Close()
	defer b.Close()
	f := NewFlowLink(a, 2)
	var mu sync.Mutex
	fired := 0
	f.SetRefillHook(func() { mu.Lock(); fired++; mu.Unlock() })
	f.TryAcquire()
	grant(f, 1)
	mu.Lock()
	got := fired
	mu.Unlock()
	if got != 1 {
		t.Fatalf("refill hook fired %d times, want 1", got)
	}
}

// TestFlowLinkDelegation: the wrapper stays a faithful BatchLink and
// Dropper on both fabrics' core behaviors (batch path, drop-through EOF).
func TestFlowLinkDelegation(t *testing.T) {
	a, b := NewPair(8)
	f := NewFlowLink(a, 4)
	batch := []*packet.Packet{
		packet.MustNew(100, 1, 0, "%d", int64(1)),
		packet.MustNew(100, 1, 0, "%d", int64(2)),
	}
	if err := SendBatch(f, batch); err != nil {
		t.Fatal(err)
	}
	got, err := RecvBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("batch of %d through the wrapper, want 2 (native batch path lost?)", len(got))
	}
	DropLink(f) // must reach the inner Dropper
	if _, err := b.Recv(); err == nil {
		t.Fatal("peer Recv succeeded after a dropped FlowLink")
	}
}

// TestFlowLinkSendGrantEveryFabric: on both fabrics a grant sent with
// SendGrant — framed from its fields on TCP — reaches the peer's FlowLink
// with its count and cumulative ack, alongside a grant that travels as a
// packet in a mixed frame; and a peer that does not wrap its end still
// reads the grant as the TagCredit packet NewCreditGrant builds.
func TestFlowLinkSendGrantEveryFabric(t *testing.T) {
	for _, fac := range factories() {
		t.Run(fac.name, func(t *testing.T) {
			a, b := fac.make(t)
			defer a.Close()
			defer b.Close()
			fa, fb := NewFlowLink(a, 4), NewFlowLink(b, 4)
			for i := 0; i < 4; i++ {
				fa.TryAcquire()
			}
			type ack struct {
				n   int
				cum uint64
			}
			acks := make(chan ack, 4)
			fa.SetAckHook(func(n int, cum uint64) { acks <- ack{n, cum} })

			fb.Retire(3)
			if err := fb.SendGrant(2); err != nil {
				t.Fatal(err)
			}
			data := packet.MustNew(packet.TagFirstApplication, 9, 2, "%d", int64(5))
			if err := SendBatch(b, []*packet.Packet{packet.NewCreditGrant(1, 3), data}); err != nil {
				t.Fatal(err)
			}
			ps, err := fa.RecvBatch()
			if err != nil {
				t.Fatal(err)
			}
			if len(ps) != 1 || ps[0].StreamID != 9 {
				t.Fatalf("RecvBatch returned %v, want the 1 data packet", ps)
			}
			for _, want := range []ack{{2, 3}, {1, 3}} {
				if got := <-acks; got != want {
					t.Errorf("ack hook saw %+v, want %+v", got, want)
				}
			}
			n := 0
			for fa.TryAcquire() {
				n++
			}
			if n != 3 {
				t.Fatalf("grants refilled %d credits, want 3", n)
			}

			// An unwrapped end reads the grant as a packet.
			c, d := fac.make(t)
			defer c.Close()
			defer d.Close()
			fc := NewFlowLink(c, 4)
			fc.Retire(1)
			if err := fc.SendGrant(1); err != nil {
				t.Fatal(err)
			}
			p, err := d.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := packet.CreditGrantValue(p); !ok || v != 1 || packet.CreditGrantAck(p) != 1 {
				t.Errorf("unwrapped end read %v, want NewCreditGrant(1, 1)", p)
			}
		})
	}
}

// TestFlowLinkIdleGrantsOweOnlyWhereFramesCarryThem: an idle grant is owed
// only on a link that frames its own grants and whose queue attached a
// backstop; anywhere else the caller sends it at once. Owed credits leave
// with the next grant sent at once, or alone through PayOwed, and reach
// the peer either way.
func TestFlowLinkIdleGrantsOweOnlyWhereFramesCarryThem(t *testing.T) {
	for _, fac := range factories() {
		t.Run(fac.name, func(t *testing.T) {
			a, b := fac.make(t)
			defer a.Close()
			defer b.Close()
			fa, fb := NewFlowLink(a, 8), NewFlowLink(b, 8)
			fa.TryAcquireN(8)
			go func() { // absorbs the peer's grants until the link closes
				for {
					if _, err := fa.RecvBatch(); err != nil {
						return
					}
				}
			}()
			// free waits until fa's pool has n credits free.
			free := func(n int) {
				t.Helper()
				for deadline := time.Now().Add(5 * time.Second); fa.Available() != n; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d credits free, want %d", fa.Available(), n)
					}
				}
			}

			if fb.OweIdle(1) {
				t.Fatal("OweIdle owed a grant with no backstop attached")
			}
			owes := 0
			fb.SetGrantHooks(func(now bool) {
				if !now {
					owes++
				}
			}, nil)
			if fac.name == "chan" {
				if fb.OweIdle(2) || fb.Owed() != 0 {
					t.Fatalf("chan: OweIdle owed %d credits; a chan link sends its grants at once", fb.Owed())
				}
				return
			}
			if !fb.OweIdle(2) || fb.Owed() != 2 || owes != 1 {
				t.Fatalf("tcp: %d credits owed, %d owe hooks; want 2 and 1", fb.Owed(), owes)
			}
			fb.Owe(1) // adds to the grant already owed: no new hook
			if owes != 1 {
				t.Errorf("owe hook ran %d times for one owed grant", owes)
			}
			if err := fb.SendGrant(1); err != nil { // takes the 3 owed along
				t.Fatal(err)
			}
			free(4)
			fb.Owe(2)
			if paid, err := fb.PayOwed(); !paid || err != nil || fb.Owed() != 0 {
				t.Fatalf("PayOwed = %v, %v with %d still owed; want the grant paid", paid, err, fb.Owed())
			}
			if paid, _ := fb.PayOwed(); paid {
				t.Error("PayOwed paid with nothing owed")
			}
			free(6)
		})
	}
}

// TestFlowLinkOweNowOwesOnEveryFabric: a grant owed at once is owed on
// either fabric, the chan one included, and every such owe asks the
// link's queue to pay now (the hook's now flag), even when a grant is
// already owed — the pay-now request must reach a queue whose owed grant
// was waiting out the idle backstop. The owed credits reach the peer
// through PayOwed.
func TestFlowLinkOweNowOwesOnEveryFabric(t *testing.T) {
	for _, fac := range factories() {
		t.Run(fac.name, func(t *testing.T) {
			a, b := fac.make(t)
			defer a.Close()
			defer b.Close()
			fa, fb := NewFlowLink(a, 8), NewFlowLink(b, 8)
			fa.TryAcquireN(8)
			go func() { // absorbs the peer's grants until the link closes
				for {
					if _, err := fa.RecvBatch(); err != nil {
						return
					}
				}
			}()
			var nows atomic.Int32
			fb.SetGrantHooks(func(now bool) {
				if now {
					nows.Add(1)
				}
			}, nil)
			fb.Owe(1)
			fb.OweNow(2)
			fb.OweNow(0) // nothing to owe: no hook
			if fb.Owed() != 3 || nows.Load() != 1 {
				t.Fatalf("%d credits owed, %d pay-now requests; want 3 and 1", fb.Owed(), nows.Load())
			}
			if paid, err := fb.PayOwed(); !paid || err != nil || fb.Owed() != 0 {
				t.Fatalf("PayOwed = %v, %v with %d still owed; want the grant paid", paid, err, fb.Owed())
			}
			for deadline := time.Now().Add(5 * time.Second); fa.Available() != 3; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d credits free at the peer, want 3", fa.Available())
				}
			}
		})
	}
}
