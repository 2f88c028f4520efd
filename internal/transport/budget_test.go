package transport

import (
	"testing"
	"time"

	"repro/internal/packet"
)

func TestBudgetBasics(t *testing.T) {
	b := NewBudget(2)
	if b.Cap() != 2 {
		t.Fatalf("cap = %d", b.Cap())
	}
	if !b.TryAcquire() || !b.TryAcquire() {
		t.Fatal("two acquires must succeed")
	}
	if b.TryAcquire() {
		t.Fatal("third acquire must fail")
	}
	if b.InUse() != 2 {
		t.Fatalf("in use = %d", b.InUse())
	}
	b.Release(1)
	if !b.TryAcquire() {
		t.Fatal("released credit must be reusable")
	}
	// Over-release is clamped, not a panic or a capacity leak.
	b.Release(10)
	if b.InUse() != 0 {
		t.Fatalf("after over-release, in use = %d", b.InUse())
	}
	if NewBudget(0).Cap() != 1 {
		t.Fatal("zero-credit budgets must clamp to 1")
	}
}

func TestBudgetAcquireBlocksAndAborts(t *testing.T) {
	b := NewBudget(1)
	if !b.TryAcquire() {
		t.Fatal("first acquire")
	}
	stop := make(chan struct{})
	got := make(chan bool, 1)
	go func() { got <- b.Acquire(stop, nil) }()
	select {
	case <-got:
		t.Fatal("acquire should block on an exhausted budget")
	case <-time.After(20 * time.Millisecond):
	}
	close(stop)
	if v := <-got; v {
		t.Fatal("stopped acquire must report false")
	}
	// An aborted budget stops constraining entirely.
	b.Abort()
	if !b.Acquire(nil, nil) {
		t.Fatal("aborted budget must grant immediately")
	}
	b.Abort() // idempotent
}

// budgetPair builds a chan-fabric link pair wrapped in FlowLinks of window w.
func budgetPair(t *testing.T, w int) (*FlowLink, *FlowLink) {
	t.Helper()
	a, b := NewPair(8)
	return NewFlowLink(a, w), NewFlowLink(b, w)
}

// charge takes one token of b and stamps it on fl, the way a sender
// charges a packet it queues for the link to its tenant.
func charge(t *testing.T, fl *FlowLink, b *Budget) {
	t.Helper()
	if !b.TryAcquire() {
		t.Fatal("budget exhausted")
	}
	fl.StampBudget(b)
}

func TestStampBudgetReleasesOnRefill(t *testing.T) {
	fl, _ := budgetPair(t, 4)
	b := NewBudget(2)
	charge(t, fl, b)
	charge(t, fl, b)
	if b.InUse() != 2 {
		t.Fatalf("budget in use = %d, want 2", b.InUse())
	}
	// The link window is untouched, but the tenant's budget is spent: the
	// tenant's next acquire must block even though the link would not.
	stop := make(chan struct{})
	got := make(chan bool, 1)
	go func() { got <- b.Acquire(stop, nil) }()
	select {
	case <-got:
		t.Fatal("acquire should block on the exhausted tenant budget")
	case <-time.After(20 * time.Millisecond):
	}
	// A grant refilling one link credit releases the oldest budget stamp,
	// unblocking the tenant.
	grant(fl, 1)
	if v := <-got; !v {
		t.Fatal("refill must unblock the tenant's acquire")
	}
	close(stop)
	// The second stamp is released by the next grant, not twice by one.
	grant(fl, 1)
	grant(fl, 1)
	if b.InUse() != 1 {
		t.Fatalf("after three one-credit grants, budget in use = %d, want 1 (the token taken after the first)", b.InUse())
	}
}

func TestStampBudgetAbort(t *testing.T) {
	fl, _ := budgetPair(t, 4)
	b := NewBudget(4)
	for i := 0; i < 3; i++ {
		charge(t, fl, b)
	}
	// Link death returns every stamp: a tenant must not stay charged for
	// credits a dead peer can never retire.
	fl.Abort()
	if b.InUse() != 0 {
		t.Fatalf("after abort, budget in use = %d, want 0", b.InUse())
	}
	// A stamp on the dead link returns its token at once.
	charge(t, fl, b)
	if b.InUse() != 0 {
		t.Fatalf("dead-link stamp leaked a budget token: in use = %d", b.InUse())
	}
	// Aborting the budget itself (a closed session) releases its waiters.
	for b.TryAcquire() {
	}
	got := make(chan bool, 1)
	go func() { got <- b.Acquire(nil, nil) }()
	b.Abort()
	if v := <-got; !v {
		t.Fatal("an aborted budget must grant its blocked acquire")
	}
}

func TestStampBudgetNilBudget(t *testing.T) {
	fl, _ := budgetPair(t, 1)
	fl.StampBudget(nil) // unbudgeted traffic: no stamp
	if !fl.TryAcquire() {
		t.Fatal("a nil stamp must not touch the link window")
	}
	grant(fl, 1) // no stamp to release, nothing to panic on
	if fl.Available() != 1 {
		t.Fatalf("available = %d, want 1", fl.Available())
	}
}

// TestBudgetedGrantsOverWire drives real grants end to end: the receiver
// retires packets, the sender's budget frees as the grants land.
func TestBudgetedGrantsOverWire(t *testing.T) {
	fl, peer := budgetPair(t, 4)
	b := NewBudget(2)
	data := packet.MustNew(100, 1, 0, "%d", int64(7))
	for i := 0; i < 2; i++ {
		if !fl.TryAcquire() {
			t.Fatal("acquire")
		}
		charge(t, fl, b)
		if err := fl.Send(data); err != nil {
			t.Fatal(err)
		}
	}
	// Receiver consumes and retires both; window 4 → threshold 1, so each
	// retirement yields a grant to send back.
	for i := 0; i < 2; i++ {
		if _, err := peer.Recv(); err != nil {
			t.Fatal(err)
		}
		if g := peer.Retire(1); g > 0 {
			if err := peer.Send(packet.NewCreditGrant(uint32(g), 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The sender absorbs the grants on its next receive: the peer sends one
	// data packet after them to end it.
	if err := peer.Send(data); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Recv(); err != nil { // absorbs both grants first
		t.Fatal(err)
	}
	if b.InUse() != 0 {
		t.Fatalf("budget in use after grants = %d, want 0", b.InUse())
	}
}
