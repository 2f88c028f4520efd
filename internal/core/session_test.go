package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/transport"
)

func TestNamespaceOf(t *testing.T) {
	cases := []struct{ ns, seq uint32 }{
		{0, 1}, {1, 1}, {7, 12345}, {MaxNamespace, maxSeq},
	}
	for _, c := range cases {
		id := c.ns<<nsShift | c.seq
		if got := NamespaceOf(id); got != c.ns {
			t.Errorf("NamespaceOf(%#x) = %d, want %d", id, got, c.ns)
		}
	}
}

func TestSessionValidation(t *testing.T) {
	tree := mustTree(t, "kary:2^1")
	nw := echoValue(t, tree, ChanTransport)
	defer nw.Shutdown()

	if err := nw.OpenSession(SessionInfo{NS: 0}); err == nil {
		t.Error("namespace 0 must be rejected (reserved for the legacy API)")
	}
	if err := nw.OpenSession(SessionInfo{NS: MaxNamespace + 1}); err == nil {
		t.Error("out-of-range namespace must be rejected")
	}
	if err := nw.OpenSession(SessionInfo{NS: 3, Tenant: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := nw.OpenSession(SessionInfo{NS: 3, Tenant: "b"}); err == nil {
		t.Error("duplicate namespace must be rejected")
	}
	if err := nw.CloseSession(9); err == nil {
		t.Error("closing an unopened namespace must fail")
	}
	if _, err := nw.NewStreamNS(9, StreamSpec{}); err == nil ||
		!strings.Contains(err.Error(), "no open session") {
		t.Errorf("stream in unopened namespace: err = %v", err)
	}
	if _, err := nw.NewStreamNS(MaxNamespace+1, StreamSpec{}); err == nil {
		t.Error("stream in out-of-range namespace must fail")
	}
	st, err := nw.NewStreamNS(3, StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if NamespaceOf(st.ID()) != 3 {
		t.Errorf("stream id %#x not in namespace 3", st.ID())
	}
	if err := nw.CloseSession(3); err != nil {
		t.Fatal(err)
	}
	if err := nw.CloseSession(3); err == nil {
		t.Error("double close must fail")
	}
}

// TestSessionsConcurrentTenants runs two tenant sessions side by side over
// one overlay: both compute correct reductions, closing one leaves the
// other fully live, and per-tenant counters attribute the traffic.
func TestSessionsConcurrentTenants(t *testing.T) {
	for _, kind := range []TransportKind{ChanTransport, TCPTransport} {
		name := "chan"
		if kind == TCPTransport {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			tree := mustTree(t, "kary:3^2")
			nw := echoValue(t, tree, kind)
			defer nw.Shutdown()

			if err := nw.OpenSession(SessionInfo{NS: 1, Tenant: "alice", Priority: 1}); err != nil {
				t.Fatal(err)
			}
			if err := nw.OpenSession(SessionInfo{NS: 2, Tenant: "bob"}); err != nil {
				t.Fatal(err)
			}
			if n := len(nw.Sessions()); n != 2 {
				t.Fatalf("open sessions = %d, want 2", n)
			}

			var want float64
			for _, l := range tree.Leaves() {
				want += float64(l)
			}
			spec := StreamSpec{Transformation: "sum", Synchronization: "waitforall"}
			query := func(ns uint32) {
				t.Helper()
				st, err := nw.NewStreamNS(ns, spec)
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
				if v, _ := p.Float(0); v != want {
					t.Errorf("ns %d sum = %g, want %g", ns, v, want)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for i := 0; i < 3; i++ {
				wg.Add(2)
				go func() { defer wg.Done(); query(1) }()
				go func() { defer wg.Done(); query(2) }()
			}
			wg.Wait()

			// Tear bob down; alice keeps answering over the shared tree.
			if err := nw.CloseSession(2); err != nil {
				t.Fatal(err)
			}
			query(1)
			if err := nw.CloseSession(1); err != nil {
				t.Fatal(err)
			}

			m := nw.Metrics()
			if m.SessionsOpened.Load() != 2 || m.SessionsClosed.Load() != 2 {
				t.Errorf("sessions opened/closed = %d/%d, want 2/2",
					m.SessionsOpened.Load(), m.SessionsClosed.Load())
			}
			ts := nw.TenantSnapshot()
			for _, tenant := range []string{"alice", "bob"} {
				tc := ts[tenant]
				if tc == nil {
					t.Fatalf("no counters for tenant %q: %v", tenant, ts)
				}
				if tc["streams_opened"] < 3 || tc["packets_down"] < 3 || tc["packets_up"] < 3 {
					t.Errorf("tenant %q counters off: %v", tenant, tc)
				}
				if tc["streams_closed"] != tc["streams_opened"] {
					t.Errorf("tenant %q leaked streams: %v", tenant, tc)
				}
			}
		})
	}
}

// TestSessionStreamsSurviveOtherTeardown exercises the non-quiescing close
// at internal nodes: a stream of tenant A created before tenant B's close
// still reduces correctly afterwards, and B's stream ids are gone.
func TestSessionStreamsSurviveOtherTeardown(t *testing.T) {
	tree := mustTree(t, "kary:2^3")
	nw := echoValue(t, tree, ChanTransport)
	defer nw.Shutdown()

	for ns := uint32(1); ns <= 2; ns++ {
		if err := nw.OpenSession(SessionInfo{NS: ns}); err != nil {
			t.Fatal(err)
		}
	}
	spec := StreamSpec{Transformation: "sum", Synchronization: "waitforall"}
	stA, err := nw.NewStreamNS(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := nw.NewStreamNS(2, spec)
	if err != nil {
		t.Fatal(err)
	}
	// B has traffic in flight when its session dies.
	if err := stB.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	if err := nw.CloseSession(2); err != nil {
		t.Fatal(err)
	}
	if nw.Stream(stB.ID()) != nil {
		t.Error("bulk-closed stream still registered")
	}
	if _, err := stB.RecvTimeout(50 * time.Millisecond); err == nil {
		t.Error("recv on bulk-closed stream should fail")
	}

	var want float64
	for _, l := range tree.Leaves() {
		want += float64(l)
	}
	for i := 0; i < 3; i++ {
		if err := stA.Multicast(tagQuery, ""); err != nil {
			t.Fatal(err)
		}
		p, err := stA.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := p.Float(0); v != want {
			t.Errorf("post-teardown sum = %g, want %g", v, want)
		}
	}
}

// parkedNetwork builds a kary:4^1 overlay with a link window of 8 whose
// back-ends park until release closes: nothing retires, so every credit a
// multicast takes stays out.
func parkedNetwork(t *testing.T, kind TransportKind) (nw *Network, release chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	nw, err := NewNetwork(Config{
		Topology:   mustTree(t, "kary:4^1"),
		Transport:  kind,
		LinkWindow: 8,
		OnBackEnd: func(be *BackEnd) error {
			<-release
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
	return nw, release
}

// sessionBudget returns the credit budget of the open session ns.
func sessionBudget(nw *Network, ns uint32) *transport.Budget {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.sessions[ns].budget
}

// TestSessionBudgetClampAndLiveness checks the credit budget every session
// gets: it is clamped to one link window, a sender whose subtree stopped
// consuming parks on it once it is spent, and aborting it at CloseSession
// releases that sender at once.
func TestSessionBudgetClampAndLiveness(t *testing.T) {
	nw, release := parkedNetwork(t, ChanTransport)
	defer nw.Shutdown()
	defer close(release)

	if err := nw.OpenSession(SessionInfo{NS: 1, Tenant: "t"}); err != nil {
		t.Fatal(err)
	}
	if got := sessionBudget(nw, 1).Cap(); got != 8 {
		t.Fatalf("budget = %d credits, want the link window 8", got)
	}
	st, err := nw.NewStreamNS(1, StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	// Fan-out 4 and a budget of 8: two multicasts spend it, and with no
	// retirements the third parks on the tenant's own budget.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			_ = st.Multicast(tagQuery, "")
		}
	}()
	select {
	case <-done:
		t.Fatal("the third multicast should block on the spent tenant budget")
	case <-time.After(50 * time.Millisecond):
	}
	// Closing the session aborts the budget: the parked sender proceeds.
	if err := nw.CloseSession(1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("CloseSession left the sender parked on a dead budget")
	}
}

// TestSessionBudgetIsolatesTenants: the budget is what keeps a tenant
// whose subtree stopped consuming from taking another tenant's share of
// the root's links. Tenant A multicasts as fast as it is admitted into
// parked back-ends; its budget (one window of 8 across four child links)
// fills after exactly 8/4 = 2 multicasts, each link still has 6 credits
// free, and tenant B's multicast still goes through. Without the budget A
// would fill every link's window and its egress queue, and B would block.
func TestSessionBudgetIsolatesTenants(t *testing.T) {
	for name, kind := range map[string]TransportKind{"chan": ChanTransport, "tcp": TCPTransport} {
		t.Run(name, func(t *testing.T) {
			nw, release := parkedNetwork(t, kind)
			defer nw.Shutdown()
			for ns := uint32(1); ns <= 2; ns++ {
				if err := nw.OpenSession(SessionInfo{NS: ns}); err != nil {
					t.Fatal(err)
				}
			}
			spec := StreamSpec{Transformation: "sum", Synchronization: "waitforall"}
			stA, err := nw.NewStreamNS(1, spec)
			if err != nil {
				t.Fatal(err)
			}
			stB, err := nw.NewStreamNS(2, spec)
			if err != nil {
				t.Fatal(err)
			}

			var accepted atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if stA.Multicast(tagQuery, "") != nil {
						return
					}
					accepted.Add(1)
				}
			}()
			defer func() {
				close(stop)
				close(release) // retirements resume, so a parked A returns
				wg.Wait()
			}()

			budA := sessionBudget(nw, 1)
			deadline := time.Now().Add(10 * time.Second)
			for budA.InUse() < budA.Cap() || accepted.Load() < 2 {
				if time.Now().After(deadline) {
					t.Fatalf("tenant A's budget holds %d of %d credits after %d multicasts: it never filled",
						budA.InUse(), budA.Cap(), accepted.Load())
				}
				time.Sleep(time.Millisecond)
			}

			sent := make(chan error, 1)
			go func() { sent <- stB.Multicast(tagQuery, "") }()
			select {
			case err := <-sent:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("tenant B's multicast blocked behind tenant A's stalled traffic")
			}
			if got := accepted.Load(); got != 2 {
				t.Errorf("tenant A had %d multicasts accepted with its budget full, want 8/4 = 2", got)
			}
		})
	}
}

// TestSessionControlWireRoundTrip drives the session teardown op through
// the real wire codec: encode → Decode → parse must reproduce the
// namespace exactly, and a type-mangled payload must be rejected by the
// parser rather than misread.
func TestSessionControlWireRoundTrip(t *testing.T) {
	cp, err := packet.Decode(closeSessionPacket(9).Encode())
	if err != nil {
		t.Fatalf("decoding opCloseSession wire bytes: %v", err)
	}
	if op, err := ctrlOp(cp); err != nil || op != opCloseSession {
		t.Fatalf("ctrlOp = %d, %v; want opCloseSession", op, err)
	}
	if ns, err := parseCloseSession(cp); err != nil || ns != 9 {
		t.Errorf("parseCloseSession = %d, %v; want 9", ns, err)
	}

	// A string where the namespace belongs must fail cleanly.
	mangled := packet.MustNew(packet.TagControl, 0, 0, "%d %s",
		opCloseSession, "not-a-namespace")
	if _, err := parseCloseSession(mangled); err == nil {
		t.Error("parseCloseSession accepted a string namespace")
	}
}
