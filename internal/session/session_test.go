package session

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eqclass"
	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/recovery"
	"repro/internal/topology"
)

const tagQuery = packet.TagFirstApplication

var fabrics = map[string]core.TransportKind{
	"chan": core.ChanTransport,
	"tcp":  core.TCPTransport,
}

func mustTree(t *testing.T, spec string) *topology.Tree {
	t.Helper()
	tr, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// echoNet builds a network whose back-ends answer every multicast with
// their rank as a float.
func echoNet(t *testing.T, spec string, kind core.TransportKind) *core.Network {
	t.Helper()
	nw, err := core.NewNetwork(core.Config{
		Topology:  mustTree(t, spec),
		Transport: kind,
		OnBackEnd: func(be *core.BackEnd) error {
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
	return nw
}

func TestAdmissionControl(t *testing.T) {
	nw := echoNet(t, "kary:2^1", core.ChanTransport)
	defer nw.Shutdown()
	m := NewManager(nw, Config{MaxSessions: 2})

	a, err := m.Open("alice")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Open("bob")
	if err != nil {
		t.Fatal(err)
	}
	if m.Active() != 2 {
		t.Fatalf("active = %d, want 2", m.Active())
	}
	// The cap is hit: the third tenant is refused with the typed error.
	if _, err := m.Open("carol"); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("over-cap open: err = %v, want ErrSessionLimit", err)
	}
	if got := nw.Metrics().SessionsRejected.Load(); got != 1 {
		t.Errorf("SessionsRejected = %d, want 1", got)
	}
	// Freeing a slot admits again, in a fresh namespace.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("second close not idempotent: %v", err)
	}
	c, err := m.Open("carol")
	if err != nil {
		t.Fatal(err)
	}
	if c.NS() == a.NS() || c.NS() == b.NS() {
		t.Errorf("namespace %d reused while tracked (a=%d b=%d)", c.NS(), a.NS(), b.NS())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Active() != 0 {
		t.Errorf("active after manager close = %d", m.Active())
	}
}

// leafReport is the deterministic (class, member) report of the i'th
// leaf: an os class shared 4 ways and a cpu class shared 8 ways.
func leafReport(i int) [][2]any {
	return [][2]any{
		{fmt.Sprintf("os/%d", i%4), int64(i)},
		{"cpu", int64(i % 8)},
	}
}

func fingerprint(s *eqclass.Set) string {
	var parts []string
	for _, k := range s.Keys() {
		for _, m := range s.Members(k) {
			parts = append(parts, fmt.Sprintf("%s=%d", k, m))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// runTenants drives the equivalence-class workload through n concurrent
// tenant sessions over one overlay. If kill >= 0, that rank is crashed
// once every tenant has completed a few rounds, and the recovery manager
// must bring the overlay back while both tenants keep querying. Returns
// each tenant's final accumulated fingerprint and the expected one.
func runTenants(t *testing.T, spec string, kind core.TransportKind, n int, kill core.Rank) ([]string, string) {
	t.Helper()
	reg := filter.NewRegistry()
	eqclass.Register(reg)
	tree := mustTree(t, spec)
	leaves := tree.Leaves()
	leafIdx := map[core.Rank]int{}
	for i, l := range leaves {
		leafIdx[l] = i
	}
	want := eqclass.NewSet()
	for i := range leaves {
		for _, pr := range leafReport(i) {
			want.Add(pr[0].(string), pr[1].(int64))
		}
	}

	nw, err := core.NewNetwork(core.Config{
		Topology:        tree,
		Registry:        reg,
		Transport:       kind,
		HeartbeatPeriod: 10 * time.Millisecond,
		OnBackEnd: func(be *core.BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				round, err := p.Int(0)
				if err != nil {
					continue
				}
				// One pair per round; resending cycles the report, which
				// is safe because the reduction is idempotent.
				pairs := leafReport(leafIdx[be.Rank()])
				pr := pairs[int(round)%len(pairs)]
				s := eqclass.NewSet()
				s.Add(pr[0].(string), pr[1].(int64))
				rp, err := s.ToPacket(p.Tag, p.StreamID, be.Rank())
				if err != nil {
					return err
				}
				_ = be.SendPacket(rp) // orphaned sends fail; resent next cycle
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	mgr, err := recovery.New(nw, recovery.Config{Timeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()

	m := NewManager(nw, Config{MaxSessions: n})
	defer m.Close()

	fps := make([]string, n)
	var rounds [8]atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sess, err := m.Open(fmt.Sprintf("tenant-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, sess *Session) {
			defer wg.Done()
			st, err := sess.NewStream(core.StreamSpec{
				Transformation:  eqclass.FilterName,
				Synchronization: "nullsync",
			})
			if err != nil {
				t.Error(err)
				return
			}
			acc := eqclass.NewSet()
			deadline := time.Now().Add(60 * time.Second)
			for round := 0; ; round++ {
				rounds[i].Store(int64(round))
				if err := st.Multicast(tagQuery, "%d", int64(round)); err != nil {
					t.Errorf("tenant %d: %v", i, err)
					return
				}
				for {
					p, err := st.RecvTimeout(20 * time.Millisecond)
					if err != nil {
						break
					}
					if s, err := eqclass.FromPacket(p); err == nil {
						acc.Merge(s)
					}
				}
				recovered := kill < 0 || len(mgr.Reports()) > 0
				if recovered && fingerprint(acc) == fingerprint(want) {
					fps[i] = fingerprint(acc)
					return
				}
				if time.Now().After(deadline) {
					t.Errorf("tenant %d never converged: %d of %d pairs", i, acc.Len(), want.Len())
					return
				}
			}
		}(i, sess)
	}

	if kill >= 0 {
		// Crash once every tenant is mid-stream.
		deadline := time.Now().Add(30 * time.Second)
		for {
			ready := true
			for i := 0; i < n; i++ {
				if rounds[i].Load() < 2 {
					ready = false
				}
			}
			if ready {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("tenants never reached round 2")
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err := nw.Kill(kill); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if kill >= 0 {
		reps := mgr.Reports()
		if len(reps) != 1 || reps[0].Failed != kill {
			t.Fatalf("recovery reports = %+v, want one for rank %d", reps, kill)
		}
	}
	return fps, fingerprint(want)
}

// TestTenantsMatchSingleTenant: two tenants sharing the overlay compute
// exactly what each computes alone — the multi-tenant acceptance bar —
// on both fabrics.
func TestTenantsMatchSingleTenant(t *testing.T) {
	for name, kind := range fabrics {
		t.Run(name, func(t *testing.T) {
			if kind == core.TCPTransport && testing.Short() {
				t.Skip("TCP equivalence runs in the CI soak step")
			}
			solo, want := runTenants(t, "kary:3^2", kind, 1, -1)
			if solo[0] != want {
				t.Fatalf("single tenant wrong: %q", solo[0])
			}
			both, _ := runTenants(t, "kary:3^2", kind, 2, -1)
			for i, fp := range both {
				if fp != want {
					t.Errorf("tenant %d diverged from the single-tenant result", i)
				}
			}
		})
	}
}

// TestMixedTenantChaosKill is the chaos acceptance check on the big tree:
// two tenants on kary:8^2, an internal communication process crashes
// mid-run, and both tenants converge to the identical, correct
// equivalence-class set on both fabrics.
func TestMixedTenantChaosKill(t *testing.T) {
	for name, kind := range fabrics {
		t.Run(name, func(t *testing.T) {
			if kind == core.TCPTransport && testing.Short() {
				t.Skip("TCP chaos runs in the CI soak step")
			}
			fps, want := runTenants(t, "kary:8^2", kind, 2, 3)
			for i, fp := range fps {
				if fp != want {
					t.Errorf("tenant %d diverged after recovery", i)
				}
			}
			if fps[0] != fps[1] {
				t.Error("tenants recovered to different sets")
			}
		})
	}
}

// TestCloseTenantDoesNotStallOthers: tearing tenant B down while its
// traffic is in flight never blocks tenant A — closes are bounded and A's
// queries keep answering throughout.
func TestCloseTenantDoesNotStallOthers(t *testing.T) {
	tree := mustTree(t, "kary:4^2")
	nw, err := core.NewNetwork(core.Config{
		Topology:   tree,
		LinkWindow: 4, // small shared window: contention is real
		OnBackEnd: func(be *core.BackEnd) error {
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
	m := NewManager(nw, Config{})

	a, err := m.Open("steady")
	if err != nil {
		t.Fatal(err)
	}
	stA, err := a.NewStream(core.StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, l := range tree.Leaves() {
		want += float64(l)
	}
	queryA := func() {
		t.Helper()
		if err := stA.Multicast(tagQuery, ""); err != nil {
			t.Fatal(err)
		}
		p, err := stA.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatal("tenant A stalled:", err)
		}
		if v, _ := p.Float(0); v != want {
			t.Errorf("sum = %g, want %g", v, want)
		}
	}

	for i := 0; i < 5; i++ {
		b, err := m.Open("churner")
		if err != nil {
			t.Fatal(err)
		}
		stB, err := b.NewStream(core.StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
		if err != nil {
			t.Fatal(err)
		}
		// B floods from a goroutine on its one-window budget, which four
		// children spend in one multicast; its session dies mid-stream.
		stop := make(chan struct{})
		var bwg sync.WaitGroup
		bwg.Add(1)
		go func() {
			defer bwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := stB.Multicast(tagQuery, ""); err != nil {
					return
				}
			}
		}()
		queryA()
		closed := make(chan error, 1)
		go func() { closed <- b.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("tenant close stalled")
		}
		queryA()
		close(stop)
		bwg.Wait()
	}
}

// Active reports how many sessions are currently open.
func (m *Manager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.open)
}
