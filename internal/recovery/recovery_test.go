package recovery

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eqclass"
	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/transport"
)

const tagQuery = 100

func mustTree(t *testing.T, spec string) *topology.Tree {
	t.Helper()
	tr, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// fabrics names both link substrates for table-driven tests.
var fabrics = map[string]core.TransportKind{
	"chan": core.ChanTransport,
	"tcp":  core.TCPTransport,
}

// sumEcho builds a recoverable, heartbeating chan-fabric network whose
// back-ends answer every multicast with their rank.
func sumEcho(t *testing.T, spec string, hb time.Duration) *core.Network {
	t.Helper()
	return sumEchoOn(t, spec, hb, core.ChanTransport)
}

// sumEchoOn is sumEcho on an explicit link fabric.
func sumEchoOn(t *testing.T, spec string, hb time.Duration, kind core.TransportKind) *core.Network {
	t.Helper()
	nw, err := core.NewNetwork(core.Config{
		Topology:        mustTree(t, spec),
		Transport:       kind,
		HeartbeatPeriod: hb,
		OnBackEnd: func(be *core.BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				// Transient failures are expected while orphaned.
				_ = be.Send(p.StreamID, p.Tag, "%f", float64(be.Rank()))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestManagerAutoRecoversInternalFailure(t *testing.T) {
	nw := sumEcho(t, "kary:2^2", 10*time.Millisecond)
	defer nw.Shutdown()
	mgr, err := New(nw, Config{Timeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()

	st, err := nw.NewStream(core.StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	round := func(want float64) {
		t.Helper()
		if err := st.Multicast(tagQuery, ""); err != nil {
			t.Fatal(err)
		}
		p, err := st.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := p.Float(0); v != want {
			t.Errorf("sum = %g, want %g", v, want)
		}
	}
	round(18)

	if err := nw.Kill(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for len(mgr.Reports()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("manager never recovered the killed node")
		}
		time.Sleep(10 * time.Millisecond)
	}
	rep := mgr.Reports()[0]
	if rep.Failed != 1 || rep.NewParent != 0 || len(rep.Orphans) != 2 {
		t.Errorf("report = failed %d, parent %d, orphans %v", rep.Failed, rep.NewParent, rep.Orphans)
	}
	if rep.Detection <= 0 || rep.Total < rep.Rewire {
		t.Errorf("latencies: detection %v, rewire %v, total %v", rep.Detection, rep.Rewire, rep.Total)
	}
	for _, o := range rep.Orphans {
		if p := nw.LiveParent(o); p != 0 {
			t.Errorf("orphan %d has live parent %d, want the front-end", o, p)
		}
	}

	// The same stream keeps serving the full membership.
	for i := 0; i < 3; i++ {
		round(18)
	}
	if nw.Metrics().RecoveriesCompleted.Load() != 1 {
		t.Errorf("RecoveriesCompleted = %d", nw.Metrics().RecoveriesCompleted.Load())
	}
}

func TestManagerRecoversLeafFailure(t *testing.T) {
	nw := sumEcho(t, "kary:2^2", 10*time.Millisecond)
	defer nw.Shutdown()
	mgr, err := New(nw, Config{Timeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()

	if err := nw.Kill(6); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for len(mgr.Reports()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("manager never noticed the dead back-end")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rep := mgr.Reports()[0]; rep.Failed != 6 || len(rep.Orphans) != 0 {
		t.Errorf("report = %+v", rep)
	}
	// New full-membership streams exclude the dead leaf.
	st, err := nw.NewStream(core.StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
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
	if v, _ := p.Float(0); v != 12 { // 3+4+5
		t.Errorf("sum after leaf failure = %g, want 12", v)
	}
}

func TestManagerSequentialFailures(t *testing.T) {
	nw := sumEcho(t, "kary:2^3", 10*time.Millisecond)
	defer nw.Shutdown()
	mgr, err := New(nw, Config{Timeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	st, err := nw.NewStream(core.StreamSpec{Transformation: "count", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	for i, victim := range []core.Rank{3, 1} { // child first, then its (former) parent
		if err := nw.Kill(victim); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(15 * time.Second)
		for len(mgr.Reports()) <= i {
			if time.Now().After(deadline) {
				t.Fatalf("failure %d of rank %d never recovered", i, victim)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := st.Multicast(tagQuery, ""); err != nil {
			t.Fatal(err)
		}
		p, err := st.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatalf("after failure %d: %v", i, err)
		}
		if v, _ := p.Int(0); v != 8 {
			t.Errorf("after failure %d: count = %d, want 8 (no back-end lost)", i, v)
		}
	}
}

func TestManagerValidation(t *testing.T) {
	// A bare config is a valid manager target (every network recovers);
	// only automatic detection needs heartbeats.
	noHB, err := core.NewNetwork(core.Config{Topology: mustTree(t, "flat:2")})
	if err != nil {
		t.Fatal(err)
	}
	defer noHB.Shutdown()
	m, err := New(noHB, Config{})
	if err != nil {
		t.Fatalf("bare config: %v, want manager creation to succeed", err)
	}
	if err := m.Start(); err == nil {
		t.Error("start without heartbeats: want error")
	}

	hb := sumEcho(t, "flat:2", 50*time.Millisecond)
	defer hb.Shutdown()
	if _, err := New(hb, Config{Timeout: 60 * time.Millisecond}); err == nil {
		t.Error("timeout under two heartbeat periods: want error")
	}

	// Live rewiring is fabric-agnostic: a TCP network is a valid manager
	// target (it used to be rejected as chan-only).
	tcp, err := core.NewNetwork(core.Config{Topology: mustTree(t, "flat:2"), Transport: core.TCPTransport})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Shutdown()
	if _, err := New(tcp, Config{Timeout: time.Second}); err != nil {
		t.Errorf("TCP transport: %v, want manager creation to succeed", err)
	}
}

// TestManagerAutoRecoversOnTCP: the heartbeat detector and live
// reconfiguration drive recovery end-to-end over real TCP links.
func TestManagerAutoRecoversOnTCP(t *testing.T) {
	nw := sumEchoOn(t, "kary:2^2", 10*time.Millisecond, core.TCPTransport)
	defer nw.Shutdown()
	mgr, err := New(nw, Config{Timeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()

	st, err := nw.NewStream(core.StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	round := func(want float64) {
		t.Helper()
		if err := st.Multicast(tagQuery, ""); err != nil {
			t.Fatal(err)
		}
		p, err := st.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := p.Float(0); v != want {
			t.Errorf("sum = %g, want %g", v, want)
		}
	}
	round(18)
	if err := nw.Kill(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for len(mgr.Reports()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("manager never recovered the killed node on TCP")
		}
		time.Sleep(10 * time.Millisecond)
	}
	rep := mgr.Reports()[0]
	if rep.Failed != 1 || rep.NewParent != 0 || len(rep.Orphans) != 2 {
		t.Errorf("report = failed %d, parent %d, orphans %v", rep.Failed, rep.NewParent, rep.Orphans)
	}
	for i := 0; i < 3; i++ {
		round(18)
	}
	if nw.Metrics().RewiredLinks.Load() == 0 {
		t.Error("no replacement links counted on the TCP fabric")
	}
}

// TestManagerOverlappingFailures: a child and its parent are killed
// nearly simultaneously, so the second death lands while the first
// failure's detection/adoption is in flight. The detector must converge
// shallowest-first on both fabrics with no back-end lost.
func TestManagerOverlappingFailures(t *testing.T) {
	for name, kind := range fabrics {
		t.Run(name, func(t *testing.T) {
			nw := sumEchoOn(t, "kary:2^3", 10*time.Millisecond, kind) // 0; 1,2; 3..6; leaves 7..14
			defer nw.Shutdown()
			mgr, err := New(nw, Config{Timeout: 150 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if err := mgr.Start(); err != nil {
				t.Fatal(err)
			}
			defer mgr.Stop()
			st, err := nw.NewStream(core.StreamSpec{Transformation: "count", Synchronization: "waitforall"})
			if err != nil {
				t.Fatal(err)
			}

			// Deep node first, then its parent a beat later: both are
			// silent when the detector wakes, and the parent's death
			// overlaps whatever recovery the child's silence triggered.
			if err := nw.Kill(3); err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond)
			if err := nw.Kill(1); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(30 * time.Second)
			for len(mgr.Reports()) < 2 {
				if time.Now().After(deadline) {
					t.Fatalf("only %d of 2 overlapping failures recovered", len(mgr.Reports()))
				}
				time.Sleep(10 * time.Millisecond)
			}
			if err := st.Multicast(tagQuery, ""); err != nil {
				t.Fatal(err)
			}
			p, err := st.RecvTimeout(10 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := p.Int(0); v != 8 {
				t.Errorf("post-overlap count = %d, want 8 (no back-end lost)", v)
			}
		})
	}
}

// leafPairs is the deterministic (class, member) report of the i'th leaf,
// large enough that it takes several query rounds to stream out.
func leafPairs(i int) [][2]any {
	oses := []string{"os/linux", "os/aix", "os/sunos"}
	pairs := [][2]any{
		{oses[i%len(oses)], int64(i)},
		{"cpu", int64(i % 4)},
	}
	for j := 0; j < 4; j++ {
		pairs = append(pairs, [2]any{fmt.Sprintf("mod/%d", j), int64(i)})
	}
	return pairs
}

// setFingerprint renders a class set canonically for comparison.
func setFingerprint(s *eqclass.Set) string {
	var parts []string
	for _, k := range s.Keys() {
		for _, m := range s.Members(k) {
			parts = append(parts, fmt.Sprintf("%s=%d", k, m))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// runEqclassWorkload drives the paper's equivalence-class computation on
// the given tree: back-ends (re-)send their full report on every query,
// the overlay suppresses duplicates level by level, and the front-end
// accumulates deltas. If kill is non-negative, that rank is crashed
// mid-stream and the manager must recover it live. Returns the
// front-end's final accumulated set and the recovery reports.
func runEqclassWorkload(t *testing.T, spec string, kind core.TransportKind, kill core.Rank) (string, []Report) {
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
		for _, pr := range leafPairs(i) {
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
				// Each query round reveals one pair of the report, so the
				// data is still streaming when the fault lands; resending
				// cycles through the report, which is safe because the
				// equivalence-class reduction is idempotent.
				round, err := p.Int(0)
				if err != nil {
					continue
				}
				pairs := leafPairs(leafIdx[be.Rank()])
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
	mgr, err := New(nw, Config{Timeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()

	st, err := nw.NewStream(core.StreamSpec{
		Transformation:  eqclass.FilterName,
		Synchronization: "nullsync",
	})
	if err != nil {
		t.Fatal(err)
	}

	acc := eqclass.NewSet()
	deadline := time.Now().Add(30 * time.Second)
	killed := false
	for round := 0; ; round++ {
		if kill >= 0 && round == 3 && !killed {
			if err := nw.Kill(kill); err != nil {
				t.Fatal(err)
			}
			killed = true
		}
		if err := st.Multicast(tagQuery, "%d", int64(round)); err != nil {
			t.Fatal(err)
		}
		// Drain whatever deltas (including recovery state replays) are in.
	drain:
		for {
			p, err := st.RecvTimeout(20 * time.Millisecond)
			if err != nil {
				break drain
			}
			s, err := eqclass.FromPacket(p)
			if err != nil {
				continue
			}
			acc.Merge(s)
		}
		converged := acc.Len() == want.Len() && setFingerprint(acc) == setFingerprint(want)
		recovered := kill < 0 || (killed && len(mgr.Reports()) > 0)
		if converged && recovered {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("front-end never converged: have %q, want %q (recovered: %v)",
				setFingerprint(acc), setFingerprint(want), recovered)
		}
	}
	return setFingerprint(acc), mgr.Reports()
}

// TestChaosKillMidStreamMatchesUnfailedRun is the acceptance check, on
// BOTH fabrics: killing a random internal communication process on a
// running network with an active composable reduction yields the same
// final reduced result as a run that never failed. The TCP rows skip
// under -short; CI runs them full in the soak step under -race.
func TestChaosKillMidStreamMatchesUnfailedRun(t *testing.T) {
	for name, kind := range fabrics {
		for _, spec := range []string{"kary:3^2", "kary:2^3"} {
			t.Run(name+"/"+spec, func(t *testing.T) {
				if kind == core.TCPTransport && testing.Short() {
					t.Skip("TCP chaos runs in the CI soak step")
				}
				tree := mustTree(t, spec)
				internals := tree.InternalNodes()
				victim := internals[rand.Intn(len(internals))]

				clean, cleanReps := runEqclassWorkload(t, spec, kind, -1)
				if len(cleanReps) != 0 {
					t.Errorf("unfailed run recovered something: %v", cleanReps)
				}
				failed, reps := runEqclassWorkload(t, spec, kind, victim)
				if failed != clean {
					t.Errorf("victim %d: failed-run result %q != unfailed %q", victim, failed, clean)
				}
				if len(reps) != 1 || reps[0].Failed != victim {
					t.Fatalf("victim %d: reports = %+v", victim, reps)
				}
				// When the orphans are internal processes they carry eqclass
				// state, and the lost level's state must have been rebuilt by
				// composition.
				if len(tree.Children(victim)) > 0 && !tree.Node(tree.Children(victim)[0]).IsLeaf() {
					if reps[0].StreamsComposed == 0 {
						t.Error("internal orphans but no stream state composed")
					}
				}
			})
		}
	}
}

// ackWatch wraps a child's end of its parent link and closes absorbed once
// the child's credit layer has taken in a grant acknowledging its first
// upstream packet: the layer absorbs a frame's grants before it asks for
// the next frame. Only the link's one reader calls RecvBatch.
type ackWatch struct {
	transport.Link
	acked, closed bool
	absorbed      chan struct{}
}

func (w *ackWatch) RecvBatch() ([]*packet.Packet, error) {
	if w.acked && !w.closed {
		w.closed = true
		close(w.absorbed)
	}
	ps, err := transport.RecvBatch(w.Link)
	for _, p := range ps {
		if _, ok := packet.CreditGrantValue(p); ok && packet.CreditGrantAck(p) >= 1 {
			w.acked = true
		}
	}
	return ps, err
}

func (w *ackWatch) SendBatch(ps []*packet.Packet) error { return transport.SendBatch(w.Link, ps) }

// TestCompositionRestoresHeldPartialRound pins why reference [2]'s state
// composition is not subsumed by sender replay. On kary:2^3 under
// waitforall, with leaves 9 and 10 gated, rank 1 holds orphan 3's round-0
// eqclass delta alone in a partial round. A run a synchronizer holds is
// retired and acknowledged at once, so the delta has left rank 3's replay
// ring; once rank 1 dies, only rank 3's composed filter state still has
// it, and Manager.Recover must bring it to the root.
func TestCompositionRestoresHeldPartialRound(t *testing.T) {
	reg := filter.NewRegistry()
	eqclass.Register(reg)
	tree := mustTree(t, "kary:2^3") // 1 -> 3, 4; 3 -> 7, 8; 4 -> 9, 10
	release := make(chan struct{})
	var watch *ackWatch
	nw, err := core.NewNetwork(core.Config{
		Topology: tree,
		Registry: reg,
		WrapFabric: func(eps []*transport.Endpoint) {
			watch = &ackWatch{Link: eps[3].Parent, absorbed: make(chan struct{})}
			eps[3].Parent = watch
		},
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
				if r := be.Rank(); r == 9 || r == 10 {
					<-release
				}
				s := eqclass.NewSet()
				s.Add(fmt.Sprintf("k%d", be.Rank()), round)
				rp, err := s.ToPacket(p.Tag, p.StreamID, be.Rank())
				if err != nil {
					return err
				}
				_ = be.SendPacket(rp)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	defer close(release)
	mgr, err := New(nw, Config{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	st, err := nw.NewStream(core.StreamSpec{Transformation: eqclass.FilterName, Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, "%d", int64(0)); err != nil {
		t.Fatal(err)
	}
	// Rank 1 acknowledges a run only once its pipeline is done with it,
	// and waitforall keeps rank 3's delta waiting for rank 4's.
	select {
	case <-watch.absorbed:
	case <-time.After(5 * time.Second):
		t.Fatal("rank 1 never acknowledged orphan 3's round-0 delta")
	}

	if err := nw.Kill(1); err != nil {
		t.Fatal(err)
	}
	rep, err := mgr.Recover(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StreamsComposed == 0 {
		t.Error("no stream state composed from orphan 3's snapshot")
	}
	got := eqclass.NewSet()
	held := func() bool {
		return slices.Contains(got.Members("k7"), 0) && slices.Contains(got.Members("k8"), 0)
	}
	for deadline := time.Now().Add(5 * time.Second); !held(); {
		p, err := st.RecvTimeout(time.Until(deadline))
		if err != nil {
			t.Fatalf("root holds %q; rank 3's held delta k7=0,k8=0 never arrived: %v", setFingerprint(got), err)
		}
		if s, err := eqclass.FromPacket(p); err == nil {
			got.Merge(s)
		}
	}
	t.Logf("root holds %q; packets replayed %d", setFingerprint(got), nw.Metrics().PacketsReplayed.Load())
}

// TestManagerRestart: a stopped manager can be started again (regression:
// the stop/done channels used to be single-use).
func TestManagerRestart(t *testing.T) {
	nw := sumEcho(t, "kary:2^2", 10*time.Millisecond)
	defer nw.Shutdown()
	mgr, err := New(nw, Config{Timeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := mgr.Start(); err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
		mgr.Stop()
	}
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	if err := nw.Kill(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for len(mgr.Reports()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("restarted manager never recovered the failure")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestManagerSimultaneousCascade: every root child (and one deeper node)
// dies at once. The front-end must stay up with zero live children, adopt
// the orphans shallowest-first as the detector declares them, and end up
// serving all back-ends again.
func TestManagerSimultaneousCascade(t *testing.T) {
	nw := sumEcho(t, "kary:2^2", 10*time.Millisecond) // 0; 1,2; leaves 3..6
	defer nw.Shutdown()
	mgr, err := New(nw, Config{Timeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()

	if err := nw.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := nw.Kill(2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for len(mgr.Reports()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 2 failures recovered", len(mgr.Reports()))
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, err := nw.NewStream(core.StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
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
	if v, _ := p.Float(0); v != 18 { // all four back-ends survived
		t.Errorf("post-cascade sum = %g, want 18", v)
	}
}

// liveBackEnds lists the back-ends still in the live tree: Tree()'s leaves
// minus the dead ranks it keeps in place.
func liveBackEnds(nw *core.Network) []core.Rank {
	var out []core.Rank
	for _, r := range nw.Tree().Leaves() {
		if nw.LiveParent(r) != topology.NoRank {
			out = append(out, r)
		}
	}
	return out
}

// recoverAfterMutation starts the detector on kary:2^3 (0; 1,2; 3..6;
// leaves 7..14), reshapes the live tree with mutate, kills the rank mutate
// returns, and requires the detector to recover it by reference [2]'s
// rule, checked against the live engine: every orphan's live parent is the
// adopter, and the live back-ends are the previous set minus a killed leaf.
func recoverAfterMutation(t *testing.T, kind core.TransportKind, mutate func(*core.Network) (core.Rank, error)) {
	t.Helper()
	nw := sumEchoOn(t, "kary:2^3", 10*time.Millisecond, kind)
	defer nw.Shutdown()
	mgr, err := New(nw, Config{Timeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()

	victim, err := mutate(nw)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.DeleteFunc(liveBackEnds(nw), func(r core.Rank) bool { return r == victim })
	if err := nw.Kill(victim); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !slices.ContainsFunc(mgr.Reports(), func(r Report) bool { return r.Failed == victim }) {
		if time.Now().After(deadline) {
			t.Fatalf("rank %d never recovered: reports %+v, engine recoveries %d",
				victim, mgr.Reports(), nw.Metrics().RecoveriesCompleted.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	reps := mgr.Reports()
	if len(reps) != 1 {
		t.Errorf("reports = %+v, want only the recovery of %d", reps, victim)
	}
	for _, rep := range reps {
		for _, o := range rep.Orphans {
			if p := nw.LiveParent(o); p != rep.NewParent {
				t.Errorf("orphan %d of %d has live parent %d, want %d", o, rep.Failed, p, rep.NewParent)
			}
		}
	}
	if got := liveBackEnds(nw); !slices.Equal(got, want) {
		t.Errorf("live back-ends = %v, want %v", got, want)
	}
}

// TestManagerRecoversDeeperKillAfterMerge: a rank merged away is gone from
// the live tree, so the detector never judges it again and a deeper
// failure after the merge is still reached.
func TestManagerRecoversDeeperKillAfterMerge(t *testing.T) {
	for name, kind := range fabrics {
		t.Run(name, func(t *testing.T) {
			recoverAfterMutation(t, kind, func(nw *core.Network) (core.Rank, error) {
				_, err := nw.MergeNode(1, nil)
				return 5, err
			})
		})
	}
}

// TestManagerRecoversKilledSplitSibling: a sibling spawned by a split is
// watched like every other router.
func TestManagerRecoversKilledSplitSibling(t *testing.T) {
	for name, kind := range fabrics {
		t.Run(name, func(t *testing.T) {
			recoverAfterMutation(t, kind, func(nw *core.Network) (core.Rank, error) {
				return nw.SplitNode(1)
			})
		})
	}
}

// TestManagerRecoversKilledAttachedBackEnd: a back-end attached at runtime
// is watched, under LeafTimeout, like every other back-end.
func TestManagerRecoversKilledAttachedBackEnd(t *testing.T) {
	for name, kind := range fabrics {
		t.Run(name, func(t *testing.T) {
			recoverAfterMutation(t, kind, func(nw *core.Network) (core.Rank, error) {
				return nw.AttachBackEnd(3)
			})
		})
	}
}
