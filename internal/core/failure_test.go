package core

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/transport"
)

// TestFilterErrorsAreContained injects a transformation that fails on
// every batch: the network must survive, count the errors, and keep other
// streams working.
func TestFilterErrorsAreContained(t *testing.T) {
	reg := filter.NewRegistry()
	reg.RegisterTransformation("explode", func() filter.Transformation {
		return filter.TransformFunc(func([]*packet.Packet, filter.Emitter) error {
			return errors.New("kaboom")
		})
	})
	tree := mustTree(t, "kary:2^2")
	nw, err := NewNetwork(Config{
		Topology: tree,
		Registry: reg,
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

	bad, err := nw.NewStream(StreamSpec{Transformation: "explode", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.RecvTimeout(300 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("exploding stream delivered: %v", err)
	}
	if nw.Metrics().FilterErrors.Load() == 0 {
		t.Error("FilterErrors not counted")
	}

	// A healthy stream on the same damaged network still works.
	good, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	p, err := good.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Float(0); v != 4 {
		t.Errorf("healthy stream sum = %g, want 4", v)
	}
}

// TestBackEndCrashMidStream: a back-end handler returning early (a crash)
// must not wedge shutdown or the other members' streams under the timeout
// policy.
func TestBackEndCrashMidStream(t *testing.T) {
	reg := filter.NewRegistry()
	reg.RegisterSynchronizer("timeout", func() filter.Synchronizer {
		return filter.NewTimeOut(50 * time.Millisecond)
	})
	tree := mustTree(t, "kary:2^2")
	nw, err := NewNetwork(Config{
		Topology: tree,
		Registry: reg,
		OnBackEnd: func(be *BackEnd) error {
			if be.Rank() == 3 {
				return nil // crashes immediately
			}
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
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "timeout"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	p, err := st.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Float(0); v != 3 {
		t.Errorf("partial sum = %g, want 3 (crashed member missing)", v)
	}
}

// TestConcurrentStreamsStress drives many overlapping streams with
// concurrent multicasters; every stream must see its own correct results.
func TestConcurrentStreamsStress(t *testing.T) {
	tree := mustTree(t, "kary:4^2")
	nw := echoValue(t, tree, ChanTransport)
	defer nw.Shutdown()
	const streams = 8
	const rounds = 25
	var want float64
	for _, l := range tree.Leaves() {
		want += float64(l)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, streams)
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
			if err != nil {
				errCh <- err
				return
			}
			for r := 0; r < rounds; r++ {
				if err := st.Multicast(tagQuery, ""); err != nil {
					errCh <- fmt.Errorf("stream %d round %d: %w", s, r, err)
					return
				}
				p, err := st.RecvTimeout(30 * time.Second)
				if err != nil {
					errCh <- fmt.Errorf("stream %d round %d: %w", s, r, err)
					return
				}
				if v, _ := p.Float(0); v != want {
					errCh <- fmt.Errorf("stream %d round %d: sum %g, want %g", s, r, v, want)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestStreamFIFOOrder: per-stream results arrive in request order under
// waitforall (FIFO channels + one batch per round).
func TestStreamFIFOOrder(t *testing.T) {
	tree := mustTree(t, "kary:2^2")
	nw, err := NewNetwork(Config{
		Topology: tree,
		OnBackEnd: func(be *BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				v, _ := p.Int(0)
				if err := be.Send(p.StreamID, p.Tag, "%d", v); err != nil {
					return nil
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "max", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 50
	for r := 0; r < rounds; r++ {
		if err := st.Multicast(tagQuery, "%d", int64(r)); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		p, err := st.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if v, _ := p.Int(0); v != int64(r) {
			t.Fatalf("round %d delivered %d: FIFO order violated", r, v)
		}
	}
}

// recoverableEcho builds a chan-fabric network with heartbeats whose back-ends answer every multicast with their rank as a
// float.
func recoverableEcho(t *testing.T, spec string, hb time.Duration) *Network {
	t.Helper()
	return recoverableEchoOn(t, spec, hb, ChanTransport)
}

// recoverableEchoOn is recoverableEcho on an explicit link fabric.
func recoverableEchoOn(t *testing.T, spec string, hb time.Duration, kind TransportKind) *Network {
	t.Helper()
	tree := mustTree(t, spec)
	nw, err := NewNetwork(Config{
		Topology:        tree,
		Transport:       kind,
		HeartbeatPeriod: hb,
		OnBackEnd: func(be *BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				// Ignore transient send failures: an orphaned back-end's
				// sends fail until a grandparent adopts it.
				_ = be.Send(p.StreamID, p.Tag, "%f", float64(be.Rank()))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestKillThenAdoptKeepsStreamWorking is the core-level recovery check: a
// communication process crashes between rounds, the grandparent adopts its
// orphans, and the SAME stream keeps producing the full-membership answer.
func TestKillThenAdoptKeepsStreamWorking(t *testing.T) {
	nw := recoverableEcho(t, "kary:2^2", 0) // 0; 1,2; leaves 3..6
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	round := func(want float64) {
		t.Helper()
		if err := st.Multicast(tagQuery, ""); err != nil {
			t.Fatal(err)
		}
		p, err := st.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := p.Float(0); v != want {
			t.Errorf("sum = %g, want %g", v, want)
		}
	}
	round(18) // 3+4+5+6 while healthy

	if err := nw.Kill(1); err != nil {
		t.Fatal(err)
	}
	ad, err := nw.Adopt(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ad.NewParent != 0 {
		t.Errorf("NewParent = %d, want 0", ad.NewParent)
	}
	if len(ad.Orphans) != 2 || ad.Orphans[0] != 3 || ad.Orphans[1] != 4 {
		t.Errorf("Orphans = %v, want [3 4]", ad.Orphans)
	}

	// The stream established before the failure still reaches every leaf:
	// no data source was lost, only the intermediate level.
	for i := 0; i < 3; i++ {
		round(18)
	}
	m := nw.Metrics()
	if m.NodesFailed.Load() != 1 || m.RecoveriesCompleted.Load() != 1 || m.OrphansAdopted.Load() != 2 {
		t.Errorf("recovery metrics = failed %d, recovered %d, orphans %d",
			m.NodesFailed.Load(), m.RecoveriesCompleted.Load(), m.OrphansAdopted.Load())
	}

	// New streams exclude nothing either — all back-ends survived.
	st2, err := nw.NewStream(StreamSpec{Transformation: "count", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	p, err := st2.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Int(0); v != 4 {
		t.Errorf("post-recovery count = %d, want 4", v)
	}
}

// TestKillBackEndThenAdoptRemovesLeaf: a crashed back-end is a leaf
// failure — recovery marks it dead, rebuilds the parent's synchronization
// so waiting streams are not wedged, and new streams exclude it.
func TestKillBackEndThenAdoptRemovesLeaf(t *testing.T) {
	nw := recoverableEcho(t, "kary:2^2", 0)
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Kill(6); err != nil {
		t.Fatal(err)
	}
	ad, err := nw.Adopt(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ad.Orphans) != 0 {
		t.Errorf("leaf failure produced orphans: %v", ad.Orphans)
	}
	// The pre-failure stream completes with the survivors under
	// waitforall because the dead slot no longer gates batches.
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	p, err := st.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Float(0); v != 12 { // 3+4+5
		t.Errorf("post-leaf-failure sum = %g, want 12", v)
	}
	// New full-membership streams exclude the dead leaf.
	st2, err := nw.NewStream(StreamSpec{Transformation: "count", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	p, err = st2.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Int(0); v != 3 {
		t.Errorf("count after leaf failure = %d, want 3", v)
	}
	// And naming it explicitly is rejected.
	if _, err := nw.NewStream(StreamSpec{Endpoints: []Rank{6}}); err == nil {
		t.Error("stream over dead back-end: want error")
	}
}

// TestKillDeepChainRecovery exercises adoption at an internal grandparent
// (not the front-end) on a 3-level tree.
func TestKillDeepChainRecovery(t *testing.T) {
	nw := recoverableEcho(t, "kary:2^3", 0) // internals 1,2 then 3..6; leaves 7..14
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, l := range nw.Tree().Leaves() {
		want += float64(l)
	}
	if err := nw.Kill(3); err != nil { // child of 1, parent of leaves 7,8
		t.Fatal(err)
	}
	ad, err := nw.Adopt(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ad.NewParent != 1 {
		t.Errorf("NewParent = %d, want 1", ad.NewParent)
	}
	for i := 0; i < 3; i++ {
		if err := st.Multicast(tagQuery, ""); err != nil {
			t.Fatal(err)
		}
		p, err := st.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := p.Float(0); v != want {
			t.Errorf("round %d: sum = %g, want %g", i, v, want)
		}
	}
}

// TestKillAndAdoptValidation covers the unrecoverable cases.
func TestKillAndAdoptValidation(t *testing.T) {
	nw := recoverableEcho(t, "kary:2^2", 0)
	defer nw.Shutdown()
	if err := nw.Kill(0); err == nil {
		t.Error("kill front-end: want error")
	}
	if err := nw.Kill(99); err == nil {
		t.Error("kill missing rank: want error")
	}
	if _, err := nw.Adopt(0, nil); err == nil {
		t.Error("adopt front-end: want error")
	}
	if _, err := nw.Adopt(99, nil); err == nil {
		t.Error("adopt missing rank: want error")
	}
	if err := nw.Kill(1); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Adopt(1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Adopt(1, nil); !errors.Is(err, ErrNotRecoverable) {
		t.Errorf("double recovery: %v, want ErrNotRecoverable", err)
	}
}

// TestHeartbeatsReachTheirParent: every non-root process's beacon reaches
// its parent within a few periods, and Heartbeats merges the parents'
// records into one view of every rank.
func TestHeartbeatsReachTheirParent(t *testing.T) {
	nw := recoverableEcho(t, "kary:2^2", 5*time.Millisecond)
	defer nw.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for {
		hb := nw.Heartbeats()
		if len(hb) == 6 { // ranks 1..6
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d ranks heartbeating: %v", len(hb), hb)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if nw.Metrics().HeartbeatsSent.Load() == 0 || nw.Metrics().HeartbeatsSeen.Load() == 0 {
		t.Error("heartbeat metrics not counted")
	}
}

// beaconTap records the origin of every beacon that arrives on the link it
// wraps.
type beaconTap struct {
	transport.Link
	mu      *sync.Mutex
	origins map[Rank]bool
}

func (b beaconTap) RecvBatch() ([]*packet.Packet, error) {
	ps, err := transport.RecvBatch(b.Link)
	for _, p := range ps {
		if p.Tag != packet.TagControl {
			continue
		}
		if op, err := ctrlOp(p); err == nil && op == opHeartbeat {
			origin, _ := p.Int(1)
			b.mu.Lock()
			b.origins[Rank(origin)] = true
			b.mu.Unlock()
		}
	}
	return ps, err
}

func (b beaconTap) SendBatch(ps []*packet.Packet) error { return transport.SendBatch(b.Link, ps) }

func (b beaconTap) BatchCopies() bool { return transport.BatchCopies(b.Link) }

// TestRootHearsOnlyItsChildren: a beacon goes one hop, to its sender's
// parent. Over several periods the beacons arriving on the root's links
// come from exactly the root's live children — not from every rank, which
// would make the front-end's load grow with N — while Heartbeats still
// covers every non-root rank through the parents' records.
func TestRootHearsOnlyItsChildren(t *testing.T) {
	const hb = 5 * time.Millisecond
	for _, tc := range []struct {
		name string
		kind TransportKind
	}{
		{"chan", ChanTransport},
		{"tcp", TCPTransport},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree := mustTree(t, "kary:2^3")
			var mu sync.Mutex
			origins := map[Rank]bool{}
			nw, err := NewNetwork(Config{
				Topology:        tree,
				Transport:       tc.kind,
				HeartbeatPeriod: hb,
				WrapFabric: func(eps []*transport.Endpoint) {
					for i, c := range eps[0].Children {
						eps[0].Children[i] = beaconTap{Link: c, mu: &mu, origins: origins}
					}
				},
				OnBackEnd: func(be *BackEnd) error {
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
			eventually(t, "every non-root rank is in Heartbeats", func() bool {
				return len(nw.Heartbeats()) == tree.Len()-1
			})
			time.Sleep(10 * hb)

			want := map[Rank]bool{}
			for _, c := range nw.LiveChildren(0) {
				want[c] = true
			}
			mu.Lock()
			got := maps.Clone(origins)
			mu.Unlock()
			if !maps.Equal(got, want) {
				t.Errorf("the root heard beacons from %v, want exactly its children %v", got, want)
			}
			hbs := nw.Heartbeats()
			for r := 1; r < tree.Len(); r++ {
				if _, ok := hbs[Rank(r)]; !ok {
					t.Errorf("rank %d missing from Heartbeats", r)
				}
			}
		})
	}
}

// TestShutdownCountsDeadLinkSends: after a root child crashes, Shutdown's
// announcement to it fails and the failure is counted (dead links must be
// observable) — and the crashed child's subtree, orphaned and never
// adopted, is released by the teardown instead of wedging it.
func TestShutdownCountsDeadLinkSends(t *testing.T) {
	tree := mustTree(t, "kary:2^2")
	nw := echoValue(t, tree, ChanTransport)
	if err := nw.Kill(1); err != nil {
		t.Fatal(err)
	}
	// Give the subtree a moment to observe the crash and orphan itself.
	time.Sleep(50 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- nw.Shutdown() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not release the un-adopted orphans")
	}
	if nw.Metrics().ShutdownSendFailures.Load() == 0 {
		t.Error("shutdown send to dead link not counted")
	}
}

// TestRecvAfterCloseDrains: packets already delivered to the stream buffer
// remain readable after Close.
func TestRecvAfterCloseDrains(t *testing.T) {
	tree := mustTree(t, "flat:2")
	nw := echoValue(t, tree, ChanTransport)
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	// Wait until the result is buffered, then close.
	p, err := st.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Float(0); v != 3 {
		t.Errorf("sum = %g", v)
	}
	st.Close()
}

// TestAdoptWithTinyLinkBuffers: adoption must not deadlock when the link
// buffer is smaller than the number of streams being re-announced
// (regression: announce sends used to target links with no reader yet).
func TestAdoptWithTinyLinkBuffers(t *testing.T) {
	tree := mustTree(t, "kary:2^2")
	nw, err := NewNetwork(Config{
		Topology: tree,
		ChanBuf:  1,
		OnBackEnd: func(be *BackEnd) error {
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
	var streams []*Stream
	for i := 0; i < 6; i++ {
		st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	// Noise traffic keeps data in flight through the front-end while the
	// adoption runs, so both directions of the fresh links see load.
	noise, err := nw.NewStream(StreamSpec{Synchronization: "nullsync"})
	if err != nil {
		t.Fatal(err)
	}
	stopNoise := make(chan struct{})
	noiseDone := make(chan struct{})
	go func() {
		defer close(noiseDone)
		for {
			select {
			case <-stopNoise:
				return
			default:
				_ = noise.Multicast(tagQuery, "")
				noise.RecvTimeout(time.Millisecond)
			}
		}
	}()

	if err := nw.Kill(1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := nw.Adopt(1, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Adopt deadlocked with ChanBuf=1")
	}
	close(stopNoise)
	<-noiseDone
	// Drain noise results so they cannot be confused with the checks below.
	for {
		if _, err := noise.RecvTimeout(50 * time.Millisecond); err != nil {
			break
		}
	}
	for i, st := range streams {
		if err := st.Multicast(tagQuery, ""); err != nil {
			t.Fatal(err)
		}
		p, err := st.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		if v, _ := p.Float(0); v != 18 {
			t.Errorf("stream %d: sum = %g, want 18", i, v)
		}
	}
}

// TestAttachToCrashedParentFails: attaching under a killed (not yet
// recovered) parent must error, not hang, and the stillborn leaf must
// never join stream membership.
func TestAttachToCrashedParentFails(t *testing.T) {
	nw := recoverableEcho(t, "kary:2^2", 0)
	defer nw.Shutdown()
	if err := nw.Kill(1); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AttachBackEnd(1); err == nil {
		t.Fatal("attach to crashed parent: want error")
	}
	if _, err := nw.Adopt(1, nil); err != nil {
		t.Fatal(err)
	}
	st, err := nw.NewStream(StreamSpec{Transformation: "count", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	p, err := st.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Int(0); v != 4 {
		t.Errorf("count = %d, want 4 (stillborn leaf excluded)", v)
	}
}

// TestFalsePositiveAdoptFencesAliveNode: recovering a node that is alive
// but silent (a false-positive detection) must still converge — the node
// is fenced off, its back-end children are forced onto the grandparent,
// and no leaf is lost.
func TestFalsePositiveAdoptFencesAliveNode(t *testing.T) {
	nw := recoverableEcho(t, "kary:2^2", 0)
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	round := func(want float64) {
		t.Helper()
		if err := st.Multicast(tagQuery, ""); err != nil {
			t.Fatal(err)
		}
		p, err := st.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := p.Float(0); v != want {
			t.Errorf("sum = %g, want %g", v, want)
		}
	}
	round(18)
	// No Kill: rank 1 is healthy, yet declared failed.
	ad, err := nw.Adopt(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ad.Orphans) != 2 {
		t.Fatalf("orphans = %v", ad.Orphans)
	}
	for i := 0; i < 3; i++ {
		round(18) // all four leaves still reachable, fenced node excluded
	}
}

// TestAdoptReleasesWedgedRound: replies queued behind a dead child's
// waitforall slot must be released when recovery removes the slot —
// the in-flight round completes with the survivors instead of wedging.
func TestAdoptReleasesWedgedRound(t *testing.T) {
	nw := recoverableEcho(t, "kary:2^2", 0)
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Kill(6); err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	// The survivors' replies queue behind the dead slot: nothing is
	// deliverable until recovery rebuilds the synchronization.
	if p, err := st.RecvTimeout(300 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("round completed before recovery: %v, %v", p, err)
	}
	if _, err := nw.Adopt(6, nil); err != nil {
		t.Fatal(err)
	}
	p, err := st.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatalf("in-flight round still wedged after recovery: %v", err)
	}
	if v, _ := p.Float(0); v != 12 { // 3+4+5
		t.Errorf("released round sum = %g, want 12", v)
	}
}

// TestHeldPartialRoundSurvivesKill: a partial round the victim's
// synchronizer holds must survive the victim. With leaf 4 gated, rank 1
// holds leaf 3's reply alone and has already acknowledged it, so it has
// left leaf 3's replay ring; sum has no state to compose, so once rank 1
// dies no source holds that reply and the root's round waits for it
// forever.
func TestHeldPartialRoundSurvivesKill(t *testing.T) {
	t.Skip("a held partial round of a stateless filter is lost with its holder; ROADMAP item 3's protocol work un-skips this")
	tree := mustTree(t, "kary:2^2")
	release := make(chan struct{})
	defer close(release)
	nw, err := NewNetwork(Config{
		Topology: tree,
		OnBackEnd: func(be *BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				if be.Rank() == 4 {
					<-release
				}
				_ = be.Send(p.StreamID, p.Tag, "%f", float64(be.Rank()))
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
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	nw.mu.Lock()
	leaf3 := nw.bes[3].eg
	nw.mu.Unlock()
	eventually(t, "rank 1 holds and acknowledges leaf 3's reply", func() bool {
		leaf3.mu.Lock()
		defer leaf3.mu.Unlock()
		return leaf3.ringAcked == 1
	})

	if err := nw.Kill(1); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Adopt(1, nil); err != nil {
		t.Fatal(err)
	}
	release <- struct{}{}
	p, err := st.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatalf("the round rank 1 held never completed: %v", err)
	}
	if v, _ := p.Float(0); v != 18 {
		t.Errorf("sum = %g, want 18", v)
	}
}
