package core

import (
	"errors"
	"testing"
	"time"
)

// Live topology mutation on the TCP fabric: the same recovery semantics
// the chan fabric enjoys, over real sockets (the network mints each new
// connection and hands the orphan its end), plus overlapping-failure
// convergence on both fabrics.

// bothFabrics runs f under a subtest per link substrate.
func bothFabrics(t *testing.T, f func(t *testing.T, kind TransportKind)) {
	for _, kind := range []TransportKind{ChanTransport, TCPTransport} {
		name := "chan"
		if kind == TCPTransport {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) { f(t, kind) })
	}
}

// sumRound multicasts one query and asserts the full reduction.
func sumRound(t *testing.T, st *Stream, want float64) {
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

// TestKillThenAdoptKeepsStreamWorkingTCP mirrors the core chan-fabric
// recovery check on real TCP links: a communication process crashes
// between rounds, the grandparent adopts its orphans over brand-new TCP
// connections, and the SAME stream keeps producing the full-membership
// answer.
func TestKillThenAdoptKeepsStreamWorkingTCP(t *testing.T) {
	nw := recoverableEchoOn(t, "kary:2^2", 0, TCPTransport) // 0; 1,2; leaves 3..6
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	sumRound(t, st, 18) // 3+4+5+6 while healthy

	if err := nw.Kill(1); err != nil {
		t.Fatal(err)
	}
	ad, err := nw.Adopt(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ad.NewParent != 0 || len(ad.Orphans) != 2 {
		t.Errorf("adoption = parent %d, orphans %v", ad.NewParent, ad.Orphans)
	}
	for i := 0; i < 3; i++ {
		sumRound(t, st, 18)
	}
	if nw.Metrics().RewiredLinks.Load() != 2 {
		t.Errorf("RewiredLinks = %d, want 2", nw.Metrics().RewiredLinks.Load())
	}
}

// TestKillDeepChainRecoveryTCP exercises adoption at an internal
// grandparent (not the front-end) on a 3-level tree over TCP, including
// the orphaned-node hand-off path (the orphans are communication
// processes, not back-ends).
func TestKillDeepChainRecoveryTCP(t *testing.T) {
	nw := recoverableEchoOn(t, "kary:2^3", 0, TCPTransport) // internals 1,2 then 3..6; leaves 7..14
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
		sumRound(t, st, want)
	}
}

// adoptUntilDone retries Adopt until the rank is recovered, tolerating
// transient ordering errors ("recover the parent first") by recovering
// the blocking ancestor — the convergence loop a caller without the
// manager's shallowest-first detector needs under overlapping failures.
func adoptUntilDone(t *testing.T, nw *Network, failed Rank) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := nw.Adopt(failed, nil)
		if err == nil {
			return
		}
		if errors.Is(err, ErrNotRecoverable) {
			// Already recovered by an earlier pass, or blocked on an
			// unrecovered ancestor; the caller recovers ancestors first.
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank %d never recovered: %v", failed, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestOverlappingFailureAdopterDiesMidAdoption: the adopting parent is
// killed while its child's adoption is in flight. The adoption either
// completes (then the adopter's own death is recovered next) or rolls
// back cleanly (then shallowest-first recovery redoes it); either way no
// back-end is lost, on both fabrics.
func TestOverlappingFailureAdopterDiesMidAdoption(t *testing.T) {
	bothFabrics(t, func(t *testing.T, kind TransportKind) {
		nw := recoverableEchoOn(t, "kary:2^3", 0, kind) // 0; 1,2; 3..6; leaves 7..14
		defer nw.Shutdown()
		st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		for _, l := range nw.Tree().Leaves() {
			want += float64(l)
		}
		sumRound(t, st, want)

		if err := nw.Kill(3); err != nil { // child of 1
			t.Fatal(err)
		}
		adoptDone := make(chan error, 1)
		go func() {
			_, err := nw.Adopt(3, nil)
			adoptDone <- err
		}()
		// Kill the adopter while the adoption may be mid-handshake.
		if err := nw.Kill(1); err != nil {
			t.Fatal(err)
		}
		firstErr := <-adoptDone

		// Converge: the shallower failure first, then (if the first
		// adoption rolled back) the original victim again.
		adoptUntilDone(t, nw, 1)
		if firstErr != nil {
			adoptUntilDone(t, nw, 3)
		}
		for i := 0; i < 3; i++ {
			sumRound(t, st, want)
		}
	})
}

// TestOverlappingFailureOrphanDiesMidAdoption: one of the orphans being
// re-parented is killed while the adoption is in flight. The adoption
// must not wedge on the dead orphan; the orphan
// is fenced and its own (leaf) recovery removes it from synchronization.
func TestOverlappingFailureOrphanDiesMidAdoption(t *testing.T) {
	bothFabrics(t, func(t *testing.T, kind TransportKind) {
		nw := recoverableEchoOn(t, "kary:2^2", 0, kind) // 0; 1,2; leaves 3..6
		defer nw.Shutdown()
		st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
		if err != nil {
			t.Fatal(err)
		}
		sumRound(t, st, 18)

		if err := nw.Kill(1); err != nil { // orphans 3,4
			t.Fatal(err)
		}
		adoptDone := make(chan error, 1)
		go func() {
			_, err := nw.Adopt(1, nil)
			adoptDone <- err
		}()
		if err := nw.Kill(3); err != nil { // orphan dies mid-adoption
			t.Fatal(err)
		}
		if err := <-adoptDone; err != nil {
			t.Fatalf("adoption wedged on the dead orphan: %v", err)
		}
		// The dead orphan is a leaf failure now; recover it so waitforall
		// stops gating on its slot.
		adoptUntilDone(t, nw, 3)
		for i := 0; i < 3; i++ {
			sumRound(t, st, 15) // 4+5+6
		}
	})
}

// TestFalsePositiveAdoptFencesAliveNodeTCP: recovering an alive-but-
// silent node over TCP must fence it off — the RST on its severed links
// must not take the replacement links down with it.
func TestFalsePositiveAdoptFencesAliveNodeTCP(t *testing.T) {
	nw := recoverableEchoOn(t, "kary:2^2", 0, TCPTransport)
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	sumRound(t, st, 18)
	// No Kill: rank 1 is healthy, yet declared failed.
	ad, err := nw.Adopt(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ad.Orphans) != 2 {
		t.Fatalf("orphans = %v", ad.Orphans)
	}
	for i := 0; i < 3; i++ {
		sumRound(t, st, 18)
	}
}
