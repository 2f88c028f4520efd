package core

import (
	"errors"
	"testing"
	"time"
)

// TestSplitNodeRedistributesChildren is the core split check: a saturated
// internal process gains a sibling, half its children migrate, and both a
// pre-split stream and a fresh one keep producing full-membership answers.
func TestSplitNodeRedistributesChildren(t *testing.T) {
	nw := recoverableEcho(t, "kary:4^2", 0) // internals 1..4; leaves 5..20
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, l := range nw.Tree().Leaves() {
		want += float64(l)
	}
	round := func(s *Stream) {
		t.Helper()
		if err := s.Multicast(tagQuery, ""); err != nil {
			t.Fatal(err)
		}
		p, err := s.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := p.Float(0); v != want {
			t.Errorf("sum = %g, want %g", v, want)
		}
	}
	round(st)

	q, err := nw.SplitNode(1) // children 5,6,7,8
	if err != nil {
		t.Fatal(err)
	}
	if q != 21 {
		t.Errorf("sibling rank = %d, want 21", q)
	}
	if got := nw.LiveParent(q); got != 0 {
		t.Errorf("LiveParent(%d) = %d, want 0", q, got)
	}
	if kids := nw.LiveChildren(1); len(kids) != 2 || kids[0] != 5 || kids[1] != 6 {
		t.Errorf("donor children = %v, want [5 6]", kids)
	}
	if kids := nw.LiveChildren(q); len(kids) != 2 || kids[0] != 7 || kids[1] != 8 {
		t.Errorf("sibling children = %v, want [7 8]", kids)
	}
	for _, c := range []Rank{7, 8} {
		if got := nw.LiveParent(c); got != q {
			t.Errorf("LiveParent(%d) = %d, want %d", c, got, q)
		}
	}
	live := nw.LiveInternal()
	if len(live) != 5 || live[4] != q {
		t.Errorf("LiveInternal = %v, want [1 2 3 4 %d]", live, q)
	}

	// The pre-split stream still reaches every leaf through the new shape.
	for i := 0; i < 3; i++ {
		round(st)
	}
	// So does a stream created after the split.
	st2, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	round(st2)

	m := nw.Metrics()
	if m.NodesSplit.Load() != 1 || m.TopologyMutations.Load() != 1 {
		t.Errorf("mutation metrics = split %d, total %d; want 1, 1",
			m.NodesSplit.Load(), m.TopologyMutations.Load())
	}
	if m.NodesFailed.Load() != 0 {
		t.Errorf("split counted %d failures; want 0", m.NodesFailed.Load())
	}
}

// TestSplitNodeRepeatedly: a donor can split more than once, and a split
// sibling can itself split — capacity scales 1 -> 2 -> 3 routers.
func TestSplitNodeRepeatedly(t *testing.T) {
	nw := recoverableEcho(t, "kary:4^2", 0)
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "count", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	q1, err := nw.SplitNode(1)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := nw.SplitNode(q1) // the sibling (2 children) splits again
	if err != nil {
		t.Fatal(err)
	}
	if nw.LiveParent(q2) != 0 {
		t.Errorf("LiveParent(%d) = %d, want 0", q2, nw.LiveParent(q2))
	}
	if n := len(nw.LiveChildren(1)) + len(nw.LiveChildren(q1)) + len(nw.LiveChildren(q2)); n != 4 {
		t.Errorf("children across donor+siblings = %d, want 4", n)
	}
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	p, err := st.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Int(0); v != 16 {
		t.Errorf("count = %d, want 16", v)
	}
	if got := nw.Metrics().NodesSplit.Load(); got != 2 {
		t.Errorf("NodesSplit = %d, want 2", got)
	}
}

// TestSplitNodeValidation covers the unsplittable cases.
func TestSplitNodeValidation(t *testing.T) {
	nw := recoverableEcho(t, "kary:2^2", 0)
	defer nw.Shutdown()
	if _, err := nw.SplitNode(0); !errors.Is(err, ErrNotMutable) {
		t.Errorf("split front-end: %v, want ErrNotMutable", err)
	}
	if _, err := nw.SplitNode(3); !errors.Is(err, ErrNotMutable) {
		t.Errorf("split back-end: %v, want ErrNotMutable", err)
	}
	if _, err := nw.SplitNode(99); !errors.Is(err, ErrNotMutable) {
		t.Errorf("split missing rank: %v, want ErrNotMutable", err)
	}
	// Too few live children: kill one of rank 1's two leaves.
	if err := nw.Kill(3); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Adopt(3, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.SplitNode(1); !errors.Is(err, ErrNotMutable) {
		t.Errorf("split with one live child: %v, want ErrNotMutable", err)
	}
	// Dead rank.
	if err := nw.Kill(2); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.SplitNode(2); !errors.Is(err, ErrNotMutable) {
		t.Errorf("split dead rank: %v, want ErrNotMutable", err)
	}

}

// TestBareConfigRecoversAndMutates: recovery is the engine, not a mode —
// Adopt, SplitNode and MergeNode all work on a bare Config{Topology,
// OnBackEnd}, and the same stream keeps answering in full across them.
func TestBareConfigRecoversAndMutates(t *testing.T) {
	nw := echoValue(t, mustTree(t, "kary:2^2"), ChanTransport) // 0; 1,2; leaves 3..6
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	sumRound(t, st, 18)
	q, err := nw.SplitNode(1)
	if err != nil {
		t.Fatalf("SplitNode on a bare config: %v", err)
	}
	sumRound(t, st, 18)
	if _, err := nw.MergeNode(q, nil); err != nil {
		t.Fatalf("MergeNode on a bare config: %v", err)
	}
	sumRound(t, st, 18)
	if err := nw.Kill(2); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Adopt(2, nil); err != nil {
		t.Fatalf("Adopt on a bare config: %v", err)
	}
	sumRound(t, st, 18)
}

// TestMergeNodeShortensPath: a cold internal process is removed, its
// children fold into its parent, and streams keep answering in full.
func TestMergeNodeShortensPath(t *testing.T) {
	nw := recoverableEcho(t, "kary:2^2", 0)
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	ad, err := nw.MergeNode(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ad.NewParent != 0 || len(ad.Orphans) != 2 {
		t.Errorf("merge adoption = parent %d, orphans %v", ad.NewParent, ad.Orphans)
	}
	for _, c := range []Rank{5, 6} {
		if got := nw.LiveParent(c); got != 0 {
			t.Errorf("LiveParent(%d) = %d, want 0", c, got)
		}
	}
	if live := nw.LiveInternal(); len(live) != 1 || live[0] != 1 {
		t.Errorf("LiveInternal = %v, want [1]", live)
	}
	for i := 0; i < 3; i++ {
		if err := st.Multicast(tagQuery, ""); err != nil {
			t.Fatal(err)
		}
		p, err := st.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := p.Float(0); v != 18 {
			t.Errorf("post-merge sum = %g, want 18", v)
		}
	}
	m := nw.Metrics()
	if m.NodesMerged.Load() != 1 || m.TopologyMutations.Load() != 1 {
		t.Errorf("mutation metrics = merged %d, total %d; want 1, 1",
			m.NodesMerged.Load(), m.TopologyMutations.Load())
	}
	// Merging the last internal process is refused — the aggregation path
	// must keep at least the front-end... the sole survivor CAN merge
	// (flattening to depth 1); policy lives in the controller. But merging
	// a dead or unknown rank is refused here.
	if _, err := nw.MergeNode(2, nil); !errors.Is(err, ErrNotMutable) {
		t.Errorf("double merge: %v, want ErrNotMutable", err)
	}
	if _, err := nw.MergeNode(5, nil); !errors.Is(err, ErrNotMutable) {
		t.Errorf("merge back-end: %v, want ErrNotMutable", err)
	}
}

// TestSplitThenKillDonorConverges: the mutation-vs-failure interleaving —
// kill the donor right after a split; recovery must still fold its
// remaining children into the parent and every leaf stays reachable.
func TestSplitThenKillDonorConverges(t *testing.T) {
	nw := recoverableEcho(t, "kary:4^2", 0)
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, l := range nw.Tree().Leaves() {
		want += float64(l)
	}
	if _, err := nw.SplitNode(1); err != nil {
		t.Fatal(err)
	}
	if err := nw.Kill(1); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Adopt(1, nil); err != nil {
		t.Fatal(err)
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
