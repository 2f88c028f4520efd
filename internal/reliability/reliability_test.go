package reliability

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/eqclass"
	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/topology"
)

// packetAlias keeps the eqclass feeding helpers readable.
type packetAlias = packet.Packet

// eqclassPacket wraps a class-set packet built by the test helpers.
type eqclassPacket struct{ p *packet.Packet }

// The topology rule of reference [2] lives in the engine (core.Network.Adopt);
// the tests below check the engine against the rule. adoptChecked kills
// failed, has the engine adopt its orphans, and asserts the rule: the failed
// rank's parent adopts exactly its live children, and no back-end but the
// failed one is lost.
func adoptChecked(t *testing.T, nw *core.Network, failed core.Rank) *core.Adoption {
	t.Helper()
	parent, kids, before := nw.LiveParent(failed), nw.LiveChildren(failed), liveBackEnds(nw)
	if err := nw.Kill(failed); err != nil {
		t.Fatal(err)
	}
	ad, err := nw.Adopt(failed, nil)
	if err != nil {
		t.Fatalf("adopt %d: %v", failed, err)
	}
	if ad.NewParent != parent || !slices.Equal(ad.Orphans, kids) {
		t.Errorf("adoption of %d: parent %d, orphans %v; want %d, %v", failed, ad.NewParent, ad.Orphans, parent, kids)
	}
	for _, o := range ad.Orphans {
		if p := nw.LiveParent(o); p != parent {
			t.Errorf("orphan %d has live parent %d, want %d", o, p, parent)
		}
	}
	want := slices.DeleteFunc(before, func(r core.Rank) bool { return r == failed })
	if got := liveBackEnds(nw); !slices.Equal(got, want) {
		t.Errorf("live back-ends after losing %d = %v, want %v", failed, got, want)
	}
	return ad
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

// liveNet starts an overlay on tree whose back-ends answer every multicast
// with their rank.
func liveNet(t *testing.T, tree *topology.Tree) *core.Network {
	t.Helper()
	nw, err := core.NewNetwork(core.Config{
		Topology: tree,
		OnBackEnd: func(be *core.BackEnd) error {
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
	t.Cleanup(func() { _ = nw.Shutdown() })
	return nw
}

func TestRecoverInternalNode(t *testing.T) {
	tree, err := topology.ParseSpec("kary:2^2") // 0; 1,2; 3,4,5,6
	if err != nil {
		t.Fatal(err)
	}
	ad := adoptChecked(t, liveNet(t, tree), 1)
	if ad.NewParent != 0 || !slices.Equal(ad.Orphans, []core.Rank{3, 4}) {
		t.Errorf("adoption = parent %d, orphans %v; want 0, [3 4]", ad.NewParent, ad.Orphans)
	}
}

func TestRecoverLeaf(t *testing.T) {
	tree, _ := topology.ParseSpec("kary:2^2")
	nw := liveNet(t, tree)
	if ad := adoptChecked(t, nw, 5); len(ad.Orphans) != 0 {
		t.Errorf("leaf failure has orphans: %v", ad.Orphans)
	}
	if got := len(liveBackEnds(nw)); got != 3 {
		t.Errorf("back-ends after leaf failure = %d, want 3", got)
	}
}

func TestRecoverErrors(t *testing.T) {
	tree, _ := topology.ParseSpec("kary:2^2")
	nw := liveNet(t, tree)
	if _, err := nw.Adopt(0, nil); !errors.Is(err, core.ErrNotRecoverable) {
		t.Errorf("front-end failure: %v", err)
	}
	if _, err := nw.Adopt(99, nil); !errors.Is(err, core.ErrNotRecoverable) {
		t.Errorf("unknown rank: %v", err)
	}
}

func TestRecoverChain(t *testing.T) {
	// Two successive failures keep the tree whole and every leaf attached.
	tree, _ := topology.ParseSpec("kary:2^3") // 15 nodes
	nw := liveNet(t, tree)
	adoptChecked(t, nw, 2)
	adoptChecked(t, nw, nw.LiveInternal()[0])
	if got := len(liveBackEnds(nw)); got != 8 {
		t.Errorf("back-ends after two failures = %d, want 8", got)
	}
}

func TestComposeStatesEqClass(t *testing.T) {
	// Build the lost parent's state two ways: directly (the state it had
	// before dying) and by composition of its children's states. They must
	// match exactly.
	mkPkt := func(key string, member int64) *eqclassPacket {
		s := eqclass.NewSet()
		s.Add(key, member)
		p, err := s.ToPacket(100, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		return &eqclassPacket{p: p}
	}

	parent := eqclass.NewFilter()
	childA := eqclass.NewFilter()
	childB := eqclass.NewFilter()
	feed := func(f *eqclass.Filter, pkts ...*eqclassPacket) {
		t.Helper()
		for _, ep := range pkts {
			out, err := filter.Collect(f, []*packetAlias{ep.p})
			if err != nil {
				t.Fatal(err)
			}
			// What the child forwards, the parent consumes.
			if out != nil {
				if _, err := filter.Collect(parent, out); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	feed(childA, mkPkt("linux", 1), mkPkt("linux", 2))
	feed(childB, mkPkt("aix", 3), mkPkt("linux", 1)) // overlap across children

	wantState, err := parent.State()
	if err != nil {
		t.Fatal(err)
	}
	sa, _ := childA.State()
	sb, _ := childB.State()
	got, err := ComposeStates(func() filter.StatefulTransformation {
		return eqclass.NewFilter()
	}, [][]byte{sa, sb})
	if err != nil {
		t.Fatal(err)
	}
	// Compare semantically: both states must suppress the same pairs.
	wantF := eqclass.NewFilter()
	gotF := eqclass.NewFilter()
	if err := wantF.SetState(wantState); err != nil {
		t.Fatal(err)
	}
	if err := gotF.SetState(got); err != nil {
		t.Fatal(err)
	}
	for _, probe := range []*eqclassPacket{mkPkt("linux", 1), mkPkt("linux", 2), mkPkt("aix", 3)} {
		w, err1 := filter.Collect(wantF, []*packetAlias{probe.p})
		g, err2 := filter.Collect(gotF, []*packetAlias{probe.p})
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if (w == nil) != (g == nil) {
			t.Errorf("recovered state disagrees with lost state on %v", probe.p)
		}
	}
	// A genuinely new pair passes both.
	novel := mkPkt("hpux", 9)
	if w, _ := filter.Collect(wantF, []*packetAlias{novel.p}); w == nil {
		t.Error("lost state suppressed novel pair")
	}
	if g, _ := filter.Collect(gotF, []*packetAlias{novel.p}); g == nil {
		t.Error("recovered state suppressed novel pair")
	}
}

func TestComposeStatesSkipsEmptyAndRejectsGarbage(t *testing.T) {
	ctor := func() filter.StatefulTransformation { return eqclass.NewFilter() }
	if _, err := ComposeStates(ctor, [][]byte{nil, {}}); err != nil {
		t.Errorf("empty states: %v", err)
	}
	if _, err := ComposeStates(ctor, [][]byte{{0xde, 0xad}}); err == nil {
		t.Error("garbage state: want error")
	}
}

type nonMerger struct{ filter.Identity }

func (nonMerger) State() ([]byte, error) { return []byte{1}, nil }
func (nonMerger) SetState([]byte) error  { return nil }

func TestComposeStatesRequiresMerger(t *testing.T) {
	ctor := func() filter.StatefulTransformation { return nonMerger{} }
	if _, err := ComposeStates(ctor, [][]byte{{1}}); err == nil {
		t.Error("non-Merger filter: want error")
	}
}

// TestSemanticEquivalenceAfterRecovery is the end-to-end check: the same
// workload produces the same front-end answer before and after a mid-level
// communication process is lost and its orphans adopted. The reduction is a
// sum, whose per-leaf contributions are disjoint, so the answer must be
// identical.
func TestSemanticEquivalenceAfterRecovery(t *testing.T) {
	tree, _ := topology.ParseSpec("kary:3^2")
	nw := liveNet(t, tree)
	st, err := nw.NewStream(core.StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		t.Fatal(err)
	}
	round := func() float64 {
		t.Helper()
		if err := st.Multicast(100, ""); err != nil {
			t.Fatal(err)
		}
		p, err := st.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		v, err := p.Float(0)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	want := round()
	adoptChecked(t, nw, 2)
	if got := round(); got != want {
		t.Errorf("recovered overlay computed %g, original %g", got, want)
	}
}

// Property: the engine's adoption never loses a leaf and always leaves a
// valid tree, for any internal-node failure in any random tree.
func TestQuickRecoveryPreservesLeaves(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		sz := int(szRaw%60) + 5
		parents := make([]core.Rank, sz)
		parents[0] = topology.NoRank
		for i := 1; i < sz; i++ {
			m := (int64(i) + seed) % int64(i) // parent < i
			if m < 0 {
				m += int64(i)
			}
			parents[i] = core.Rank(m)
		}
		tree, err := topology.FromParents(parents)
		if err != nil {
			return false
		}
		internal := tree.InternalNodes()
		if len(internal) == 0 {
			return true
		}
		vi := int(seed % int64(len(internal)))
		if vi < 0 {
			vi += len(internal)
		}
		nw := liveNet(t, tree)
		defer nw.Shutdown()
		adoptChecked(t, nw, internal[vi])
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
