package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFlat(t *testing.T) {
	tr, err := Flat(8)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Nodes != 9 || s.Leaves != 8 || s.Internal != 0 || s.Depth != 1 || s.MaxFanOut != 8 {
		t.Errorf("Flat(8) stats = %+v", s)
	}
	if _, err := Flat(0); err == nil {
		t.Error("Flat(0): want error")
	}
}

func TestKAry(t *testing.T) {
	cases := []struct {
		fanout, depth        int
		nodes, leaves, inner int
	}{
		{2, 1, 3, 2, 0},
		{2, 3, 15, 8, 6},
		{16, 2, 273, 256, 16},
		{16, 3, 4369, 4096, 272},
		{3, 2, 13, 9, 3},
	}
	for _, c := range cases {
		tr, err := KAry(c.fanout, c.depth)
		if err != nil {
			t.Fatalf("KAry(%d,%d): %v", c.fanout, c.depth, err)
		}
		s := tr.Stats()
		if s.Nodes != c.nodes || s.Leaves != c.leaves || s.Internal != c.inner {
			t.Errorf("KAry(%d,%d) stats = %+v, want nodes=%d leaves=%d internal=%d",
				c.fanout, c.depth, s, c.nodes, c.leaves, c.inner)
		}
		if s.Depth != c.depth {
			t.Errorf("KAry(%d,%d) depth = %d", c.fanout, c.depth, s.Depth)
		}
		if s.MaxFanOut != c.fanout {
			t.Errorf("KAry(%d,%d) max fan-out = %d", c.fanout, c.depth, s.MaxFanOut)
		}
	}
}

// TestInternalNodeOverhead verifies the paper's §3.2 arithmetic exactly:
// "with a fan-out of 16, 16 (6.25% more) internal nodes are needed to
// connect 256 back-ends, or 272 (6.6%) for 4096 back-ends."  [T-OVERHEAD]
func TestInternalNodeOverhead(t *testing.T) {
	tr, err := KAry(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Leaves != 256 || s.Internal != 16 {
		t.Fatalf("fan-out 16, 256 back-ends: internal = %d, want 16", s.Internal)
	}
	if s.Overhead != 0.0625 {
		t.Errorf("overhead = %v, want 0.0625 (6.25%%)", s.Overhead)
	}
	tr, err = KAry(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	s = tr.Stats()
	if s.Leaves != 4096 || s.Internal != 272 {
		t.Fatalf("fan-out 16, 4096 back-ends: internal = %d, want 272", s.Internal)
	}
	if got := s.Overhead; got < 0.066 || got > 0.0665 {
		t.Errorf("overhead = %v, want ~0.0664 (6.6%%)", got)
	}
}

func TestKNomial(t *testing.T) {
	// Binomial tree of dimension 3: 8 nodes, root has 3 children.
	tr, err := KNomial(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 8 {
		t.Fatalf("KNomial(2,3) has %d nodes, want 8", tr.Len())
	}
	if got := len(tr.Children(0)); got != 3 {
		t.Errorf("binomial dim-3 root has %d children, want 3", got)
	}
	s := tr.Stats()
	if s.Leaves != 4 {
		t.Errorf("binomial dim-3 has %d leaves, want 4", s.Leaves)
	}
	// 3-nomial dimension 2: 9 nodes.
	tr, err = KNomial(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 9 {
		t.Fatalf("KNomial(3,2) has %d nodes, want 9", tr.Len())
	}
}

func TestBalanced(t *testing.T) {
	cases := []struct{ leaves, fanout int }{
		{1, 2}, {2, 2}, {5, 2}, {17, 4}, {324, 18}, {100, 10}, {257, 16},
	}
	for _, c := range cases {
		tr, err := Balanced(c.leaves, c.fanout)
		if err != nil {
			t.Fatalf("Balanced(%d,%d): %v", c.leaves, c.fanout, err)
		}
		s := tr.Stats()
		if s.Leaves != c.leaves {
			t.Errorf("Balanced(%d,%d) has %d leaves", c.leaves, c.fanout, s.Leaves)
		}
		if s.MaxFanOut > c.fanout {
			t.Errorf("Balanced(%d,%d) max fan-out %d exceeds bound", c.leaves, c.fanout, s.MaxFanOut)
		}
		// All leaves at the same level.
		leaves := tr.Leaves()
		lvl := tr.Node(leaves[0]).Level
		for _, l := range leaves {
			if tr.Node(l).Level != lvl {
				t.Errorf("Balanced(%d,%d): leaves at mixed levels", c.leaves, c.fanout)
				break
			}
		}
	}
	if _, err := Balanced(10, 1); err == nil {
		t.Error("Balanced fan-out 1: want error")
	}
}

func TestFromParentsRejectsInvalid(t *testing.T) {
	cases := [][]Rank{
		{},                // empty
		{0},               // root is own parent
		{NoRank, NoRank},  // two roots
		{NoRank, 5},       // out of range
		{NoRank, 2, 1},    // cycle between 1 and 2
		{NoRank, 1},       // self-parent
		{1, 0},            // node 0 not root
		{NoRank, 0, 3, 2}, // cycle 2<->3
	}
	for i, ps := range cases {
		if _, err := FromParents(ps); err == nil {
			t.Errorf("case %d (%v): want error", i, ps)
		}
	}
}

func TestPathToRootAndSubtreeLeaves(t *testing.T) {
	tr, err := KAry(2, 2) // ranks: 0; 1,2; 3,4,5,6
	if err != nil {
		t.Fatal(err)
	}
	path := tr.PathToRoot(5)
	if len(path) != 3 || path[0] != 5 || path[2] != 0 {
		t.Errorf("PathToRoot(5) = %v", path)
	}
	sl := tr.SubtreeLeaves(1)
	if len(sl) != 2 || sl[0] != 3 || sl[1] != 4 {
		t.Errorf("SubtreeLeaves(1) = %v", sl)
	}
	if got := tr.SubtreeLeaves(0); len(got) != 4 {
		t.Errorf("SubtreeLeaves(root) = %v", got)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	specs := []string{"flat:4", "kary:2^3", "kary:16^2", "knomial:2^4", "balanced:20,4"}
	for _, s := range specs {
		tr, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		tr2, err := ParseSpec(tr.String())
		if err != nil {
			t.Fatalf("re-parse of %q -> %q: %v", s, tr.String(), err)
		}
		if !tr.Equal(tr2) {
			t.Errorf("spec %q did not round-trip through %q", s, tr.String())
		}
	}
}

func TestParseSpecExplicit(t *testing.T) {
	tr, err := ParseSpec("0:1,2;1:3,4;2:5,6")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 7 {
		t.Fatalf("explicit tree has %d nodes, want 7", tr.Len())
	}
	if tr.Parent(5) != 2 {
		t.Errorf("Parent(5) = %d, want 2", tr.Parent(5))
	}
	bad := []string{
		"", "0:0", "0:1;2:1", "0:2", "nonsense", "flat:x", "kary:4", "kary:a^b",
		"balanced:10", "x:1", "0:y",
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q): want error", s)
		}
	}
}

func TestParseSpecTrailingComma(t *testing.T) {
	// "0:1," has an empty child entry which is skipped; still one valid edge.
	tr, err := ParseSpec("0:1")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Errorf("got %d nodes", tr.Len())
	}
}

// Property: for any valid random tree, stats invariants hold.
func TestQuickTreeInvariants(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%200) + 2
		rng := rand.New(rand.NewSource(seed))
		parents := make([]Rank, n)
		parents[0] = NoRank
		for i := 1; i < n; i++ {
			parents[i] = Rank(rng.Intn(i)) // parent precedes child => valid tree
		}
		tr, err := FromParents(parents)
		if err != nil {
			return false
		}
		s := tr.Stats()
		if s.Nodes != n || s.Leaves+s.Internal+1 != n {
			return false
		}
		// Level consistency: child level = parent level + 1.
		for i := 1; i < n; i++ {
			if tr.Node(Rank(i)).Level != tr.Node(parents[i]).Level+1 {
				return false
			}
		}
		// Leaves found by Leaves() match IsLeaf.
		if len(tr.Leaves()) != s.Leaves {
			return false
		}
		// String round-trips when the tree has at least one edge.
		tr2, err := ParseSpec(tr.String())
		if err != nil || !tr.Equal(tr2) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Balanced always yields exactly the requested leaves and respects
// the fan-out bound.
func TestQuickBalanced(t *testing.T) {
	f := func(l uint16, fo uint8) bool {
		leaves := int(l%2000) + 1
		fanout := int(fo%30) + 2
		tr, err := Balanced(leaves, fanout)
		if err != nil {
			return false
		}
		s := tr.Stats()
		return s.Leaves == leaves && s.MaxFanOut <= fanout
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkKAry16x3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := KAry(16, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBalanced4096(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Balanced(4096, 16); err != nil {
			b.Fatal(err)
		}
	}
}
