// Package topology describes and constructs the process-tree organizations a
// TBON can assume: balanced k-ary trees, skewed k-nomial trees, flat
// one-to-many fan-outs, and arbitrary explicit trees. It also computes the
// structural statistics the paper reports (depth, maximum fan-out, and the
// internal-node overhead of deep trees relative to their back-end count).
//
// Nodes are identified by dense ranks assigned in breadth-first order with
// the front-end (root) at rank 0. Rank 0 is always the front-end, leaves are
// always back-ends, and everything between is a communication process.
package topology

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/packet"
)

// Rank aliases the packet rank type so the two packages agree on identity.
type Rank = packet.Rank

// NoRank marks "no parent" (the root) or an unassigned rank.
const NoRank Rank = -1

// Node is one vertex of the process tree.
type Node struct {
	// Rank is the node's dense breadth-first identifier; the root is 0.
	Rank Rank
	// Parent is the rank of the parent, or NoRank for the root.
	Parent Rank
	// Children holds the ranks of the node's children in rank order.
	Children []Rank
	// Level is the node's distance from the root.
	Level int
	// Host optionally names the machine that should run this node; used
	// by the TCP transport, ignored by the in-process transport.
	Host string
}

// IsLeaf reports whether the node is a back-end.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// IsRoot reports whether the node is the front-end.
func (n *Node) IsRoot() bool { return n.Parent == NoRank }

// Tree is a validated, immutable process-tree shape. The zero value is not
// usable; construct trees with the builders in this package or FromParents.
// A running overlay's current shape is core.Network's live view, which
// Network.Tree snapshots into a new Tree.
type Tree struct {
	nodes []Node
}

// ErrInvalid reports a structurally invalid tree description.
var ErrInvalid = errors.New("topology: invalid tree")

// FromParents constructs a tree from a parent vector: parents[i] is the
// parent rank of node i, with parents[0] == NoRank for the root. The vector
// must describe a single connected tree rooted at 0 in which every non-root
// node's parent precedes it is NOT required — any valid tree shape is
// accepted and children are ordered by rank.
func FromParents(parents []Rank) (*Tree, error) {
	n := len(parents)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty parent vector", ErrInvalid)
	}
	if parents[0] != NoRank {
		return nil, fmt.Errorf("%w: node 0 must be the root (parent %d)", ErrInvalid, parents[0])
	}
	t := &Tree{nodes: make([]Node, n)}
	for i := range t.nodes {
		t.nodes[i].Rank = Rank(i)
		t.nodes[i].Parent = parents[i]
	}
	for i := 1; i < n; i++ {
		p := parents[i]
		if p == NoRank {
			return nil, fmt.Errorf("%w: multiple roots (node %d)", ErrInvalid, i)
		}
		if p < 0 || int(p) >= n {
			return nil, fmt.Errorf("%w: node %d has out-of-range parent %d", ErrInvalid, i, p)
		}
		if p == Rank(i) {
			return nil, fmt.Errorf("%w: node %d is its own parent", ErrInvalid, i)
		}
		t.nodes[p].Children = append(t.nodes[p].Children, Rank(i))
	}
	for i := range t.nodes {
		cs := t.nodes[i].Children
		sort.Slice(cs, func(a, b int) bool { return cs[a] < cs[b] })
	}
	if err := t.computeLevels(); err != nil {
		return nil, err
	}
	return t, nil
}

// computeLevels assigns BFS levels and verifies connectivity/acyclicity.
func (t *Tree) computeLevels() error {
	for i := range t.nodes {
		t.nodes[i].Level = -1
	}
	t.nodes[0].Level = 0
	queue := []Rank{0}
	seen := 1
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		for _, c := range t.nodes[r].Children {
			if t.nodes[c].Level != -1 {
				return fmt.Errorf("%w: node %d reached twice (cycle)", ErrInvalid, c)
			}
			t.nodes[c].Level = t.nodes[r].Level + 1
			queue = append(queue, c)
			seen++
		}
	}
	if seen != len(t.nodes) {
		return fmt.Errorf("%w: %d of %d nodes unreachable from root",
			ErrInvalid, len(t.nodes)-seen, len(t.nodes))
	}
	return nil
}

// Len returns the total number of nodes (front-end + internal + back-ends).
func (t *Tree) Len() int { return len(t.nodes) }

// Node returns the node with the given rank.
func (t *Tree) Node(r Rank) *Node {
	if r < 0 || int(r) >= len(t.nodes) {
		return nil
	}
	return &t.nodes[r]
}

// Parent returns the parent rank of r, or NoRank for the root.
func (t *Tree) Parent(r Rank) Rank { return t.nodes[r].Parent }

// Children returns the children of r in rank order. The slice is shared and
// must not be modified.
func (t *Tree) Children(r Rank) []Rank { return t.nodes[r].Children }

// Leaves returns the ranks of all back-ends in rank order.
func (t *Tree) Leaves() []Rank {
	var out []Rank
	for i := range t.nodes {
		if t.nodes[i].IsLeaf() {
			out = append(out, Rank(i))
		}
	}
	return out
}

// InternalNodes returns the ranks of all communication processes — nodes
// that are neither the front-end nor back-ends.
func (t *Tree) InternalNodes() []Rank {
	var out []Rank
	for i := 1; i < len(t.nodes); i++ {
		if !t.nodes[i].IsLeaf() {
			out = append(out, Rank(i))
		}
	}
	return out
}

// PathToRoot returns the ranks from r (inclusive) up to the root (inclusive).
func (t *Tree) PathToRoot(r Rank) []Rank {
	var out []Rank
	for r != NoRank {
		out = append(out, r)
		r = t.nodes[r].Parent
	}
	return out
}

// SubtreeLeaves returns the back-ends in the subtree rooted at r.
func (t *Tree) SubtreeLeaves(r Rank) []Rank {
	var out []Rank
	var walk func(Rank)
	walk = func(x Rank) {
		n := &t.nodes[x]
		if n.IsLeaf() {
			out = append(out, x)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(r)
	return out
}

// Stats summarizes a tree's shape.
type Stats struct {
	Nodes     int     // total process count
	Leaves    int     // back-end count
	Internal  int     // communication processes (excludes root and leaves)
	Depth     int     // maximum level of any node
	MaxFanOut int     // largest child count of any node
	Overhead  float64 // Internal / Leaves — the paper's "moderate penalty" metric
}

// Stats computes the tree's shape summary.
func (t *Tree) Stats() Stats {
	s := Stats{Nodes: len(t.nodes)}
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.IsLeaf() {
			s.Leaves++
		} else if !n.IsRoot() {
			s.Internal++
		}
		if n.Level > s.Depth {
			s.Depth = n.Level
		}
		if len(n.Children) > s.MaxFanOut {
			s.MaxFanOut = len(n.Children)
		}
	}
	if s.Leaves > 0 {
		s.Overhead = float64(s.Internal) / float64(s.Leaves)
	}
	return s
}

// String renders the tree as an explicit spec (see ParseSpec), which
// round-trips through ParseSpec.
func (t *Tree) String() string {
	var b strings.Builder
	first := true
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.IsLeaf() {
			continue
		}
		if !first {
			b.WriteByte(';')
		}
		first = false
		fmt.Fprintf(&b, "%d:", n.Rank)
		for j, c := range n.Children {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", c)
		}
	}
	return b.String()
}

// Equal reports whether two trees have identical structure.
func (t *Tree) Equal(u *Tree) bool {
	if t.Len() != u.Len() {
		return false
	}
	for i := range t.nodes {
		if t.nodes[i].Parent != u.nodes[i].Parent {
			return false
		}
	}
	return true
}
