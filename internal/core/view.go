package core

import (
	"fmt"

	"repro/internal/topology"
)

// liveView tracks the overlay's current shape in the ORIGINAL rank
// numbering, which never changes at runtime (packets, nodes and streams all
// carry original ranks). It is the one record of the tree: Tree() snapshots
// it and internal/recovery's detector walks it. Dead ranks stay in place,
// marked, so links, slots and stream members stay valid.
//
// children is slot-aligned with each node's transport.Endpoint.Children:
// a dead child keeps its slot (the link is gone but the index must not
// shift), a moved child leaves a placeholder behind, and new children —
// attached, or moved in — take slots appended at the end. All access is
// guarded by Network.mu.
type liveView struct {
	parent   []Rank
	children [][]Rank
	dead     []bool
	backend  []bool
}

func newLiveView(t *topology.Tree) *liveView {
	n := t.Len()
	v := &liveView{
		parent:   make([]Rank, n),
		children: make([][]Rank, n),
		dead:     make([]bool, n),
		backend:  make([]bool, n),
	}
	for r := 0; r < n; r++ {
		tn := t.Node(Rank(r))
		v.parent[r] = tn.Parent
		v.children[r] = append([]Rank(nil), tn.Children...)
		v.backend[r] = tn.IsLeaf()
	}
	return v
}

// LiveParent returns r's current parent in the live shape (original
// numbering, reflecting adoptions), or topology.NoRank when r is the
// root, unknown, or dead.
func (nw *Network) LiveParent(r Rank) Rank {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if r == 0 || !nw.view.valid(r) || nw.view.dead[r] {
		return topology.NoRank
	}
	return nw.view.parent[r]
}

// LiveChildren returns r's live children in slot order.
func (nw *Network) LiveChildren(r Rank) []Rank {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if !nw.view.valid(r) || nw.view.dead[r] {
		return nil
	}
	return nw.view.liveKids(r)
}

// valid reports whether r names a node the view knows about.
func (v *liveView) valid(r Rank) bool { return r >= 0 && int(r) < len(v.parent) }

// add registers a newly attached back-end under parent and returns its
// rank and the child-slot index it occupies at the parent.
func (v *liveView) add(parent Rank) (Rank, int) {
	r := Rank(len(v.parent))
	v.parent = append(v.parent, parent)
	v.children = append(v.children, nil)
	v.dead = append(v.dead, false)
	v.backend = append(v.backend, true)
	slot := len(v.children[parent])
	v.children[parent] = append(v.children[parent], r)
	return r, slot
}

// liveKids returns r's live children in slot order.
func (v *liveView) liveKids(r Rank) []Rank {
	var out []Rank
	for _, c := range v.children[r] {
		if c != topology.NoRank && !v.dead[c] {
			out = append(out, c)
		}
	}
	return out
}

// internal returns the live communication processes — neither the
// front-end nor back-ends — in rank order.
func (v *liveView) internal() []Rank {
	var out []Rank
	for r := 1; r < len(v.parent); r++ {
		if !v.dead[r] && !v.backend[r] {
			out = append(out, Rank(r))
		}
	}
	return out
}

// move re-parents kids from one router to another: each leaves a
// placeholder in its slot at from and takes a new slot appended at to. It
// returns both slot lists, index-aligned with kids.
func (v *liveView) move(kids []Rank, from, to Rank) (fromSlots, toSlots []int) {
	for _, c := range kids {
		fromSlots = append(fromSlots, v.slotOf(from, c))
		toSlots = append(toSlots, len(v.children[to]))
		v.children[to] = append(v.children[to], c)
		v.parent[c] = to
	}
	v.vacate(from, fromSlots)
	return fromSlots, toSlots
}

// unmove returns one child of a move to its slot at from, leaving a
// placeholder in its slot at to.
func (v *liveView) unmove(c, from Rank, fromSlot int, to Rank, toSlot int) {
	v.children[from][fromSlot] = c
	v.vacate(to, []int{toSlot})
	v.parent[c] = from
}

// target is the one precondition check of a tree mutation, called with
// Network.mu held: ErrShutdown once teardown has begun; otherwise r must be
// a known, live rank — not a back-end unless leafOK, not the front-end
// unless rootOK — whose parent is alive, and every other failure wraps the
// caller's sentinel. It returns r's parent.
func (nw *Network) target(r Rank, sentinel error, leafOK, rootOK bool) (Rank, error) {
	v := nw.view
	switch {
	case nw.shutdown:
		return topology.NoRank, ErrShutdown
	case r == 0 && !rootOK:
		return topology.NoRank, fmt.Errorf("%w: rank 0 is the front-end", sentinel)
	case !v.valid(r):
		return topology.NoRank, fmt.Errorf("%w: no such rank %d", sentinel, r)
	case v.dead[r]:
		return topology.NoRank, fmt.Errorf("%w: rank %d is already dead", sentinel, r)
	case v.backend[r] && !leafOK:
		return topology.NoRank, fmt.Errorf("%w: rank %d is a back-end", sentinel, r)
	}
	p := v.parent[r]
	if p != topology.NoRank && v.dead[p] {
		return topology.NoRank, fmt.Errorf("%w: parent %d of %d has failed; recover it first", sentinel, p, r)
	}
	return p, nil
}

// slotOf returns the child-slot index of child at parent, or -1.
func (v *liveView) slotOf(parent, child Rank) int {
	for i, c := range v.children[parent] {
		if c == child {
			return i
		}
	}
	return -1
}

// vacate turns parent's given child slots into permanent placeholders
// (topology.NoRank). Slot indices must stay stable — they align with the
// owner's link slots — so a child that moves away blanks its slot instead
// of removing it.
func (v *liveView) vacate(parent Rank, slots []int) {
	for _, s := range slots {
		if s >= 0 && s < len(v.children[parent]) {
			v.children[parent][s] = topology.NoRank
		}
	}
}

// subtreeLeaves returns the live back-ends in the subtree rooted at r.
func (v *liveView) subtreeLeaves(r Rank) []Rank {
	if r == topology.NoRank || v.dead[r] {
		return nil
	}
	if v.backend[r] {
		return []Rank{r}
	}
	var out []Rank
	for _, c := range v.children[r] {
		out = append(out, v.subtreeLeaves(c)...)
	}
	return out
}

// aliveLeaves returns every live back-end, in rank order.
func (v *liveView) aliveLeaves() []Rank {
	var out []Rank
	for r := range v.parent {
		if v.backend[r] && !v.dead[r] {
			out = append(out, Rank(r))
		}
	}
	return out
}
