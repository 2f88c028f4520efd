// Package reliability implements the recovery model of the paper's
// reference [2] (Arnold & Miller, "Zero-cost reliability for tree-based
// overlay networks"): when a communication process fails, the overlay
// recovers *without* dedicated checkpointing by exploiting the redundancy
// inherent in the tree —
//
//  1. Topology: the failed process's children are adopted by their
//     grandparent, reconnecting the tree with one reconfiguration step.
//  2. Filter state: for reductions whose state is composable (associative
//     merges over disjoint leaf sets — equivalence classes, sums,
//     histograms, folded graphs), the lost node's filter state is exactly
//     the composition of its children's filter states, which survive.
//
// The live engine owns the first rule: core.Network.Adopt moves the
// orphans through its one reparent path, and its live view is the only
// record of the tree. This package owns the second: the state composition
// operator over filter.StatefulTransformation snapshots, which
// internal/recovery hands the engine as its composer.
package reliability

import (
	"errors"
	"fmt"

	"repro/internal/filter"
)

// ComposeStates rebuilds a lost node's filter state from its surviving
// children's snapshots: a fresh filter instance absorbs each child state in
// turn. The filter must be merge-composable: absorbing states S1..Sk must
// equal the state after processing the union of the inputs that produced
// them. The built-in eqclass filter has this property; so do sum-like and
// histogram reductions.
//
// ctor must produce fresh instances of the same filter type that emitted
// the snapshots.
func ComposeStates(ctor func() filter.StatefulTransformation, children [][]byte) ([]byte, error) {
	acc := ctor()
	for i, blob := range children {
		if len(blob) == 0 {
			continue
		}
		child := ctor()
		if err := child.SetState(blob); err != nil {
			return nil, fmt.Errorf("reliability: child state %d: %w", i, err)
		}
		if err := absorb(acc, child); err != nil {
			return nil, fmt.Errorf("reliability: composing state %d: %w", i, err)
		}
	}
	return acc.State()
}

// Merger is implemented by stateful filters that can absorb a sibling
// instance's state directly (the fast path for ComposeStates).
type Merger interface {
	MergeState(other filter.StatefulTransformation) error
}

// absorb merges child's state into acc, preferring the Merger fast path
// and falling back to re-absorbing the serialized state.
func absorb(acc, child filter.StatefulTransformation) error {
	if m, ok := acc.(Merger); ok {
		return m.MergeState(child)
	}
	// Generic path: acc ingests the child's serialized state by restoring
	// it into a scratch instance... without a Merger we can only splice at
	// the byte level, which requires the state format to be mergeable by
	// concatenation — not generally true. Refuse rather than corrupt.
	return errors.New("reliability: filter does not implement reliability.Merger")
}
