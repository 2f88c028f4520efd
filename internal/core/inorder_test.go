package core

import (
	"math/rand"
	"testing"
)

// indexInOrder is the per-index retirement tracker inOrder replaced: one
// set entry per completed index above low. It is the oracle for inOrder's
// ranges.
type indexInOrder struct {
	low  uint64
	done map[uint64]struct{}
}

func (t *indexInOrder) complete(start uint64, n int) int {
	for i := uint64(0); i < uint64(n); i++ {
		if idx := start + i; idx >= t.low {
			if t.done == nil {
				t.done = map[uint64]struct{}{}
			}
			t.done[idx] = struct{}{}
		}
	}
	adv := 0
	for {
		if _, ok := t.done[t.low]; !ok {
			return adv
		}
		delete(t.done, t.low)
		t.low++
		adv++
	}
}

// TestInOrderMatchesPerIndexTracker runs random completion orders through
// inOrder and the per-index oracle: the runs of an arrival sequence in a
// random order, duplicate completions of them (early and late), and
// ranges that straddle run boundaries. Both must return the same amount
// from every complete and agree on low, and inOrder must hold no more
// ranges than there are completed runs low has not passed.
func TestInOrderMatchesPerIndexTracker(t *testing.T) {
	type run struct {
		start uint64
		n     int
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got inOrder
		var want indexInOrder
		var runs []run
		for i, total := 0, 1+rng.Intn(40); i < total; i++ {
			n := 1 + rng.Intn(8)
			runs = append(runs, run{got.assign(n), n})
		}
		end := got.next
		var ops []run
		for _, i := range rng.Perm(len(runs)) {
			ops = append(ops, runs[i])
		}
		for k := rng.Intn(len(runs) + 1); k > 0; k-- {
			dup := runs[rng.Intn(len(runs))]
			at := rng.Intn(len(ops) + 1)
			ops = append(ops[:at], append([]run{dup}, ops[at:]...)...)
		}
		if seed%3 == 0 {
			for k := rng.Intn(6); k > 0; k-- {
				s := uint64(rng.Int63n(int64(end)))
				n := 1 + rng.Intn(int(min(end-s, 12)))
				at := rng.Intn(len(ops) + 1)
				ops = append(ops[:at], append([]run{{s, n}}, ops[at:]...)...)
			}
		}
		completed := map[run]bool{}
		for i, op := range ops {
			g, w := got.complete(op.start, op.n), want.complete(op.start, op.n)
			if g != w || got.low != want.low {
				t.Fatalf("seed %d op %d complete(%d, %d) = %d low %d, want %d low %d",
					seed, i, op.start, op.n, g, got.low, w, want.low)
			}
			completed[op] = true
			outstanding := 0
			for r := range completed {
				if r.start+uint64(r.n) > got.low {
					outstanding++
				}
			}
			if len(got.done) > outstanding {
				t.Fatalf("seed %d op %d: %d ranges held for %d outstanding runs", seed, i, len(got.done), outstanding)
			}
		}
		if got.low != end || len(got.done) != 0 {
			t.Fatalf("seed %d: every run completed but low %d of %d, %d ranges held", seed, got.low, end, len(got.done))
		}
	}
}
