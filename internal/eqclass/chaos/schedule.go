package chaos

// Seeded chaos schedules: a deterministic kill plan generated from a
// seed, executed against a running overlay, and — when a run violates the
// delivery invariant — shrunk to a minimal reproducing schedule by greedy
// event deletion.

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/topology"
)

// KillEvent crashes one rank at an offset from the schedule's start.
type KillEvent struct {
	Victim core.Rank
	After  time.Duration
}

// MutationEvent reshapes the live topology at an offset: "split" grows a
// sibling for Victim and migrates half its children, "merge" folds Victim
// into its parent (core.Network.MergeNode),
// "attach" joins a new back-end under Victim. Mutation failures are
// tolerated — the schedule may have already crashed the victim, and a split
// racing a kill is exactly the interleaving under test — but a merge's kill
// is always driven to recovery so no subtree is left dark. An attached
// back-end is not a member of the running stream, so the ledger expects
// nothing of it.
type MutationEvent struct {
	Kind   string // "split" | "merge" | "attach"
	Victim core.Rank
	After  time.Duration
}

// Schedule is an ordered kill-and-mutation plan. Events with close
// offsets produce overlapping failures (a second death while the first
// adoption is in flight, a split racing the donor's crash).
type Schedule struct {
	Seed      int64
	Kills     []KillEvent
	Mutations []MutationEvent
}

func (s Schedule) String() string {
	parts := make([]string, 0, len(s.Kills)+len(s.Mutations))
	for _, k := range s.Kills {
		parts = append(parts, fmt.Sprintf("kill %d@%v", k.Victim, k.After))
	}
	for _, m := range s.Mutations {
		parts = append(parts, fmt.Sprintf("%s %d@%v", m.Kind, m.Victim, m.After))
	}
	return fmt.Sprintf("seed %d: [%s]", s.Seed, strings.Join(parts, ", "))
}

// GenSchedule derives a kill plan from seed: one to three victims among
// the tree's non-root internal processes. Half the seeds deliberately
// include a parent-and-child pair — the overlapping-failure shape that
// exercises cascaded adoption and double replay.
func GenSchedule(tree *topology.Tree, seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	internals := tree.InternalNodes()
	if len(internals) == 0 {
		return Schedule{Seed: seed}
	}
	picked := map[core.Rank]bool{}
	var kills []KillEvent
	add := func(r core.Rank) {
		if picked[r] {
			return
		}
		picked[r] = true
		kills = append(kills, KillEvent{Victim: r, After: time.Duration(rng.Intn(60)) * time.Millisecond})
	}
	if rng.Intn(2) == 0 {
		// Overlapping parent+child pair when the tree is deep enough.
		for _, r := range rng.Perm(len(internals)) {
			v := internals[r]
			if p := tree.Parent(v); p != 0 && !tree.Node(p).IsLeaf() {
				add(v)
				add(p)
				break
			}
		}
	}
	n := 1 + rng.Intn(3)
	for _, r := range rng.Perm(len(internals)) {
		if len(kills) >= n {
			break
		}
		add(internals[r])
	}
	sort.Slice(kills, func(i, j int) bool { return kills[i].After < kills[j].After })
	return Schedule{Seed: seed, Kills: kills}
}

// GenMutationSchedule derives a combined kill-and-mutation plan from
// seed: the kills of GenSchedule plus one or two topology mutations on
// internal processes the kill plan leaves alone — a kill and a merge of
// the same rank would just be the kill twice, while disjoint victims
// force the split/merge machinery to run concurrently with genuine
// failures — plus one mid-stream attach under such a process. The attach
// draws from its own random stream, so every seed's kills, splits and
// merges are the ones it generated before attaches existed.
func GenMutationSchedule(tree *topology.Tree, seed int64) Schedule {
	s := GenSchedule(tree, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x6d757461))
	killed := map[core.Rank]bool{}
	for _, k := range s.Kills {
		killed[k.Victim] = true
	}
	var free []core.Rank
	for _, r := range tree.InternalNodes() {
		if !killed[r] {
			free = append(free, r)
		}
	}
	n := 1 + rng.Intn(2)
	for _, i := range rng.Perm(len(free)) {
		if len(s.Mutations) >= n {
			break
		}
		kind := "split"
		if rng.Intn(2) == 1 {
			kind = "merge"
		}
		s.Mutations = append(s.Mutations, MutationEvent{
			Kind:   kind,
			Victim: free[i],
			After:  time.Duration(rng.Intn(80)) * time.Millisecond,
		})
	}
	sort.Slice(s.Mutations, func(i, j int) bool { return s.Mutations[i].After < s.Mutations[j].After })
	if len(free) > 0 {
		arng := rand.New(rand.NewSource(seed ^ 0x61747461))
		s.Mutations = append(s.Mutations, MutationEvent{
			Kind:   "attach",
			Victim: free[arng.Intn(len(free))],
			After:  time.Duration(arng.Intn(80)) * time.Millisecond,
		})
		sort.SliceStable(s.Mutations, func(i, j int) bool { return s.Mutations[i].After < s.Mutations[j].After })
	}
	return s
}

// execute runs the schedule as one timeline: kills and mutations fire in
// offset order against the streaming overlay, then every rank left dead —
// kill victims plus merges whose fold could not complete — is recovered
// shallowest-first by live depth (an orphaned subtree's own failure is only
// recoverable after its parent's), retrying while adoptions race.
//
// Splits are best-effort: the donor may already be dead or mid-recovery,
// and that race is exactly the interleaving under test. A merge refused
// before its kill (core.ErrNotMutable) is skipped the same way; one whose
// fold loses a race after the kill (the victim's parent is itself dead
// until the final pass) joins the final pass instead of leaving a dark
// subtree.
func (s Schedule) execute(nw *core.Network, mgr *recovery.Manager) error {
	type event struct {
		after time.Duration
		kill  *KillEvent
		mut   *MutationEvent
	}
	evs := make([]event, 0, len(s.Kills)+len(s.Mutations))
	for i := range s.Kills {
		evs = append(evs, event{after: s.Kills[i].After, kill: &s.Kills[i]})
	}
	for i := range s.Mutations {
		evs = append(evs, event{after: s.Mutations[i].After, mut: &s.Mutations[i]})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].after < evs[j].after })

	start := time.Now()
	var victims []core.Rank
	seen := map[core.Rank]bool{}
	addVictim := func(r core.Rank) {
		if !seen[r] {
			seen[r] = true
			victims = append(victims, r)
		}
	}
	for _, e := range evs {
		if wait := e.after - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		switch {
		case e.kill != nil:
			if err := nw.Kill(e.kill.Victim); err != nil {
				return fmt.Errorf("chaos: kill %d: %w", e.kill.Victim, err)
			}
			addVictim(e.kill.Victim)
		case e.mut.Kind == "split":
			_, _ = nw.SplitNode(e.mut.Victim)
		case e.mut.Kind == "attach":
			_, _ = nw.AttachBackEnd(e.mut.Victim)
		case e.mut.Kind == "merge":
			if seen[e.mut.Victim] {
				continue // already crashed by an earlier kill event
			}
			if _, err := nw.MergeNode(e.mut.Victim, nil); err != nil && !errors.Is(err, core.ErrNotMutable) {
				addVictim(e.mut.Victim)
			}
		}
	}
	depth := map[core.Rank]int{}
	for _, v := range victims {
		for r := nw.LiveParent(v); r != topology.NoRank; r = nw.LiveParent(r) {
			depth[v]++
		}
	}
	sort.SliceStable(victims, func(i, j int) bool { return depth[victims[i]] < depth[victims[j]] })
	for _, v := range victims {
		var err error
		for attempt := 0; attempt < 5; attempt++ {
			if _, err = mgr.Recover(v); err == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			return fmt.Errorf("chaos: recover %d: %w", v, err)
		}
	}
	return nil
}

// Shrink minimizes a failing schedule by greedy deletion: drop one event
// — kill or mutation — at a time, re-run, and keep the deletion whenever
// the invariant still breaks. fails must re-execute the harness with the
// given schedule and report whether it still violates the invariant.
func Shrink(s Schedule, fails func(Schedule) bool) Schedule {
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(s.Kills); i++ {
			cand := Schedule{
				Seed:      s.Seed,
				Kills:     append(append([]KillEvent{}, s.Kills[:i]...), s.Kills[i+1:]...),
				Mutations: s.Mutations,
			}
			if len(cand.Kills)+len(cand.Mutations) == 0 {
				continue
			}
			if fails(cand) {
				s = cand
				changed = true
				break
			}
		}
		if changed {
			continue
		}
		for i := 0; i < len(s.Mutations); i++ {
			cand := Schedule{
				Seed:      s.Seed,
				Kills:     s.Kills,
				Mutations: append(append([]MutationEvent{}, s.Mutations[:i]...), s.Mutations[i+1:]...),
			}
			if len(cand.Kills)+len(cand.Mutations) == 0 {
				continue
			}
			if fails(cand) {
				s = cand
				changed = true
				break
			}
		}
	}
	return s
}
