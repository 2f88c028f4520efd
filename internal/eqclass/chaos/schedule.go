package chaos

// Seeded chaos schedules: a deterministic kill plan generated from a
// seed, executed against a running overlay, and — when a run violates the
// delivery invariant — shrunk to a minimal reproducing schedule by greedy
// event deletion.

import (
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

// AttachEvent joins a new back-end under Parent at an offset from the
// schedule's start. An attach may fail — the schedule may have already
// crashed the parent — and that race is part of the interleaving under
// test. An attached back-end is not a member of the running stream, so
// the ledger expects nothing of it.
type AttachEvent struct {
	Parent core.Rank
	After  time.Duration
}

// Schedule is an ordered kill-and-attach plan. Events with close offsets
// produce overlapping failures (a second death while the first adoption is
// in flight, an attach racing its parent's crash).
type Schedule struct {
	Seed     int64
	Kills    []KillEvent
	Attaches []AttachEvent
}

func (s Schedule) String() string {
	parts := make([]string, 0, len(s.Kills)+len(s.Attaches))
	for _, k := range s.Kills {
		parts = append(parts, fmt.Sprintf("kill %d@%v", k.Victim, k.After))
	}
	for _, a := range s.Attaches {
		parts = append(parts, fmt.Sprintf("attach %d@%v", a.Parent, a.After))
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

// GenMutationSchedule derives a kill-and-attach plan from seed: the kills
// of GenSchedule, plus kills of internal processes that plan leaves alone,
// plus one mid-stream attach under such a process. One or two of those
// processes each draw a coin and an offset, and the ones whose coin comes
// up are killed at their offset; the draws are fixed per seed, so a
// seed's schedule never changes. The attach draws from its own random
// stream.
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
	for drawn, i := range rng.Perm(len(free)) {
		if drawn >= n {
			break
		}
		kill := rng.Intn(2) == 1
		after := time.Duration(rng.Intn(80)) * time.Millisecond
		if kill {
			s.Kills = append(s.Kills, KillEvent{Victim: free[i], After: after})
		}
	}
	sort.SliceStable(s.Kills, func(i, j int) bool { return s.Kills[i].After < s.Kills[j].After })
	if len(free) > 0 {
		arng := rand.New(rand.NewSource(seed ^ 0x61747461))
		s.Attaches = []AttachEvent{{
			Parent: free[arng.Intn(len(free))],
			After:  time.Duration(arng.Intn(80)) * time.Millisecond,
		}}
	}
	return s
}

// execute runs the schedule as one timeline: kills and attaches fire in
// offset order against the streaming overlay, then every kill victim is
// recovered shallowest-first by live depth (an orphaned subtree's own
// failure is only recoverable after its parent's), retrying while
// adoptions race.
func (s Schedule) execute(nw *core.Network, mgr *recovery.Manager) error {
	type event struct {
		after  time.Duration
		kill   *KillEvent
		attach *AttachEvent
	}
	evs := make([]event, 0, len(s.Kills)+len(s.Attaches))
	for i := range s.Kills {
		evs = append(evs, event{after: s.Kills[i].After, kill: &s.Kills[i]})
	}
	for i := range s.Attaches {
		evs = append(evs, event{after: s.Attaches[i].After, attach: &s.Attaches[i]})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].after < evs[j].after })

	start := time.Now()
	var victims []core.Rank
	for _, e := range evs {
		if wait := e.after - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if e.attach != nil {
			_, _ = nw.AttachBackEnd(e.attach.Parent)
			continue
		}
		if err := nw.Kill(e.kill.Victim); err != nil {
			return fmt.Errorf("chaos: kill %d: %w", e.kill.Victim, err)
		}
		victims = append(victims, e.kill.Victim)
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
// — kill or attach — at a time, re-run, and keep the deletion whenever the
// invariant still breaks. fails must re-execute the harness with the
// given schedule and report whether it still violates the invariant.
func Shrink(s Schedule, fails func(Schedule) bool) Schedule {
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(s.Kills)+len(s.Attaches) && !changed; i++ {
			cand := Schedule{Seed: s.Seed, Kills: s.Kills, Attaches: s.Attaches}
			if i < len(s.Kills) {
				cand.Kills = append(append([]KillEvent{}, s.Kills[:i]...), s.Kills[i+1:]...)
			} else {
				j := i - len(s.Kills)
				cand.Attaches = append(append([]AttachEvent{}, s.Attaches[:j]...), s.Attaches[j+1:]...)
			}
			if len(cand.Kills)+len(cand.Attaches) > 0 && fails(cand) {
				s, changed = cand, true
			}
		}
	}
	return s
}
