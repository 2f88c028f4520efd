package chaos

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

// chaosFabrics names both link substrates for the invariant sweeps.
var chaosFabrics = map[string]core.TransportKind{
	"chan": core.ChanTransport,
	"tcp":  core.TCPTransport,
}

// TestChaosNoFailuresInvariantHolds is the harness's own baseline: with
// no kills at all, every id arrives exactly once on both fabrics.
func TestChaosNoFailuresInvariantHolds(t *testing.T) {
	for name, kind := range chaosFabrics {
		t.Run(name, func(t *testing.T) {
			res, err := RunChaos(ChaosConfig{
				Spec:      "kary:2^2",
				Transport: kind,
				PerBE:     60,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Ok() {
				t.Fatalf("failure-free run broke the invariant: %v", res)
			}
		})
	}
}

// TestChaosSingleKillExactlyOnce: one internal victim mid-stream, the
// smallest failing case the sweep would otherwise have to shrink to.
func TestChaosSingleKillExactlyOnce(t *testing.T) {
	for name, kind := range chaosFabrics {
		t.Run(name, func(t *testing.T) {
			res, err := RunChaos(ChaosConfig{
				Spec:      "kary:2^3",
				Transport: kind,
				Schedule: Schedule{Kills: []KillEvent{
					{Victim: 3, After: 10 * time.Millisecond},
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Ok() {
				t.Fatalf("single-kill run broke the invariant: %v\nlost: %.10v\nduplicated: %.10v",
					res, res.Lost, res.Duplicated)
			}
			if res.Recoveries != 1 {
				t.Errorf("recoveries = %d, want 1", res.Recoveries)
			}
		})
	}
}

// TestChaosSeededSchedules is the acceptance sweep: seeded random kill
// schedules (including overlapping parent+child failures) on both
// fabrics, every run holding the delivery invariant — zero lost ids,
// zero duplicated ids — with sender replay memory bounded by the credit
// window. 50 chan schedules and 25 TCP schedules run in full mode (the
// CI soak); -short keeps a smoke subset.
func TestChaosSeededSchedules(t *testing.T) {
	tree, err := topology.ParseSpec("kary:2^3")
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string]int{"chan": 50, "tcp": 25}
	if testing.Short() {
		seeds = map[string]int{"chan": 6, "tcp": 2}
	}
	for name, kind := range chaosFabrics {
		kind := kind
		t.Run(name, func(t *testing.T) {
			for seed := 0; seed < seeds[name]; seed++ {
				sched := GenSchedule(tree, int64(seed))
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					t.Parallel() // every run is its own network
					res, err := RunChaos(ChaosConfig{
						Spec:      "kary:2^3",
						Transport: kind,
						Schedule:  sched,
					})
					if err != nil {
						t.Fatalf("%v: %v", sched, err)
					}
					if !res.Ok() {
						min := Shrink(sched, func(s Schedule) bool {
							r, err := RunChaos(ChaosConfig{
								Spec:      "kary:2^3",
								Transport: kind,
								Schedule:  s,
							})
							return err == nil && !r.Ok()
						})
						t.Fatalf("%v broke the invariant: %v\nminimal repro: %v\nlost: %.10v\nduplicated: %.10v",
							sched, res, min, res.Lost, res.Duplicated)
					}
					if res.ReplayRingHighWater > 8 {
						t.Fatalf("%v: replay ring high water %d exceeds the credit window 8",
							sched, res.ReplayRingHighWater)
					}
				})
			}
		})
	}
}

// TestMutationChaos is the live-mutation extension of the sweep: seeded
// schedules interleaving crash-failures with a back-end attaching
// mid-stream, possibly under a router the schedule kills, must still hold
// the delivery invariant (zero lost, zero duplicated) on both fabrics.
func TestMutationChaos(t *testing.T) {
	tree, err := topology.ParseSpec("kary:2^3")
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string]int{"chan": 20, "tcp": 10}
	if testing.Short() {
		seeds = map[string]int{"chan": 4, "tcp": 2}
	}
	for name, kind := range chaosFabrics {
		kind := kind
		t.Run(name, func(t *testing.T) {
			for seed := 0; seed < seeds[name]; seed++ {
				sched := GenMutationSchedule(tree, int64(seed))
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					t.Parallel()
					res, err := RunChaos(ChaosConfig{
						Spec:      "kary:2^3",
						Transport: kind,
						Schedule:  sched,
					})
					if err != nil {
						t.Fatalf("%v: %v", sched, err)
					}
					if !res.Ok() {
						min := Shrink(sched, func(s Schedule) bool {
							r, err := RunChaos(ChaosConfig{
								Spec:      "kary:2^3",
								Transport: kind,
								Schedule:  s,
							})
							return err == nil && !r.Ok()
						})
						t.Fatalf("%v broke the invariant: %v\nminimal repro: %v\nlost: %.10v\nduplicated: %.10v",
							sched, res, min, res.Lost, res.Duplicated)
					}
				})
			}
		})
	}
}

// TestShrinkMinimizesSchedules exercises the shrinker against a synthetic
// failure predicate: only one of three events matters, and shrinking must
// isolate it.
func TestShrinkMinimizesSchedules(t *testing.T) {
	s := Schedule{Seed: 7, Kills: []KillEvent{
		{Victim: 1, After: 0},
		{Victim: 3, After: 5 * time.Millisecond},
		{Victim: 2, After: 10 * time.Millisecond},
	}}
	min := Shrink(s, func(c Schedule) bool {
		for _, k := range c.Kills {
			if k.Victim == 3 {
				return true
			}
		}
		return false
	})
	if len(min.Kills) != 1 || min.Kills[0].Victim != 3 {
		t.Fatalf("shrunk to %v, want the single victim-3 event", min)
	}
}
