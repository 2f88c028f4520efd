// Elastic overlay: load-driven tree mutation in action (DESIGN.md §13).
// A 4-router overlay takes a badly skewed workload — every leaf under
// router 1 streams hot while the rest trickle — with the elastic
// controller watching the per-process load reports. The controller sees
// router 1's heat score pull away from the mean, splits it, and reparents
// half its children onto the new sibling; the program prints the tree
// shape before and after and asserts the hot router's children really
// were redistributed.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/elastic"
	"repro/internal/topology"
)

// printShape lists every live internal process with its current children.
func printShape(nw *core.Network, label string) {
	internals := nw.LiveInternal()
	sort.Slice(internals, func(i, j int) bool { return internals[i] < internals[j] })
	fmt.Printf("%s:\n", label)
	for _, r := range internals {
		kids := nw.LiveChildren(r)
		sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
		fmt.Printf("  router %2d -> %v\n", r, kids)
	}
}

func main() {
	tree, err := topology.ParseSpec("kary:4^2")
	if err != nil {
		log.Fatal(err)
	}
	// The hot subtree is everything under router 1 in the initial shape.
	hot := map[core.Rank]bool{}
	for _, l := range tree.Leaves() {
		if tree.Parent(l) == 1 {
			hot[l] = true
		}
	}

	nw, err := core.NewNetwork(core.Config{
		Topology:         tree,
		LoadReportPeriod: 20 * time.Millisecond,
		OnBackEnd: func(be *core.BackEnd) error {
			p, err := be.Recv()
			if err != nil {
				return nil
			}
			// Recv erroring is how a sender learns of shutdown; watch for
			// it while the send loop streams.
			down := make(chan struct{})
			go func() {
				for {
					if _, err := be.Recv(); err != nil {
						close(down)
						return
					}
				}
			}()
			pace := 20 * time.Millisecond // cold trickle
			if hot[be.Rank()] {
				pace = 200 * time.Microsecond // hot stream, ~100x the trickle
			}
			for {
				select {
				case <-down:
					return nil
				default:
				}
				if err := be.Send(p.StreamID, p.Tag, "%d", int64(be.Rank())); err != nil {
					return nil
				}
				time.Sleep(pace)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer nw.Shutdown()

	printShape(nw, "before skewed load")
	hotBefore := len(nw.LiveChildren(1))

	ctl := elastic.New(elastic.Config{
		Network:    nw,
		Period:     50 * time.Millisecond,
		Cooldown:   200 * time.Millisecond,
		SplitAbove: 1.5,
		MergeBelow: -1, // split-only: the skew never reverses in this demo
		MinQueued:  -1, // the overlay is unsaturated, so heat alone decides
		OnMutation: func(m elastic.Mutation) {
			fmt.Printf("mutation: %s of router %d (heat %.2f) -> sibling %d\n",
				m.Kind, m.Target, m.Heat, m.Sibling)
		},
	})
	ctl.Start()
	defer ctl.Stop()

	st, err := nw.NewStream(core.StreamSpec{Transformation: "null", Synchronization: "nullsync"})
	if err != nil {
		log.Fatal(err)
	}
	if err := st.Multicast(core.TagFirstApplication, ""); err != nil {
		log.Fatal(err)
	}
	go func() { // drain the front-end so credits keep flowing
		for {
			if _, err := st.Recv(); err != nil {
				return
			}
		}
	}()

	time.Sleep(2 * time.Second)
	printShape(nw, "after skewed load")

	var splits int
	for _, m := range ctl.Mutations() {
		if m.Kind == "split" {
			splits++
		}
	}
	hotAfter := len(nw.LiveChildren(1))
	if splits == 0 {
		log.Fatal("controller never split the hot router")
	}
	if hotAfter >= hotBefore {
		log.Fatalf("hot router kept all %d children (was %d): no redistribution", hotAfter, hotBefore)
	}
	fmt.Printf("ok: %d split(s); hot router went from %d to %d children\n",
		splits, hotBefore, hotAfter)
}
