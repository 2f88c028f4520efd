// Multi-tenant session fabric: three tools share ONE overlay over 64
// simulated hosts. An interactive dashboard (weight 3), a capacity
// planner (weight 1) and a distinct-count auditor (weight 1) each open a
// tenant session — their streams live in separate id namespaces, each
// tenant has at most one credit window of data in flight below the
// front-end, and their egress traffic is scheduled by fair-share class —
// then run concurrently: declarative aggregation
// queries for the first two, a HyperLogLog sketch reduction for the
// third. Tearing one tenant down mid-run leaves the others untouched;
// per-tenant counters show who used what.
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/session"
	"repro/internal/sketch"
	"repro/internal/topology"
)

func main() {
	tree, err := topology.ParseSpec("kary:8^2") // 64 hosts
	if err != nil {
		log.Fatal(err)
	}
	// One shared overlay: query evaluation + sketch workloads at the
	// back-ends, both filter families at every internal level, and a
	// 32-credit link window: each tenant's budget.
	nw, err := query.NewNetwork(tree, func(rank core.Rank) query.AttrSource {
		return func() map[string]float64 {
			return map[string]float64{
				"zone": float64(rank % 4),
				"load": float64(rank%16) / 8,
				"mem":  float64(256 + rank%32*64),
			}
		}
	}, query.WithLinkWindow(32))
	if err != nil {
		log.Fatal(err)
	}
	defer nw.Shutdown()

	mgr := session.NewManager(nw, session.Config{MaxSessions: 3})
	open := func(tenant string, opts ...session.Option) *query.Engine {
		sess, err := mgr.Open(tenant, opts...)
		if err != nil {
			log.Fatal(err)
		}
		return query.NewSessionEngine(nw, sess)
	}
	dashboard := open("dashboard", session.WithWeight(3)) // preferred class
	planner := open("planner")                            // batch job
	auditor := open("auditor")

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // interactive dashboard: frequent small queries
		defer wg.Done()
		for i := 0; i < 5; i++ {
			res, err := dashboard.Run("select count(rank), avg(load) group by zone", time.Minute)
			if err != nil {
				log.Fatal(err)
			}
			if i == 0 {
				fmt.Printf("dashboard:\n%s\n", res.Render())
			}
		}
	}()
	go func() { // capacity planner: one heavy grouped scan
		defer wg.Done()
		res, err := planner.Run("select max(mem), avg(mem) group by zone", time.Minute)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("planner:\n%s\n", res.Render())
	}()
	go func() { // auditor: HyperLogLog distinct-count over synthetic keys
		defer wg.Done()
		p, err := auditor.Sketch(sketch.Request{Kind: sketch.KindHLL, N: 2000, Seed: 42}, time.Minute)
		if err != nil {
			log.Fatal(err)
		}
		hll, err := sketch.HLLFromPacket(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("auditor: ~%d distinct keys across %d hosts\n\n", hll.Estimate(), len(tree.Leaves()))
	}()
	wg.Wait()

	// The planner is done: close its session. The overlay and the other
	// tenants are untouched — prove it with one more dashboard query.
	if err := planner.Close(); err != nil {
		log.Fatal(err)
	}
	if _, err := dashboard.Run("select count(rank)", time.Minute); err != nil {
		log.Fatal(err)
	}
	fmt.Println("planner closed; dashboard still live")

	fmt.Println("\nper-tenant counters:")
	ts := nw.TenantSnapshot()
	names := make([]string, 0, len(ts))
	for name := range ts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tc := ts[name]
		fmt.Printf("  %-10s up %-4d down %-4d streams %d/%d\n", name,
			tc["packets_up"], tc["packets_down"], tc["streams_opened"], tc["streams_closed"])
	}
}
