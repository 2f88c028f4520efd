// Command tbon-query runs TAG-style declarative aggregation queries over a
// simulated host fleet on a TBON (§2.3's sensor-network aggregation model).
//
// Usage:
//
//	tbon-query -spec balanced:64,8 -q "select avg(load), max(mem) group by zone"
//	tbon-query -q "select count(rank) where load > 1.0"
//	tbon-query -tenants 4 -stats -q "select count(rank) group by zone"
//
// Each simulated host exposes attributes: rank, zone (rank mod 4), load
// (noisy per-host level) and mem (MB in use).
//
// With -tenants N > 1 the query runs concurrently in N tenant sessions
// multiplexed over the one overlay — each tenant gets its own stream-id
// namespace, fair-share egress class (weight = tenant index + 1), and
// one-window credit budget — and -stats then also prints the per-tenant
// traffic counters.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/session"
	"repro/internal/topology"
)

func main() {
	spec := flag.String("spec", "balanced:64,8", "topology specification")
	q := flag.String("q", "select count(rank), avg(load), max(mem) group by zone", "query text")
	seed := flag.Int64("seed", 1, "attribute noise seed")
	batch := flag.Int("batch", 0, "egress batching flush window in packets (0 = the default policy)")
	window := flag.Int("window", 0, "credit-based flow-control link window (0 = the default window)")
	tenants := flag.Int("tenants", 1, "concurrent tenant sessions to run the query in")
	stats := flag.Bool("stats", false, "print the overlay metrics snapshot (and per-tenant counters with -tenants > 1) after the query")
	flag.Parse()

	tree, err := topology.ParseSpec(*spec)
	if err != nil {
		fatal(err)
	}
	opts := []query.Option{query.WithLinkWindow(*window), query.WithBatch(core.BatchPolicy{MaxBatch: *batch})}
	nw, err := query.NewNetwork(tree, func(rank core.Rank) query.AttrSource {
		rng := rand.New(rand.NewSource(*seed + int64(rank)))
		return func() map[string]float64 {
			return map[string]float64{
				"zone": float64(rank % 4),
				"load": 0.5 + rng.Float64()*2,
				"mem":  float64(256 + rank%32*64),
			}
		}
	}, opts...)
	if err != nil {
		fatal(err)
	}
	defer nw.Shutdown()

	n := *tenants
	if n < 1 {
		n = 1
	}
	mgr := session.NewManager(nw, session.Config{MaxSessions: n})
	engines := make([]*query.Engine, n)
	for i := range engines {
		sess, err := mgr.Open(fmt.Sprintf("tenant-%d", i), session.WithWeight(i+1))
		if err != nil {
			fatal(err)
		}
		engines[i] = query.NewSessionEngine(nw, sess)
	}

	start := time.Now()
	results := make([]*query.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, eng := range engines {
		wg.Add(1)
		go func(i int, eng *query.Engine) {
			defer wg.Done()
			results[i], errs[i] = eng.Run(*q, time.Minute)
		}(i, eng)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			fatal(err)
		}
	}
	// Tenant 0's table is printed; the others ran the same query against
	// live (noisy) attributes, so their row values may differ slightly.
	res := results[0]
	fmt.Printf("%s\n(%d hosts, %d tenant(s), %v)\n\n%s",
		res.Query, len(tree.Leaves()), n, elapsed, res.Render())

	if *stats {
		snap := engines[0].MetricsSnapshot()
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("\n## overlay metrics\n")
		for _, k := range keys {
			fmt.Printf("%-24s %d\n", k, snap[k])
		}
		if n > 1 {
			fmt.Printf("\n## per-tenant counters\n")
			ts := nw.TenantSnapshot()
			names := make([]string, 0, len(ts))
			for name := range ts {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				tc := ts[name]
				fmt.Printf("%-12s up %-6d down %-6d streams %d/%d\n", name,
					tc["packets_up"], tc["packets_down"],
					tc["streams_opened"], tc["streams_closed"])
			}
		}
	}
	if err := mgr.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tbon-query: %v\n", err)
	os.Exit(1)
}
