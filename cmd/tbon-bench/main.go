// Command tbon-bench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index) and the ablations.
//
// Usage:
//
//	tbon-bench -exp fig4          # Figure 4: mean-shift scaling study
//	tbon-bench -exp startup       # §2.2: 512-daemon startup (T-STARTUP)
//	tbon-bench -exp throughput    # §2.2: front-end data rate (T-THROUGHPUT)
//	tbon-bench -exp overhead      # §3.2: internal-node overhead (T-OVERHEAD)
//	tbon-bench -exp sgfa          # §2.2: sub-graph folding (T-SGFA)
//	tbon-bench -exp fanout        # ablation: fan-out sweep (open question)
//	tbon-bench -exp sync          # ablation: synchronization policies
//	tbon-bench -exp transport     # ablation: chan vs TCP substrate
//	tbon-bench -exp recovery      # T-RECOVERY: failure recovery latency
//	tbon-bench -exp batching      # ablation: egress flush window sweep
//	tbon-bench -exp flowcontrol   # ablation: credit window × slow consumer
//	tbon-bench -exp multitenant   # session fabric: N tenants over one overlay
//	tbon-bench -exp elastic       # ablation: elastic topology mutation under skew
//	tbon-bench -exp all           # everything
//
// Sizes are configurable; defaults reproduce the paper's scales. With
// -json the selected experiments emit one machine-readable array of
// {experiment, recorded_at, gomaxprocs, rows} envelopes on stdout instead
// of tables — redirect to BENCH_<tag>.json to record the perf trajectory
// of a change. -cpuprofile and -memprofile write pprof profiles of the
// selected experiments for `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig4|startup|throughput|overhead|sgfa|fanout|sync|transport|recovery|batching|flowcontrol|multitenant|elastic|all")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON (an array of {experiment, rows} envelopes) instead of tables; record as BENCH_*.json to track the perf trajectory")
	scales := flag.String("scales", "", "comma-separated fig4 scales (default 16,32,48,64,128,256,324)")
	points := flag.Int("points", 0, "fig4 raw samples per cluster per leaf (default 120)")
	daemons := flag.Int("daemons", 0, "startup daemon count (default 512)")
	sgfaLeaves := flag.Int("sgfa-leaves", 0, "sgfa back-end count (default 1024)")
	batchLeaves := flag.Int("batch-leaves", 0, "batching ablation back-end count (default 256)")
	batchRounds := flag.Int("batch-rounds", 0, "batching ablation packets per back-end (default 200)")
	fcLeaves := flag.Int("fc-leaves", 0, "flowcontrol ablation back-end count (default 64)")
	fcRounds := flag.Int("fc-rounds", 0, "flowcontrol ablation multicast rounds (default 400)")
	mtLeaves := flag.Int("mt-leaves", 0, "multitenant back-end count (default 64)")
	mtOps := flag.Int("mt-ops", 0, "multitenant operations per tenant (default 24)")
	elHotQuota := flag.Int("el-hotquota", 0, "elastic ablation packets per hot leaf (default 4000)")
	elWindow := flag.Int("el-window", 0, "elastic ablation credit window (default 4)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the selected experiments) to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tbon-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "tbon-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Deferred so it snapshots the heap after the selected experiments;
		// errors are reported without os.Exit so the CPU-profile stop (also
		// deferred) still runs.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tbon-bench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "tbon-bench: -memprofile: %v\n", err)
			}
		}()
	}

	var reports []experiments.Report
	// table renders a human-readable table only when someone will see it;
	// -json runs skip the formatting entirely.
	table := func(f func() string) string {
		if *jsonOut {
			return ""
		}
		return f()
	}
	// run executes one experiment; f returns the typed result rows (for
	// -json) and the rendered table (for humans).
	run := func(name string, f func() (any, string, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		rows, table, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tbon-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if *jsonOut {
			reports = append(reports, experiments.NewReport(name, rows))
			return
		}
		fmt.Println(table)
	}

	run("fig4", func() (any, string, error) {
		cfg := experiments.DefaultFig4Config()
		if *scales != "" {
			cfg.Scales = nil
			for _, f := range strings.Split(*scales, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil {
					return nil, "", fmt.Errorf("bad -scales: %w", err)
				}
				cfg.Scales = append(cfg.Scales, n)
			}
		}
		if *points > 0 {
			cfg.PointsPerCluster = *points
		}
		rows, err := experiments.RunFig4(cfg)
		if err != nil {
			return nil, "", err
		}
		return rows, table(func() string { return experiments.Fig4Table(rows) }), nil
	})

	run("startup", func() (any, string, error) {
		cfg := experiments.DefaultStartupConfig()
		if *daemons > 0 {
			cfg.Daemons = *daemons
		}
		res, err := experiments.RunStartup(cfg)
		if err != nil {
			return nil, "", err
		}
		return res, table(func() string { return experiments.StartupTable(res) }), nil
	})

	run("throughput", func() (any, string, error) {
		rows, err := experiments.RunThroughput(experiments.DefaultThroughputConfig())
		if err != nil {
			return nil, "", err
		}
		return rows, table(func() string { return experiments.ThroughputTable(rows) }), nil
	})

	run("overhead", func() (any, string, error) {
		rows, err := experiments.RunOverhead()
		if err != nil {
			return nil, "", err
		}
		return rows, table(func() string { return experiments.OverheadTable(rows) }), nil
	})

	run("sgfa", func() (any, string, error) {
		cfg := experiments.DefaultSGFAConfig()
		if *sgfaLeaves > 0 {
			cfg.Leaves = *sgfaLeaves
		}
		res, err := experiments.RunSGFA(cfg)
		if err != nil {
			return nil, "", err
		}
		return res, table(func() string { return experiments.SGFATable(res) }), nil
	})

	run("fanout", func() (any, string, error) {
		cfg := experiments.DefaultFanOutSweepConfig()
		rows, err := experiments.RunFanOutSweep(cfg)
		if err != nil {
			return nil, "", err
		}
		return rows, table(func() string { return experiments.FanOutTable(cfg.Leaves, rows) }), nil
	})

	run("sync", func() (any, string, error) {
		rows, err := experiments.RunSyncPolicyAblation(16, 300*time.Millisecond)
		if err != nil {
			return nil, "", err
		}
		return rows, table(func() string { return experiments.SyncPolicyTable(rows) }), nil
	})

	run("transport", func() (any, string, error) {
		rows, err := experiments.RunTransportAblation(32, 20)
		if err != nil {
			return nil, "", err
		}
		return rows, table(func() string { return experiments.TransportTable(32, rows) }), nil
	})

	run("recovery", func() (any, string, error) {
		rows, err := experiments.RunRecovery(experiments.DefaultRecoveryConfig())
		if err != nil {
			return nil, "", err
		}
		return rows, table(func() string { return experiments.RecoveryTable(rows) }), nil
	})

	run("batching", func() (any, string, error) {
		cfg := experiments.DefaultBatchingConfig()
		if *batchLeaves > 0 {
			cfg.Leaves = *batchLeaves
		}
		if *batchRounds > 0 {
			cfg.Rounds = *batchRounds
		}
		rows, err := experiments.RunBatching(cfg)
		if err != nil {
			return nil, "", err
		}
		return rows, table(func() string { return experiments.BatchingTable(cfg, rows) }), nil
	})

	run("flowcontrol", func() (any, string, error) {
		cfg := experiments.DefaultFlowControlConfig()
		if *fcLeaves > 0 {
			cfg.Leaves = *fcLeaves
		}
		if *fcRounds > 0 {
			cfg.Rounds = *fcRounds
		}
		rows, err := experiments.RunFlowControl(cfg)
		if err != nil {
			return nil, "", err
		}
		return rows, table(func() string { return experiments.FlowControlTable(cfg, rows) }), nil
	})

	run("multitenant", func() (any, string, error) {
		cfg := experiments.DefaultMultiTenantConfig()
		if *mtLeaves > 0 {
			cfg.Leaves = *mtLeaves
		}
		if *mtOps > 0 {
			cfg.OpsPerTenant = *mtOps
		}
		rows, err := experiments.RunMultiTenant(cfg)
		if err != nil {
			return nil, "", err
		}
		return rows, table(func() string { return experiments.MultiTenantTable(cfg, rows) }), nil
	})

	run("elastic", func() (any, string, error) {
		cfg := experiments.DefaultElasticConfig()
		if *elHotQuota > 0 {
			cfg.HotQuota = *elHotQuota
		}
		if *elWindow > 0 {
			cfg.Window = *elWindow
		}
		rows, err := experiments.RunElastic(cfg)
		if err != nil {
			return nil, "", err
		}
		return rows, table(func() string { return experiments.ElasticTable(cfg, rows) }), nil
	})

	if *jsonOut {
		if err := experiments.WriteJSON(os.Stdout, reports); err != nil {
			fmt.Fprintf(os.Stderr, "tbon-bench: writing JSON: %v\n", err)
			os.Exit(1)
		}
	}
}
