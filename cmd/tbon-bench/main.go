// Command tbon-bench prints the tables of the paper's evaluation (see
// DESIGN.md's per-experiment index) and of the ablations the roadmap still
// needs. Performance is recorded by the benchmark under bench/, not here.
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
//	tbon-bench -exp all           # everything
//
// Sizes are configurable; defaults reproduce the paper's scales. An
// unknown -exp exits 2 and lists the valid names. -cpuprofile and
// -memprofile write pprof profiles of the selected experiments for
// `go tool pprof`, also when an experiment fails.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

// sizes holds the size flags; a zero value keeps the runner's default.
type sizes struct {
	scales          string
	points, daemons int
	sgfaLeaves      int
}

// runners is every -exp name in the order -exp all runs them; each entry
// runs its experiment and returns the rendered table.
var runners = []struct {
	name string
	run  func(sz *sizes) (string, error)
}{
	{"fig4", func(sz *sizes) (string, error) {
		cfg := experiments.DefaultFig4Config()
		if sz.scales != "" {
			cfg.Scales = nil
			for _, f := range strings.Split(sz.scales, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil {
					return "", fmt.Errorf("bad -scales: %w", err)
				}
				cfg.Scales = append(cfg.Scales, n)
			}
		}
		if sz.points > 0 {
			cfg.PointsPerCluster = sz.points
		}
		rows, err := experiments.RunFig4(cfg)
		if err != nil {
			return "", err
		}
		return experiments.Fig4Table(rows), nil
	}},
	{"startup", func(sz *sizes) (string, error) {
		cfg := experiments.DefaultStartupConfig()
		if sz.daemons > 0 {
			cfg.Daemons = sz.daemons
		}
		res, err := experiments.RunStartup(cfg)
		if err != nil {
			return "", err
		}
		return experiments.StartupTable(res), nil
	}},
	{"throughput", func(*sizes) (string, error) {
		rows, err := experiments.RunThroughput(experiments.DefaultThroughputConfig())
		if err != nil {
			return "", err
		}
		return experiments.ThroughputTable(rows), nil
	}},
	{"overhead", func(*sizes) (string, error) {
		rows, err := experiments.RunOverhead()
		if err != nil {
			return "", err
		}
		return experiments.OverheadTable(rows), nil
	}},
	{"sgfa", func(sz *sizes) (string, error) {
		cfg := experiments.DefaultSGFAConfig()
		if sz.sgfaLeaves > 0 {
			cfg.Leaves = sz.sgfaLeaves
		}
		res, err := experiments.RunSGFA(cfg)
		if err != nil {
			return "", err
		}
		return experiments.SGFATable(res), nil
	}},
	{"fanout", func(*sizes) (string, error) {
		cfg := experiments.DefaultFanOutSweepConfig()
		rows, err := experiments.RunFanOutSweep(cfg)
		if err != nil {
			return "", err
		}
		return experiments.FanOutTable(cfg.Leaves, rows), nil
	}},
	{"sync", func(*sizes) (string, error) {
		rows, err := experiments.RunSyncPolicyAblation(16, 300*time.Millisecond)
		if err != nil {
			return "", err
		}
		return experiments.SyncPolicyTable(rows), nil
	}},
	{"transport", func(*sizes) (string, error) {
		rows, err := experiments.RunTransportAblation(32, 20)
		if err != nil {
			return "", err
		}
		return experiments.TransportTable(32, rows), nil
	}},
	{"recovery", func(*sizes) (string, error) {
		rows, err := experiments.RunRecovery(experiments.DefaultRecoveryConfig())
		if err != nil {
			return "", err
		}
		return experiments.RecoveryTable(rows), nil
	}},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the selected experiments and returns the exit
// status: 0 on success, 1 when an experiment or a profile fails, 2 on a
// bad command line. Both profiles are complete before it returns.
func run(args []string, stdout, stderr io.Writer) (status int) {
	names := make([]string, len(runners))
	for i, r := range runners {
		names[i] = r.name
	}
	valid := strings.Join(names, "|") + "|all"

	fs := flag.NewFlagSet("tbon-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var sz sizes
	exp := fs.String("exp", "all", "experiment: "+valid)
	fs.StringVar(&sz.scales, "scales", "", "comma-separated fig4 scales (default 16,32,48,64,128,256,324)")
	fs.IntVar(&sz.points, "points", 0, "fig4 raw samples per cluster per leaf (default 120)")
	fs.IntVar(&sz.daemons, "daemons", 0, "startup daemon count (default 512)")
	fs.IntVar(&sz.sgfaLeaves, "sgfa-leaves", 0, "sgfa back-end count (default 1024)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (after the selected experiments) to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	selected := runners
	if *exp != "all" {
		selected = nil
		for _, r := range runners {
			if r.name == *exp {
				selected = append(selected, r)
			}
		}
		if len(selected) == 0 {
			fmt.Fprintf(stderr, "tbon-bench: unknown -exp %q; valid: %s\n", *exp, valid)
			return 2
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "tbon-bench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "tbon-bench: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "tbon-bench: -cpuprofile: %v\n", err)
				status = 1
			}
		}()
	}
	if *memProfile != "" {
		// Deferred so it snapshots the heap after the selected experiments.
		defer func() {
			if err := writeHeapProfile(*memProfile); err != nil {
				fmt.Fprintf(stderr, "tbon-bench: -memprofile: %v\n", err)
				status = 1
			}
		}()
	}

	for _, r := range selected {
		out, err := r.run(&sz)
		if err != nil {
			fmt.Fprintf(stderr, "tbon-bench: %s: %v\n", r.name, err)
			return 1
		}
		fmt.Fprintln(stdout, out)
	}
	return 0
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile shows retained state
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
