package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

// ThroughputConfig parameterizes the front-end data-processing experiment
// (§2.2's prose result: Paradyn's one-to-many front-end could not keep up
// with more than 32 daemons producing performance data for 32 functions;
// the MRNet front-end easily processed 512).
type ThroughputConfig struct {
	// DaemonCounts are the x positions (paper: up to 512).
	DaemonCounts []int
	// Rounds is the number of data waves each daemon produces. It must
	// span many egress flush windows: a burst shorter than one window is
	// carried by idle flushes alone, and the run then measures per-hop
	// wakeups, not the front-end's processing rate.
	Rounds int
	// Functions is the per-record metric vector width (paper: 32).
	Functions int
	// FanOut is the tree fan-out for the TBON runs.
	FanOut int
}

// DefaultThroughputConfig mirrors the paper's experiment at laptop size.
func DefaultThroughputConfig() ThroughputConfig {
	return ThroughputConfig{
		DaemonCounts: []int{16, 32, 64, 128, 256, 512},
		Rounds:       400,
		Functions:    32,
		FanOut:       8,
	}
}

// ThroughputRow compares the organizations at one daemon count.
type ThroughputRow struct {
	Daemons int
	// FlatRate and TreeRate are front-end-consumed daemon-records/second.
	FlatRate, TreeRate float64
	// FlatPkts and TreePkts are packets the front-end process handled.
	FlatPkts, TreePkts int64
}

// RunThroughput reproduces T-THROUGHPUT on the real overlay: every daemon
// sends Rounds records of Functions float metrics as fast as the network
// accepts them. In the flat organization the front-end must parse every
// record itself (identity filter); in the TBON the per-level sum filter
// reduces each wave to one packet. The measured rate is total records
// divided by the time until the front-end has consumed everything.
func RunThroughput(cfg ThroughputConfig) ([]ThroughputRow, error) {
	if len(cfg.DaemonCounts) == 0 {
		cfg = DefaultThroughputConfig()
	}
	var rows []ThroughputRow
	for _, n := range cfg.DaemonCounts {
		flatRate, flatPkts, err := throughputRun(topologyFlat(n), "", "nullsync", cfg, n)
		if err != nil {
			return nil, fmt.Errorf("experiments: throughput flat %d: %w", n, err)
		}
		tree, err := topology.Balanced(n, cfg.FanOut)
		if err != nil {
			return nil, err
		}
		treeRate, treePkts, err := throughputRun(tree, "sum", "waitforall", cfg, n)
		if err != nil {
			return nil, fmt.Errorf("experiments: throughput tree %d: %w", n, err)
		}
		rows = append(rows, ThroughputRow{
			Daemons:  n,
			FlatRate: flatRate, TreeRate: treeRate,
			FlatPkts: flatPkts, TreePkts: treePkts,
		})
	}
	return rows, nil
}

func topologyFlat(n int) *topology.Tree {
	t, err := topology.Flat(n)
	if err != nil {
		panic(err)
	}
	return t
}

func throughputRun(tree *topology.Tree, tform, sync string, cfg ThroughputConfig, daemons int) (float64, int64, error) {
	payload := make([]float64, cfg.Functions)
	for i := range payload {
		payload[i] = float64(i)
	}
	nw, err := core.NewNetwork(core.Config{
		Topology: tree,
		OnBackEnd: func(be *core.BackEnd) error {
			p, err := be.Recv()
			if err != nil {
				return nil
			}
			for r := 0; r < cfg.Rounds; r++ {
				if err := be.Send(p.StreamID, p.Tag, "%af", payload); err != nil {
					return nil
				}
			}
			// Drain until shutdown.
			for {
				if _, err := be.Recv(); err != nil {
					return nil
				}
			}
		},
	})
	if err != nil {
		return 0, 0, err
	}
	defer nw.Shutdown()
	st, err := nw.NewStream(core.StreamSpec{
		Transformation:  tform,
		Synchronization: sync,
		RecvBuffer:      4096,
	})
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if err := st.Multicast(100, ""); err != nil {
		return 0, 0, err
	}
	// Expected front-end deliveries: every record individually (flat,
	// identity) or one reduced packet per wave (tree, waitforall+sum).
	expect := cfg.Rounds
	if tform == "" {
		expect = cfg.Rounds * daemons
	}
	var sink float64
	for i := 0; i < expect; i++ {
		p, err := st.RecvTimeout(120 * time.Second)
		if err != nil {
			return 0, 0, fmt.Errorf("after %d of %d deliveries: %w", i, expect, err)
		}
		// "Process" the record the way a tool front-end would: touch every
		// metric.
		xs, err := p.FloatArray(0)
		if err != nil {
			return 0, 0, err
		}
		for _, x := range xs {
			sink += x
		}
	}
	_ = sink
	elapsed := time.Since(start)
	records := float64(cfg.Rounds * daemons)
	return records / elapsed.Seconds(), nw.Metrics().PacketsUp.Load(), nil
}

// ThroughputTable renders the rows.
func ThroughputTable(rows []ThroughputRow) string {
	tb := newTable(
		"T-THROUGHPUT — front-end processing rate (daemon-records/s; paper: flat saturates past 32 daemons)",
		"daemons", "flat rec/s", "tree rec/s", "tree/flat")
	for _, r := range rows {
		ratio := r.TreeRate / r.FlatRate
		tb.addRow(r.Daemons, r.FlatRate, r.TreeRate, fmt.Sprintf("%.1fx", ratio))
	}
	return tb.String()
}
