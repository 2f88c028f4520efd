package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/meanshift"
	"repro/internal/topology"
)

// FanOutSweepConfig explores the paper's open question — "whether even
// deeper trees with limited fan-outs would yield a constant execution time
// as the scale increases" — by fixing the back-end count and varying the
// fan-out (and therefore the depth) of the tree.
type FanOutSweepConfig struct {
	// Leaves is the fixed back-end count.
	Leaves int
	// FanOuts are the per-run fan-out bounds.
	FanOuts []int
	// Fig4 supplies the data/network model (Scales is ignored).
	Fig4 Fig4Config
}

// DefaultFanOutSweepConfig fixes 256 back-ends.
func DefaultFanOutSweepConfig() FanOutSweepConfig {
	return FanOutSweepConfig{
		Leaves:  256,
		FanOuts: []int{2, 4, 8, 16, 64, 256},
		Fig4:    DefaultFig4Config(),
	}
}

// FanOutRow is one sweep position.
type FanOutRow struct {
	FanOut   int
	Depth    int
	Internal int
	Makespan time.Duration
}

// RunFanOutSweep reproduces the deep-tree ablation using the Figure 4
// machinery at a fixed scale.
func RunFanOutSweep(cfg FanOutSweepConfig) ([]FanOutRow, error) {
	if cfg.Leaves == 0 {
		cfg = DefaultFanOutSweepConfig()
	}
	centers := meanshift.DefaultCenters(cfg.Fig4.Clusters, cfg.Fig4.Field)
	leafData := make([][]meanshift.Point, cfg.Leaves)
	for i := range leafData {
		leafData[i] = meanshift.Generate(meanshift.GenParams{
			Centers:          centers,
			Spread:           cfg.Fig4.Spread,
			PointsPerCluster: cfg.Fig4.PointsPerCluster,
			CenterJitter:     cfg.Fig4.Jitter,
			Seed:             cfg.Fig4.Seed + int64(i),
		})
	}
	var rows []FanOutRow
	for _, f := range cfg.FanOuts {
		var tree *topology.Tree
		var err error
		if f >= cfg.Leaves {
			tree, err = topology.Flat(cfg.Leaves)
		} else {
			tree, err = topology.Balanced(cfg.Leaves, f)
		}
		if err != nil {
			return nil, err
		}
		makespan, _, err := distributedMakespan(tree, leafData, cfg.Fig4)
		if err != nil {
			return nil, fmt.Errorf("experiments: fan-out %d: %w", f, err)
		}
		s := tree.Stats()
		rows = append(rows, FanOutRow{
			FanOut:   s.MaxFanOut,
			Depth:    s.Depth,
			Internal: s.Internal,
			Makespan: makespan,
		})
	}
	return rows, nil
}

// FanOutTable renders the sweep.
func FanOutTable(leaves int, rows []FanOutRow) string {
	tb := newTable(
		fmt.Sprintf("ABLATE-FANOUT — %d back-ends, varying fan-out (paper §3.2 open question)", leaves),
		"fan-out", "depth", "internal-nodes", "makespan")
	for _, r := range rows {
		tb.addRow(r.FanOut, r.Depth, r.Internal, r.Makespan)
	}
	return tb.String()
}

// SyncPolicyRow compares synchronization policies on one overlay.
type SyncPolicyRow struct {
	Policy     string
	Deliveries int
	Latency    time.Duration
}

// RunSyncPolicyAblation measures how the three built-in synchronization
// policies trade front-end deliveries against latency on a real overlay
// where one back-end is slow: WaitForAll delays everything to the
// straggler, TimeOut bounds the wait, Null forwards eagerly.
func RunSyncPolicyAblation(leaves int, straggle time.Duration) ([]SyncPolicyRow, error) {
	if leaves <= 0 {
		leaves = 16
	}
	var rows []SyncPolicyRow
	for _, policy := range []string{"waitforall", "timeout", "nullsync"} {
		tree, err := topology.Balanced(leaves, 4)
		if err != nil {
			return nil, err
		}
		// Timeout windows cascade once per tree level, so the window must
		// be well under straggle/depth for the policy to beat WaitForAll.
		reg := filter.NewRegistry()
		reg.RegisterSynchronizer("timeout", func() filter.Synchronizer {
			return filter.NewTimeOut(straggle / 4)
		})
		nw, err := core.NewNetwork(core.Config{
			Topology: tree,
			Registry: reg,
			OnBackEnd: func(be *core.BackEnd) error {
				for {
					p, err := be.Recv()
					if err != nil {
						return nil
					}
					if be.Rank() == tree.Leaves()[0] {
						time.Sleep(straggle) // the straggler
					}
					if err := be.Send(p.StreamID, p.Tag, "%f", 1.0); err != nil {
						return nil
					}
				}
			},
		})
		if err != nil {
			return nil, err
		}
		st, err := nw.NewStream(core.StreamSpec{Transformation: "sum", Synchronization: policy})
		if err != nil {
			nw.Shutdown()
			return nil, err
		}
		start := time.Now()
		if err := st.Multicast(100, ""); err != nil {
			nw.Shutdown()
			return nil, err
		}
		// First delivery latency, then drain briefly to count deliveries.
		first, err := st.RecvTimeout(30 * time.Second)
		if err != nil {
			nw.Shutdown()
			return nil, fmt.Errorf("policy %s: %w", policy, err)
		}
		latency := time.Since(start)
		deliveries := 1
		_ = first
		deadline := time.Now().Add(2 * straggle)
		for time.Now().Before(deadline) {
			if _, err := st.RecvTimeout(50 * time.Millisecond); err != nil {
				continue
			}
			deliveries++
		}
		nw.Shutdown()
		rows = append(rows, SyncPolicyRow{Policy: policy, Deliveries: deliveries, Latency: latency})
	}
	return rows, nil
}

// SyncPolicyTable renders the ablation.
func SyncPolicyTable(rows []SyncPolicyRow) string {
	tb := newTable(
		"ABLATE-SYNC — synchronization policy vs first-result latency (one straggling back-end)",
		"policy", "fe-deliveries", "first-result latency")
	for _, r := range rows {
		tb.addRow(r.Policy, r.Deliveries, r.Latency)
	}
	return tb.String()
}

// TransportRow compares the chan and TCP substrates.
type TransportRow struct {
	Transport string
	RoundTrip time.Duration
}

// RunTransportAblation measures one reduction round (multicast + reduced
// response) on each transport over the same topology.
func RunTransportAblation(leaves, rounds int) ([]TransportRow, error) {
	if leaves <= 0 {
		leaves = 32
	}
	if rounds <= 0 {
		rounds = 20
	}
	var rows []TransportRow
	for _, kind := range []struct {
		name string
		k    core.TransportKind
	}{{"chan", core.ChanTransport}, {"tcp", core.TCPTransport}} {
		tree, err := topology.Balanced(leaves, 8)
		if err != nil {
			return nil, err
		}
		nw, err := core.NewNetwork(core.Config{
			Topology:  tree,
			Transport: kind.k,
			OnBackEnd: func(be *core.BackEnd) error {
				for {
					p, err := be.Recv()
					if err != nil {
						return nil
					}
					if err := be.Send(p.StreamID, p.Tag, "%f", 1.0); err != nil {
						return nil
					}
				}
			},
		})
		if err != nil {
			return nil, err
		}
		st, err := nw.NewStream(core.StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
		if err != nil {
			nw.Shutdown()
			return nil, err
		}
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if err := st.Multicast(100, ""); err != nil {
				nw.Shutdown()
				return nil, err
			}
			if _, err := st.RecvTimeout(60 * time.Second); err != nil {
				nw.Shutdown()
				return nil, fmt.Errorf("%s round %d: %w", kind.name, i, err)
			}
		}
		per := time.Since(start) / time.Duration(rounds)
		nw.Shutdown()
		rows = append(rows, TransportRow{Transport: kind.name, RoundTrip: per})
	}
	return rows, nil
}

// TransportTable renders the ablation.
func TransportTable(leaves int, rows []TransportRow) string {
	tb := newTable(
		fmt.Sprintf("ABLATE-TRANSPORT — reduction round over %d back-ends", leaves),
		"transport", "round latency")
	for _, r := range rows {
		tb.addRow(r.Transport, r.RoundTrip)
	}
	return tb.String()
}
