package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// BatchingConfig parameterizes the batching ablation: upstream throughput
// of small packets as a function of the egress flush window and the tree
// fan-out. Window 1 flushes every packet (the per-packet baseline).
type BatchingConfig struct {
	// Leaves is the back-end count.
	Leaves int
	// FanOuts are the tree fan-outs swept.
	FanOuts []int
	// Windows are the egress flush windows swept (BatchPolicy.MaxBatch).
	Windows []int
	// Rounds is the number of packets each back-end sends per run.
	Rounds int
	// MaxDelay is the egress age bound.
	MaxDelay time.Duration
}

// DefaultBatchingConfig sweeps the flush window across two tree shapes at
// laptop-runnable size.
func DefaultBatchingConfig() BatchingConfig {
	return BatchingConfig{
		Leaves:   256,
		FanOuts:  []int{8, 16},
		Windows:  []int{1, 4, 16, 64},
		Rounds:   600,
		MaxDelay: 2 * time.Millisecond,
	}
}

// BatchingRow is one sweep position.
type BatchingRow struct {
	FanOut int
	Window int
	// Rate is back-end packets per second absorbed by the overlay.
	Rate float64
	// AvgFrame is the mean packets per link frame.
	AvgFrame float64
	// HighWater is the deepest egress queue observed.
	HighWater int64
}

// RunBatching measures upstream small-packet throughput for every
// (fan-out, window) pair: each back-end blasts Rounds single-int packets
// through a waitforall+sum pipeline and the run ends when the front-end
// has consumed every reduced round.
func RunBatching(cfg BatchingConfig) ([]BatchingRow, error) {
	if cfg.Leaves == 0 {
		cfg = DefaultBatchingConfig()
	}
	var rows []BatchingRow
	for _, f := range cfg.FanOuts {
		for _, w := range cfg.Windows {
			rate, avg, hw, err := batchingRun(cfg.Leaves, f, w, cfg.Rounds, cfg.MaxDelay)
			if err != nil {
				return nil, fmt.Errorf("experiments: batching fanout %d window %d: %w", f, w, err)
			}
			rows = append(rows, BatchingRow{FanOut: f, Window: w, Rate: rate, AvgFrame: avg, HighWater: hw})
		}
	}
	return rows, nil
}

// BatchingPoint measures one (fan-out, window) position, for benchmarks.
func BatchingPoint(leaves, fanOut, window, rounds int) (rate float64, err error) {
	rate, _, _, err = batchingRun(leaves, fanOut, window, rounds, 2*time.Millisecond)
	return rate, err
}

func batchingRun(leaves, fanOut, window, rounds int, maxDelay time.Duration) (float64, float64, int64, error) {
	tree, err := topology.Balanced(leaves, fanOut)
	if err != nil {
		return 0, 0, 0, err
	}
	nw, err := core.NewNetwork(core.Config{
		Topology: tree,
		Batch:    core.BatchPolicy{MaxBatch: window, MaxDelay: maxDelay},
		OnBackEnd: func(be *core.BackEnd) error {
			p, err := be.Recv()
			if err != nil {
				return nil
			}
			for i := 0; i < rounds; i++ {
				if err := be.Send(p.StreamID, p.Tag, "%d", int64(i)); err != nil {
					return nil
				}
			}
			for {
				if _, err := be.Recv(); err != nil {
					return nil
				}
			}
		},
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer nw.Shutdown()
	st, err := nw.NewStream(core.StreamSpec{
		Transformation:  "sum",
		Synchronization: "waitforall",
		RecvBuffer:      rounds + 8,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	// End-to-end measurement, multicast to last reduced round. The one-off
	// request propagation pays the egress age bound per level on the idle
	// downstream path, so Rounds must be large enough to amortize that
	// fixed few-millisecond startup (the defaults are).
	start := time.Now()
	if err := st.Multicast(100, ""); err != nil {
		return 0, 0, 0, err
	}
	for i := 0; i < rounds; i++ {
		if _, err := st.RecvTimeout(120 * time.Second); err != nil {
			return 0, 0, 0, fmt.Errorf("after %d of %d rounds: %w", i, rounds, err)
		}
	}
	elapsed := time.Since(start)
	m := nw.Metrics()
	avg := 1.0
	if frames := m.FramesSent.Load(); frames > 0 {
		avg = float64(m.PacketsQueued.Load()) / float64(frames)
	}
	rate := float64(leaves*rounds) / elapsed.Seconds()
	return rate, avg, m.EgressHighWater.Load(), nil
}

// BatchingTable renders the sweep.
func BatchingTable(cfg BatchingConfig, rows []BatchingRow) string {
	if cfg.Leaves == 0 {
		cfg = DefaultBatchingConfig()
	}
	tb := metrics.NewTable(
		fmt.Sprintf("ABLATE-BATCHING — upstream small-packet throughput, %d back-ends (window 1 = a frame per packet)", cfg.Leaves),
		"fan-out", "window", "pkts/s", "vs-w1", "avg-frame", "queue-hw")
	base := map[int]float64{}
	for _, r := range rows {
		if r.Window == 1 {
			base[r.FanOut] = r.Rate
		}
	}
	for _, r := range rows {
		speedup := "-"
		if b := base[r.FanOut]; b > 0 && r.Window != 1 {
			speedup = fmt.Sprintf("%.2fx", r.Rate/b)
		}
		tb.AddRow(r.FanOut, r.Window, r.Rate, speedup, fmt.Sprintf("%.1f", r.AvgFrame), r.HighWater)
	}
	return tb.String()
}
