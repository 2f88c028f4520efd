package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// FlowControlConfig parameterizes the flow-control ablation: downstream
// multicast throughput and memory behavior as a function of the credit
// window and of how much slower one consumer is than its siblings.
type FlowControlConfig struct {
	// Leaves is the back-end count.
	Leaves int
	// FanOut is the tree fan-out.
	FanOut int
	// Windows are the credit windows swept (core.Config.LinkWindow).
	Windows []int
	// SlowFactors are the slow-consumer ratios swept: one back-end
	// processes each packet factor× slower than its siblings (1 = uniform
	// consumers).
	SlowFactors []int
	// Rounds is the number of multicast rounds per run.
	Rounds int
	// PerPacket is the fast consumers' per-packet processing time.
	PerPacket time.Duration
}

// DefaultFlowControlConfig sweeps window {16, 64} against uniform and
// 100×-slower consumers at laptop-runnable size.
func DefaultFlowControlConfig() FlowControlConfig {
	return FlowControlConfig{
		Leaves:      64,
		FanOut:      8,
		Windows:     []int{16, 64},
		SlowFactors: []int{1, 100},
		Rounds:      400,
		PerPacket:   10 * time.Microsecond,
	}
}

// FlowControlRow is one sweep position.
type FlowControlRow struct {
	Window     int
	SlowFactor int
	// Rate is downstream packets per second absorbed by the overlay
	// (leaves × rounds / wall time).
	Rate float64
	// EgressHighWater is the deepest per-link egress queue observed,
	// bounded by Window.
	EgressHighWater int64
	// MailboxHighWater is the deepest shard mailbox observed.
	MailboxHighWater int64
	// CreditStalls counts flushes cut short by an exhausted peer window.
	CreditStalls int64
	// CreditGrants counts grant packets returned by receivers.
	CreditGrants int64
}

// RunFlowControl measures every (window, slow-factor) pair: the front-end
// multicasts Rounds packets to every back-end; one back-end consumes
// SlowFactor× slower than the rest; the run ends when every back-end has
// acknowledged its last packet upstream.
func RunFlowControl(cfg FlowControlConfig) ([]FlowControlRow, error) {
	if cfg.Leaves == 0 {
		cfg = DefaultFlowControlConfig()
	}
	var rows []FlowControlRow
	for _, w := range cfg.Windows {
		for _, f := range cfg.SlowFactors {
			row, err := flowControlRun(cfg, w, f)
			if err != nil {
				return nil, fmt.Errorf("experiments: flowcontrol window %d slow %d: %w", w, f, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func flowControlRun(cfg FlowControlConfig, window, slowFactor int) (FlowControlRow, error) {
	tree, err := topology.Balanced(cfg.Leaves, cfg.FanOut)
	if err != nil {
		return FlowControlRow{}, err
	}
	slowRank := tree.Leaves()[0]
	nw, err := core.NewNetwork(core.Config{
		Topology:   tree,
		Batch:      core.BatchPolicy{MaxBatch: 16, MaxDelay: 2 * time.Millisecond},
		LinkWindow: window,
		OnBackEnd: func(be *core.BackEnd) error {
			delay := cfg.PerPacket
			if be.Rank() == slowRank {
				delay = time.Duration(slowFactor) * cfg.PerPacket
			}
			seen := 0
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				time.Sleep(delay)
				seen++
				if seen == cfg.Rounds {
					// Final ack: one upstream packet once this back-end has
					// consumed the whole run.
					if err := be.Send(p.StreamID, p.Tag, "%d", int64(1)); err != nil {
						return nil
					}
				}
			}
		},
	})
	if err != nil {
		return FlowControlRow{}, err
	}
	defer nw.Shutdown()
	st, err := nw.NewStream(core.StreamSpec{
		Transformation:  "sum",
		Synchronization: "waitforall",
		RecvBuffer:      8,
	})
	if err != nil {
		return FlowControlRow{}, err
	}
	start := time.Now()
	for r := 0; r < cfg.Rounds; r++ {
		if err := st.Multicast(100, "%d", int64(r)); err != nil {
			return FlowControlRow{}, err
		}
	}
	// One reduced packet arrives when every back-end has acked.
	if _, err := st.RecvTimeout(10 * time.Minute); err != nil {
		return FlowControlRow{}, fmt.Errorf("waiting for final acks: %w", err)
	}
	elapsed := time.Since(start)
	m := nw.Metrics()
	return FlowControlRow{
		Window:           window,
		SlowFactor:       slowFactor,
		Rate:             float64(cfg.Leaves*cfg.Rounds) / elapsed.Seconds(),
		EgressHighWater:  m.EgressHighWater.Load(),
		MailboxHighWater: m.ShardQueueHighWater.Load(),
		CreditStalls:     m.CreditStalls.Load(),
		CreditGrants:     m.CreditGrants.Load(),
	}, nil
}

// FlowControlTable renders the sweep.
func FlowControlTable(cfg FlowControlConfig, rows []FlowControlRow) string {
	if cfg.Leaves == 0 {
		cfg = DefaultFlowControlConfig()
	}
	tb := metrics.NewTable(
		fmt.Sprintf("ABLATE-FLOWCONTROL — downstream throughput & memory, %d back-ends, one slow consumer", cfg.Leaves),
		"window", "slow-x", "pkts/s", "egress-hw", "mailbox-hw", "stalls", "grants")
	for _, r := range rows {
		tb.AddRow(r.Window, r.SlowFactor, r.Rate, r.EgressHighWater, r.MailboxHighWater, r.CreditStalls, r.CreditGrants)
	}
	return tb.String()
}
