package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// RecoveryConfig parameterizes the recovery-latency-vs-tree-shape study
// (T-RECOVERY): how long the overlay takes to notice and repair the loss
// of a mid-level communication process, as a function of organization.
type RecoveryConfig struct {
	// Shapes are the overlay organizations under test (topology specs).
	Shapes []string
	// Transports are the link substrates under test; empty means chan
	// and TCP (live rewiring is fabric-agnostic, so both are measured).
	Transports []core.TransportKind
	// HeartbeatPeriod and Timeout parameterize the failure detector.
	HeartbeatPeriod time.Duration
	Timeout         time.Duration
	// Net is the link-cost model used for the modeled (cluster-scale)
	// reconnection cost, as in the paper's experiments.
	Net simnet.Model
}

// transportName labels a substrate in tables and benchmarks.
func transportName(kind core.TransportKind) string {
	if kind == core.TCPTransport {
		return "tcp"
	}
	return "chan"
}

// DefaultRecoveryConfig covers the paper's organization space — flat-ish,
// balanced k-ary at several fan-outs, and skewed k-nomial — at
// laptop-runnable size.
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{
		Shapes: []string{
			"kary:2^3", "kary:4^2", "kary:8^2", "kary:2^5",
			"balanced:64,4", "knomial:2^5",
		},
		Transports:      []core.TransportKind{core.ChanTransport, core.TCPTransport},
		HeartbeatPeriod: 5 * time.Millisecond,
		Timeout:         50 * time.Millisecond,
		Net:             simnet.GigE,
	}
}

// RecoveryRow is one (shape, transport) measurement.
type RecoveryRow struct {
	Shape     string
	Transport string
	Nodes     int
	Leaves    int
	Depth     int
	Victim    core.Rank
	Orphans   int
	// Detection is the observed silence when the detector declared the
	// failure; Rewire the live reconfiguration time; Total their sum.
	Detection time.Duration
	Rewire    time.Duration
	Total     time.Duration
	// ModeledReconnect adds the simnet cost of the recovery's network
	// traffic at cluster scale: one link re-establishment round-trip per
	// orphan plus the re-announcement of the stream into each orphan
	// subtree.
	ModeledReconnect time.Duration
	// Correct records that the post-recovery reduction still produced the
	// full-membership answer.
	Correct bool
}

// RunRecovery measures, per tree shape, the end-to-end latency of live
// failure recovery: a mid-level communication process is crashed under an
// active reduction stream, the heartbeat detector declares it, the
// reconfiguration engine adopts the orphans, and the stream must produce
// the full-membership sum again.
func RunRecovery(cfg RecoveryConfig) ([]RecoveryRow, error) {
	if len(cfg.Shapes) == 0 {
		cfg = DefaultRecoveryConfig()
	}
	if len(cfg.Transports) == 0 {
		cfg.Transports = []core.TransportKind{core.ChanTransport, core.TCPTransport}
	}
	var rows []RecoveryRow
	for _, tr := range cfg.Transports {
		for _, spec := range cfg.Shapes {
			row, err := recoverOneShape(cfg, spec, tr)
			if err != nil {
				return nil, fmt.Errorf("experiments: recovery %s/%s: %w", transportName(tr), spec, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func recoverOneShape(cfg RecoveryConfig, spec string, tr core.TransportKind) (RecoveryRow, error) {
	tree, err := topology.ParseSpec(spec)
	if err != nil {
		return RecoveryRow{}, err
	}
	internals := tree.InternalNodes()
	if len(internals) == 0 {
		return RecoveryRow{}, fmt.Errorf("shape has no internal communication process to kill")
	}
	victim := internals[len(internals)/2]

	nw, err := core.NewNetwork(core.Config{
		Topology:        tree,
		Transport:       tr,
		HeartbeatPeriod: cfg.HeartbeatPeriod,
		OnBackEnd: func(be *core.BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				_ = be.Send(p.StreamID, p.Tag, "%f", 1.0)
			}
		},
	})
	if err != nil {
		return RecoveryRow{}, err
	}
	defer nw.Shutdown()
	mgr, err := recovery.New(nw, recovery.Config{Timeout: cfg.Timeout})
	if err != nil {
		return RecoveryRow{}, err
	}
	if err := mgr.Start(); err != nil {
		return RecoveryRow{}, err
	}
	defer mgr.Stop()

	st, err := nw.NewStream(core.StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		return RecoveryRow{}, err
	}
	want := float64(len(tree.Leaves()))
	round := func() (float64, error) {
		if err := st.Multicast(100, ""); err != nil {
			return 0, err
		}
		p, err := st.RecvTimeout(30 * time.Second)
		if err != nil {
			return 0, err
		}
		return p.Float(0)
	}
	// Warm the stream, then crash the victim and wait out the detector.
	if v, err := round(); err != nil || v != want {
		return RecoveryRow{}, fmt.Errorf("warmup round: sum %v, err %v", v, err)
	}
	if err := nw.Kill(victim); err != nil {
		return RecoveryRow{}, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for len(mgr.Reports()) == 0 {
		if time.Now().After(deadline) {
			return RecoveryRow{}, fmt.Errorf("detector never declared rank %d", victim)
		}
		time.Sleep(cfg.HeartbeatPeriod)
	}
	rep := mgr.Reports()[0]
	v, err := round()
	if err != nil {
		return RecoveryRow{}, fmt.Errorf("post-recovery round: %w", err)
	}

	// Modeled cluster-scale reconnection cost: per orphan, a connection
	// re-establishment round-trip plus the replay of the stream
	// announcement into its subtree (one ~96-byte control frame per hop is
	// dominated by the first hop; deeper replays overlap).
	var modeled time.Duration
	for range rep.Orphans {
		modeled += 2*cfg.Net.TransferTime(64) + cfg.Net.TransferTime(96)
	}
	stats := tree.Stats()
	return RecoveryRow{
		Shape:            spec,
		Transport:        transportName(tr),
		Nodes:            stats.Nodes,
		Leaves:           stats.Leaves,
		Depth:            stats.Depth,
		Victim:           victim,
		Orphans:          len(rep.Orphans),
		Detection:        rep.Detection,
		Rewire:           rep.Rewire,
		Total:            rep.Total,
		ModeledReconnect: modeled,
		Correct:          v == want,
	}, nil
}

// RecoveryTable renders the study.
func RecoveryTable(rows []RecoveryRow) string {
	tb := metrics.NewTable(
		"T-RECOVERY — Live failure recovery latency vs. tree shape and fabric",
		"shape", "fabric", "nodes", "leaves", "depth", "victim", "orphans",
		"detect", "rewire", "total", "modeled-net", "correct")
	for _, r := range rows {
		tb.AddRow(r.Shape, r.Transport, r.Nodes, r.Leaves, r.Depth, int(r.Victim), r.Orphans,
			r.Detection, r.Rewire, r.Total, r.ModeledReconnect, r.Correct)
	}
	return tb.String()
}
