package experiments

import (
	"fmt"
	"time"

	"repro/internal/clockskew"
	"repro/internal/eqclass"
	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// StartupConfig parameterizes the Paradyn-startup reproduction (§2.2's
// prose result: 512 daemons, >60 s flat startup cut to <20 s by the
// tree-based clock-skew and equivalence-class filters — a 3.4x speedup).
type StartupConfig struct {
	// Daemons is the back-end count (paper: 512).
	Daemons int
	// FanOut is the tree fan-out (paper used modest fan-outs; default 8).
	FanOut int
	// ConnectCost is the per-process connect/spawn cost the starting
	// entity pays for each direct child (serial per parent).
	ConnectCost time.Duration
	// DaemonInit is the daemons' own initialization time (parallel across
	// daemons; a fixed floor for both organizations).
	DaemonInit time.Duration
	// Probes is the number of clock-skew probe exchanges per edge.
	Probes int
	// ProbeRTT is the base probe round-trip time.
	ProbeRTT time.Duration
	// ProbeJitter is the probe delay jitter bound.
	ProbeJitter time.Duration
	// ReportClasses is the number of distinct equivalence classes the
	// daemons' startup reports fall into (platforms, binaries, ...).
	ReportClasses int
	// ReportCost is the front-end/filter cost to parse one report message.
	ReportCost time.Duration
	// Net models report transfer costs.
	Net simnet.Model
	// Seed drives the synthetic skews.
	Seed int64
}

// DefaultStartupConfig mirrors the paper's 512-daemon experiment.
func DefaultStartupConfig() StartupConfig {
	return StartupConfig{
		Daemons:       512,
		FanOut:        8,
		ConnectCost:   115 * time.Millisecond,
		DaemonInit:    15 * time.Second,
		Probes:        4,
		ProbeRTT:      time.Millisecond,
		ProbeJitter:   200 * time.Microsecond,
		ReportClasses: 8,
		ReportCost:    2 * time.Millisecond,
		Net:           simnet.GigE,
		Seed:          7,
	}
}

// StartupResult reports both organizations' startup time and its phases.
type StartupResult struct {
	Daemons int

	FlatConnect, FlatSkew, FlatReports, FlatTotal time.Duration
	TreeConnect, TreeSkew, TreeReports, TreeTotal time.Duration

	// SkewErrFlat/Tree are the worst-case clock-skew estimation errors, to
	// show the tree's composed estimates remain accurate.
	SkewErrFlat, SkewErrTree time.Duration

	// ReportMsgsFlat/Tree count report messages the front-end processes;
	// suppression is what shrinks the tree number.
	ReportMsgsFlat, ReportMsgsTree int

	Speedup float64
}

// RunStartup reproduces T-STARTUP. The flat organization connects to and
// probes every daemon serially from the front-end and parses one report
// per daemon; the tree organization spawns/probes level-parallel and the
// eqclass filter suppresses duplicate reports level by level.
func RunStartup(cfg StartupConfig) (*StartupResult, error) {
	if cfg.Daemons <= 0 {
		cfg = DefaultStartupConfig()
	}
	tree, err := topology.Balanced(cfg.Daemons, cfg.FanOut)
	if err != nil {
		return nil, err
	}
	oracle := clockskew.NewOracle(tree, 100*time.Millisecond, cfg.ProbeRTT, cfg.ProbeJitter, cfg.Seed)

	res := &StartupResult{Daemons: cfg.Daemons}

	// --- Flat organization -------------------------------------------------
	leaves := tree.Leaves()
	res.FlatConnect = time.Duration(cfg.Daemons) * cfg.ConnectCost
	flatSkews, flatProbe := oracle.DetectFlat(leaves, cfg.Probes)
	res.FlatSkew = flatProbe
	res.ReportMsgsFlat = cfg.Daemons
	res.FlatReports = time.Duration(cfg.Daemons)*cfg.ReportCost +
		time.Duration(cfg.Daemons)*cfg.Net.TransferTime(256)
	res.FlatTotal = maxDur(cfg.DaemonInit, res.FlatConnect+res.FlatSkew) + res.FlatReports

	// --- Tree organization -------------------------------------------------
	// Spawn is serial per parent, parallel across parents: critical path.
	res.TreeConnect = spawnCriticalPath(tree, cfg.ConnectCost)
	treeSkews, treeProbe := oracle.DetectTree(tree, cfg.Probes)
	res.TreeSkew = treeProbe
	// Equivalence-class suppression: simulate the per-level report merge to
	// count the messages each level forwards.
	msgs, reportPath := reportPhase(tree, cfg)
	res.ReportMsgsTree = msgs
	res.TreeReports = reportPath
	res.TreeTotal = maxDur(cfg.DaemonInit, res.TreeConnect+res.TreeSkew) + res.TreeReports

	// Estimation accuracy.
	for _, l := range leaves {
		if e := absDur(flatSkews[l] - oracle.True[l]); e > res.SkewErrFlat {
			res.SkewErrFlat = e
		}
		if e := absDur(treeSkews[l] - oracle.True[l]); e > res.SkewErrTree {
			res.SkewErrTree = e
		}
	}
	res.Speedup = float64(res.FlatTotal) / float64(res.TreeTotal)
	return res, nil
}

// spawnCriticalPath models top-down tree instantiation: every parent
// spawns/connects its children serially; levels proceed in parallel.
func spawnCriticalPath(tree *topology.Tree, per time.Duration) time.Duration {
	var walk func(r topology.Rank) time.Duration
	walk = func(r topology.Rank) time.Duration {
		children := tree.Children(r)
		own := time.Duration(len(children)) * per
		var worst time.Duration
		for _, c := range children {
			if d := walk(c); d > worst {
				worst = d
			}
		}
		return own + worst
	}
	return walk(0)
}

// reportPhase pushes one startup report per daemon through real eqclass
// filters at every node and returns the number of messages the front-end
// processes plus the critical-path report time.
func reportPhase(tree *topology.Tree, cfg StartupConfig) (int, time.Duration) {
	// Each node's output packets and completion time.
	type out struct {
		pkts     []*packet.Packet
		finished time.Duration
	}
	results := map[topology.Rank]out{}
	for _, l := range tree.Leaves() {
		s := eqclass.NewSet()
		s.Add(fmt.Sprintf("class-%d", int(l)%cfg.ReportClasses), int64(l))
		p, err := s.ToPacket(100, 1, l)
		if err != nil {
			continue
		}
		results[l] = out{pkts: []*packet.Packet{p}, finished: 0}
	}
	maxLevel := 0
	for r := 0; r < tree.Len(); r++ {
		if lvl := tree.Node(topology.Rank(r)).Level; lvl > maxLevel {
			maxLevel = lvl
		}
	}
	for lvl := maxLevel - 1; lvl >= 0; lvl-- {
		for r := 0; r < tree.Len(); r++ {
			n := tree.Node(topology.Rank(r))
			if n.Level != lvl || n.IsLeaf() {
				continue
			}
			f := eqclass.NewFilter()
			var in []*packet.Packet
			var lastArrival, xfer time.Duration
			for _, c := range n.Children {
				cr := results[c]
				in = append(in, cr.pkts...)
				if cr.finished > lastArrival {
					lastArrival = cr.finished
				}
				for _, p := range cr.pkts {
					xfer += cfg.Net.TransferTime(p.EncodedSize())
				}
			}
			cost := time.Duration(len(in)) * cfg.ReportCost
			o, err := filter.Collect(f, in)
			if err != nil {
				o = in // degrade: forward unfiltered
			}
			results[n.Rank] = out{pkts: o, finished: lastArrival + xfer + cost}
		}
	}
	root := results[0]
	// The front-end itself parses what reaches it; that cost is already in
	// root.finished via the level walk (rank 0 participates at level 0).
	return len(root.pkts), root.finished
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// StartupTable renders the result in the paper's terms.
func StartupTable(r *StartupResult) string {
	tb := newTable(
		fmt.Sprintf("T-STARTUP — tool startup with %d daemons (paper: >60s flat -> <20s tree, 3.4x)", r.Daemons),
		"organization", "connect", "skew-detect", "reports", "total", "fe-report-msgs")
	tb.addRow("flat (one-to-many)", r.FlatConnect, r.FlatSkew, r.FlatReports, r.FlatTotal, r.ReportMsgsFlat)
	tb.addRow("tree (TBON)", r.TreeConnect, r.TreeSkew, r.TreeReports, r.TreeTotal, r.ReportMsgsTree)
	tb.addRow("speedup", "", "", "", fmt.Sprintf("%.1fx", r.Speedup), "")
	return tb.String()
}
