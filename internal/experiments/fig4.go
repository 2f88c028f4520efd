// Package experiments implements the paper's evaluation: one runner per
// table/figure (see DESIGN.md's per-experiment index), each reusing the
// real library code and printing rows in the shape the paper reports.
//
// Timing model. The paper's cluster had one workstation per overlay
// process; a laptop does not. Experiments that depend on "every node
// computes in parallel" therefore measure each node's real compute time
// with the real algorithm code and compose the tree's critical path under
// the parallel-machine schedule, adding communication costs from the
// simnet model (GigE, as in the paper). Experiments that stress a single
// bottleneck process (front-end throughput) run the real overlay and
// measure wall time directly, since a single hot goroutine is faithful to
// a single hot workstation.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/filter"
	"repro/internal/meanshift"
	"repro/internal/packet"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Fig4Config parameterizes the mean-shift scaling study (Figure 4).
type Fig4Config struct {
	// Scales are the input-data scale factors; for the tree runs each is
	// also the number of back-ends, exactly as in the paper.
	Scales []int
	// Clusters is the number of true modes per leaf data set.
	Clusters int
	// PointsPerCluster is the raw sample count per cluster per leaf.
	PointsPerCluster int
	// Field is the side of the square data domain.
	Field float64
	// Spread is each cluster's Gaussian standard deviation.
	Spread float64
	// Jitter is the per-leaf shift of the cluster centers (§3.1).
	Jitter float64
	// Params are the mean-shift parameters (bandwidth 50, Gaussian kernel).
	Params meanshift.Params
	// Net is the link-cost model used for message transfer times.
	Net simnet.Model
	// Seed makes the synthetic data deterministic.
	Seed int64
}

// DefaultFig4Config mirrors the paper's setup at laptop-runnable size.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{
		Scales:           []int{16, 32, 48, 64, 128, 256, 324},
		Clusters:         2,
		PointsPerCluster: 120,
		Field:            600,
		Spread:           20,
		Jitter:           5,
		Params:           meanshift.Params{Bandwidth: 50},
		Net:              simnet.GigE,
		Seed:             1,
	}
}

// Fig4Row is one x-position of Figure 4: processing time for the
// single-node, 1-deep (flat) and 2-deep (deep) organizations.
type Fig4Row struct {
	Scale  int
	Single time.Duration
	Flat   time.Duration
	Deep   time.Duration
	// DeepFanOut is the fan-out of the 2-deep tree at this scale.
	DeepFanOut int
	// Peaks is the number of modes the deep run reported (sanity signal:
	// it should stay near Clusters at every scale).
	Peaks int
}

// RunFig4 regenerates Figure 4. For each scale S it measures:
//
//	single — FindPeaks over the union of S leaves' raw data on one node;
//	flat   — the distributed algorithm on a 1-deep tree (front-end with
//	         fan-out S);
//	deep   — the distributed algorithm on a 2-deep tree with fan-out
//	         ceil(sqrt(S)) (16 back-ends -> fan-out 4 ... 324 -> 18,
//	         matching the paper's balanced trees).
//
// Distributed runs execute the real leaf computation and the real filter
// at every node, measuring each node's compute time, and compose the
// critical path: a node starts after its slowest child's result has
// arrived and all child messages have crossed its link.
func RunFig4(cfg Fig4Config) ([]Fig4Row, error) {
	if len(cfg.Scales) == 0 {
		cfg = DefaultFig4Config()
	}
	var rows []Fig4Row
	for _, s := range cfg.Scales {
		row, err := fig4Scale(cfg, s)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig4 scale %d: %w", s, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func fig4Scale(cfg Fig4Config, scale int) (Fig4Row, error) {
	centers := meanshift.DefaultCenters(cfg.Clusters, cfg.Field)
	leafData := make([][]meanshift.Point, scale)
	var union []meanshift.Point
	for i := range leafData {
		leafData[i] = meanshift.Generate(meanshift.GenParams{
			Centers:          centers,
			Spread:           cfg.Spread,
			PointsPerCluster: cfg.PointsPerCluster,
			CenterJitter:     cfg.Jitter,
			Seed:             cfg.Seed + int64(i),
		})
		union = append(union, leafData[i]...)
	}

	// Single node: the whole data set on one workstation.
	t0 := time.Now()
	meanshift.FindPeaks(union, cfg.Params)
	single := time.Since(t0)

	// Flat: 1-deep tree, fan-out = scale.
	flatTree, err := topology.Flat(scale)
	if err != nil {
		return Fig4Row{}, err
	}
	flat, _, err := distributedMakespan(flatTree, leafData, cfg)
	if err != nil {
		return Fig4Row{}, err
	}

	// Deep: 2-deep balanced tree with fan-out ceil(sqrt(scale)).
	fan := 1
	for fan*fan < scale {
		fan++
	}
	deepTree, err := topology.Balanced(scale, fan)
	if err != nil {
		return Fig4Row{}, err
	}
	deep, peaks, err := distributedMakespan(deepTree, leafData, cfg)
	if err != nil {
		return Fig4Row{}, err
	}

	return Fig4Row{
		Scale:      scale,
		Single:     single,
		Flat:       flat,
		Deep:       deep,
		DeepFanOut: fan,
		Peaks:      peaks,
	}, nil
}

// nodeResult is one node's output during the critical-path walk.
type nodeResult struct {
	pkt      *packet.Packet
	finished time.Duration // completion time on the simulated machine
}

// distributedMakespan executes the distributed algorithm over the tree
// (leaf computations and internal-node filter executions are the real
// code, individually timed) and returns the simulated makespan: the time
// at which the front-end's final merge completes, under the schedule
// "every node is its own machine; a message of b bytes takes
// Net.TransferTime(b); a node receives its child messages serially".
func distributedMakespan(tree *topology.Tree, leafData [][]meanshift.Point, cfg Fig4Config) (time.Duration, int, error) {
	leaves := tree.Leaves()
	if len(leaves) != len(leafData) {
		return 0, 0, fmt.Errorf("tree has %d leaves, want %d", len(leaves), len(leafData))
	}
	results := make(map[topology.Rank]nodeResult, tree.Len())

	// The downstream "start" broadcast reaches a leaf after one hop per
	// level; include it for completeness (it is microseconds).
	broadcast := func(level int) time.Duration {
		return time.Duration(level) * cfg.Net.TransferTime(64)
	}

	// Leaves: the paper's back-end computation.
	for i, l := range leaves {
		start := broadcast(tree.Node(l).Level)
		t0 := time.Now()
		pts, ws, peaks := meanshift.LeafResult(leafData[i], cfg.Params)
		compute := time.Since(t0)
		pkt, err := meanshift.MakePacket(100, 1, l, pts, ws, peaks)
		if err != nil {
			return 0, 0, err
		}
		results[l] = nodeResult{pkt: pkt, finished: start + compute}
	}

	// Internal nodes and the front-end, bottom-up (deepest level first).
	byLevelDesc := make([][]topology.Rank, 0)
	maxLevel := 0
	for r := 0; r < tree.Len(); r++ {
		if lvl := tree.Node(topology.Rank(r)).Level; lvl > maxLevel {
			maxLevel = lvl
		}
	}
	levels := make([][]topology.Rank, maxLevel+1)
	for r := 0; r < tree.Len(); r++ {
		n := tree.Node(topology.Rank(r))
		if !n.IsLeaf() {
			levels[n.Level] = append(levels[n.Level], n.Rank)
		}
	}
	for lvl := maxLevel; lvl >= 0; lvl-- {
		byLevelDesc = append(byLevelDesc, levels[lvl])
	}

	f := &meanshift.Filter{Params: cfg.Params}
	var rootPeaks int
	for _, ranks := range byLevelDesc {
		for _, r := range ranks {
			children := tree.Children(r)
			in := make([]*packet.Packet, len(children))
			var lastArrival, xferTotal time.Duration
			for i, c := range children {
				cr, ok := results[c]
				if !ok {
					return 0, 0, fmt.Errorf("child %d of %d not computed", c, r)
				}
				in[i] = cr.pkt
				if cr.finished > lastArrival {
					lastArrival = cr.finished
				}
				xferTotal += cfg.Net.TransferTime(cr.pkt.EncodedSize())
			}
			t0 := time.Now()
			out, err := filter.Collect(f, in)
			compute := time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			if len(out) != 1 {
				return 0, 0, fmt.Errorf("filter produced %d packets", len(out))
			}
			// The node may only start when the slowest child has finished,
			// and its NIC serializes the child messages.
			results[r] = nodeResult{
				pkt:      out[0],
				finished: lastArrival + xferTotal + compute,
			}
			if r == 0 {
				_, _, peaks, err := meanshift.ParsePacket(out[0])
				if err != nil {
					return 0, 0, err
				}
				rootPeaks = len(peaks)
			}
		}
	}
	return results[0].finished, rootPeaks, nil
}

// Fig4Table renders the rows in the paper's layout.
func Fig4Table(rows []Fig4Row) string {
	tb := newTable(
		"Figure 4 — Mean-shift Processing Times (simulated parallel-machine makespan)",
		"scale", "single", "flat(1-deep)", "deep(2-deep)", "deep-fanout", "peaks")
	for _, r := range rows {
		tb.addRow(r.Scale, r.Single, r.Flat, r.Deep, r.DeepFanOut, r.Peaks)
	}
	return tb.String()
}
