package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/sgfa"
	"repro/internal/topology"
)

// OverheadRow is one line of the internal-node overhead table (§3.2).
type OverheadRow struct {
	BackEnds int
	FanOut   int
	Internal int
	Overhead float64 // Internal / BackEnds
}

// RunOverhead reproduces T-OVERHEAD, the paper's node-cost arithmetic:
// fan-out 16 needs 16 internal nodes (6.25%) for 256 back-ends and 272
// (6.6%) for 4096. Pure topology computation — the numbers must match
// exactly.
func RunOverhead() ([]OverheadRow, error) {
	var rows []OverheadRow
	for _, c := range []struct{ fan, depth int }{{16, 2}, {16, 3}} {
		tr, err := topology.KAry(c.fan, c.depth)
		if err != nil {
			return nil, err
		}
		s := tr.Stats()
		rows = append(rows, OverheadRow{
			BackEnds: s.Leaves,
			FanOut:   c.fan,
			Internal: s.Internal,
			Overhead: s.Overhead,
		})
	}
	return rows, nil
}

// OverheadTable renders the rows.
func OverheadTable(rows []OverheadRow) string {
	tb := newTable(
		"T-OVERHEAD — internal nodes needed to connect N back-ends (paper §3.2)",
		"back-ends", "fan-out", "internal", "overhead")
	for _, r := range rows {
		tb.addRow(r.BackEnds, r.FanOut, r.Internal, fmt.Sprintf("%.2f%%", 100*r.Overhead))
	}
	return tb.String()
}

// SGFAConfig parameterizes the thousand-node sub-graph folding run.
type SGFAConfig struct {
	// Leaves is the back-end count (paper: thousands).
	Leaves int
	// FanOut is the tree fan-out.
	FanOut int
	// Shapes is the number of distinct qualitative graph structures.
	Shapes int
	// Depth is the per-graph call-chain depth.
	Depth int
}

// DefaultSGFAConfig runs 1024 back-ends with 4 structures.
func DefaultSGFAConfig() SGFAConfig {
	return SGFAConfig{Leaves: 1024, FanOut: 8, Shapes: 4, Depth: 4}
}

// SGFAResult summarizes the fold.
type SGFAResult struct {
	Leaves      int
	Classes     int
	LeafBytes   int64 // payload bytes entering the tree at the leaves
	RootBytes   int64 // payload bytes arriving at the front-end
	Reduction   float64
	WallTime    time.Duration
	PacketsUp   int64
	FrontEndIn  int
	FoldCorrect bool
}

// RunSGFA reproduces T-SGFA on the real overlay: every back-end submits its
// host's call graph; the folding filter merges structurally similar
// sub-graphs level by level; the front-end receives one composite covering
// every host.
func RunSGFA(cfg SGFAConfig) (*SGFAResult, error) {
	if cfg.Leaves <= 0 {
		cfg = DefaultSGFAConfig()
	}
	tree, err := topology.Balanced(cfg.Leaves, cfg.FanOut)
	if err != nil {
		return nil, err
	}
	shapes := make([]*sgfa.Graph, cfg.Shapes)
	for i := range shapes {
		g := sgfa.NewGraph("main")
		parent := 0
		for d := 0; d < cfg.Depth; d++ {
			parent = g.AddNode(parent, fmt.Sprintf("f%d_%d", i, d))
		}
		shapes[i] = g
	}

	var leafBytes int64
	reg := filter.NewRegistry()
	sgfa.Register(reg)
	nw, err := core.NewNetwork(core.Config{
		Topology: tree,
		Registry: reg,
		OnBackEnd: func(be *core.BackEnd) error {
			p, err := be.Recv()
			if err != nil {
				return nil
			}
			comp := sgfa.NewComposite()
			comp.AddGraph(shapes[int(be.Rank())%len(shapes)], int64(be.Rank()))
			out, err := comp.ToPacket(p.Tag, p.StreamID, be.Rank())
			if err != nil {
				return err
			}
			if err := be.SendPacket(out); err != nil {
				return nil
			}
			for {
				if _, err := be.Recv(); err != nil {
					return nil
				}
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer nw.Shutdown()

	// Leaf payload accounting (recomputed deterministically).
	for _, l := range tree.Leaves() {
		comp := sgfa.NewComposite()
		comp.AddGraph(shapes[int(l)%len(shapes)], int64(l))
		p, err := comp.ToPacket(100, 1, l)
		if err != nil {
			return nil, err
		}
		leafBytes += int64(p.EncodedSize())
	}

	st, err := nw.NewStream(core.StreamSpec{
		Transformation:  sgfa.FilterName,
		Synchronization: "waitforall",
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := st.Multicast(100, ""); err != nil {
		return nil, err
	}
	p, err := st.RecvTimeout(120 * time.Second)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	comp, err := sgfa.FromPacket(p)
	if err != nil {
		return nil, err
	}
	classes := comp.HostClasses()
	covered := 0
	for _, hosts := range classes {
		covered += len(hosts)
	}
	res := &SGFAResult{
		Leaves:      cfg.Leaves,
		Classes:     len(classes),
		LeafBytes:   leafBytes,
		RootBytes:   int64(p.EncodedSize()),
		WallTime:    wall,
		PacketsUp:   nw.Metrics().PacketsUp.Load(),
		FrontEndIn:  1,
		FoldCorrect: len(classes) == cfg.Shapes && covered == cfg.Leaves,
	}
	if res.LeafBytes > 0 {
		res.Reduction = float64(res.LeafBytes) / float64(res.RootBytes)
	}
	return res, nil
}

// SGFATable renders the result.
func SGFATable(r *SGFAResult) string {
	tb := newTable(
		fmt.Sprintf("T-SGFA — sub-graph folding at %d back-ends (paper: thousand-node runs)", r.Leaves),
		"metric", "value")
	tb.addRow("host equivalence classes", r.Classes)
	tb.addRow("leaf payload bytes", r.LeafBytes)
	tb.addRow("front-end payload bytes", r.RootBytes)
	tb.addRow("payload reduction", fmt.Sprintf("%.1fx", r.Reduction))
	tb.addRow("wall time", r.WallTime)
	tb.addRow("fold correct", r.FoldCorrect)
	return tb.String()
}
