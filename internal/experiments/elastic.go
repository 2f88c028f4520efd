package experiments

// Elastic self-scaling ablation (DESIGN.md §13): the same skewed workload
// runs with and without the elastic controller, and the rows put
// sustained throughput, tail latency, and topology churn side by side.
//
// The workload is credit-limited on purpose. Credits
// retire end to end — a grant means "delivered at the front-end" — so a
// router's whole subtree can have at most one uplink window in flight,
// and with batched egress (age-flush coalescing) the credit round-trip
// has a latency floor independent of CPU. Together they make the hot
// router's single uplink the subtree's throughput cap: window / RTT.
// Splitting the hot router doubles the aggregate uplink window, which is
// exactly how elasticity buys sustained packets per second even on one
// core. Hot leaves stream closed-loop (as fast as credits allow) with 4x
// the per-leaf volume of the paced cold background; the run ends when
// the hot backlog has fully drained, which is the quantity elasticity is
// supposed to accelerate.

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/elastic"
	"repro/internal/topology"
)

// TagElastic marks the ablation's data and start packets.
const TagElastic int32 = 7101

// ElasticConfig parameterizes the elastic ablation.
type ElasticConfig struct {
	// Spec is the overlay shape; the headline run is kary:8^2 (8 routers,
	// 64 leaves, the hot subtree under rank 1).
	Spec string
	// HotQuota is how many packets each hot leaf injects closed-loop.
	HotQuota int
	// ColdBurst is the cold background pace: packets per 10ms per cold
	// leaf, sustained until the hot backlog drains.
	ColdBurst int
	// Window is the credit window (core.Config.LinkWindow); small, so
	// uplinks are in-flight-bound and splitting pays.
	Window int
	// Transport selects the fabric; default TCP (a real round-trip per
	// credit, the regime the controller is for).
	Transport core.TransportKind
	// Period and Cooldown tune the controller; UniformSecs bounds the
	// uniform-load control arm. SplitAbove is the skewed arm's split
	// threshold: under this workload a split candidate scores >= 2.0 and
	// the converged shape ~1.5, so 1.7 sits inside the gap — candidates
	// fire decisively, the plateau holds decisively.
	Period      time.Duration
	Cooldown    time.Duration
	UniformSecs float64
	SplitAbove  float64
	// Timeout bounds each arm.
	Timeout time.Duration
}

// DefaultElasticConfig is laptop-runnable (~15s for the three arms).
func DefaultElasticConfig() ElasticConfig {
	return ElasticConfig{
		Spec:        "kary:8^2",
		HotQuota:    8000,
		ColdBurst:   1,
		Window:      8,
		Transport:   core.TCPTransport,
		Period:      40 * time.Millisecond,
		Cooldown:    150 * time.Millisecond,
		UniformSecs: 2,
		SplitAbove:  1.7,
		Timeout:     90 * time.Second,
	}
}

// ElasticRow reports one arm of the ablation.
type ElasticRow struct {
	// Mode is "static" (controller off), "elastic" (controller on), or
	// "uniform" (controller on, no skew — the zero-churn control).
	Mode string
	// ElapsedSec is start-multicast to full drain of every accepted id.
	ElapsedSec float64
	// Sent/Delivered/Lost are the delivery totals; Lost must be zero on
	// the exactly-once fabric, mutations or not.
	Sent      int
	Delivered int
	Lost      int
	// RatePkts is delivered packets per second of elapsed time — the
	// headline sustained throughput.
	RatePkts float64
	// HotRate and ColdRate are per-leaf delivered rates (pkts/s), whose
	// ratio is the achieved skew.
	HotRate  float64
	ColdRate float64
	// P50Ms/P99Ms are injection-to-delivery latency percentiles over the
	// paced cold background (the bystander cost of the skew and of the
	// churn that fixes it); hot ids are closed-loop, so their timestamps
	// include credit wait and are not comparable across arms.
	P50Ms float64
	P99Ms float64
	// Splits/Merges count committed mutations; LastMutationSec is the
	// last one's offset from the start (-1 when none) and ConvergedFrac
	// its fraction of the elapsed run.
	Splits          int
	Merges          int
	LastMutationSec float64
	ConvergedFrac   float64
}

// RunElastic executes the ablation: static, elastic, and uniform arms
// over the same overlay shape and workload generator.
func RunElastic(cfg ElasticConfig) ([]ElasticRow, error) {
	if cfg.Spec == "" {
		cfg = DefaultElasticConfig()
	}
	rows := make([]ElasticRow, 0, 3)
	for _, mode := range []string{"static", "elastic", "uniform"} {
		row, err := runElasticArm(cfg, mode)
		if err != nil {
			return nil, fmt.Errorf("elastic %s arm: %w", mode, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runElasticArm(cfg ElasticConfig, mode string) (ElasticRow, error) {
	tree, err := topology.ParseSpec(cfg.Spec)
	if err != nil {
		return ElasticRow{}, err
	}
	// The hot subtree is everything under the first internal process;
	// "uniform" has no hot leaves at all.
	hotLeaf := map[core.Rank]bool{}
	var nHot, nCold int
	for _, l := range tree.Leaves() {
		if mode != "uniform" && tree.Parent(l) == 1 {
			hotLeaf[l] = true
			nHot++
		} else {
			nCold++
		}
	}

	var (
		sentHot, sentCold atomic.Int64
		hotLeft, coldLeft atomic.Int64
	)
	hotLeft.Store(int64(nHot))
	coldLeft.Store(int64(nCold))
	stopCold := make(chan struct{})

	nw, err := core.NewNetwork(core.Config{
		Topology:         tree,
		Transport:        cfg.Transport,
		LinkWindow:       cfg.Window,
		Batch:            core.DefaultBatchPolicy(),
		LoadReportPeriod: 10 * time.Millisecond,
		OnBackEnd: func(be *core.BackEnd) error {
			p, err := be.Recv()
			if err != nil {
				return nil
			}
			sid := p.StreamID
			// Watch for the shutdown announcement while streaming: Recv
			// erroring is the only signal a non-blocking sender sees.
			down := make(chan struct{})
			go func() {
				for {
					if _, err := be.Recv(); err != nil {
						close(down)
						return
					}
				}
			}()
			if hotLeaf[be.Rank()] {
				for i := 0; i < cfg.HotQuota; i++ {
					select {
					case <-down:
						return nil
					default:
					}
					// Send blocks on credits (closed-loop); a transient
					// mid-migration failure just forfeits that id.
					if be.Send(sid, TagElastic, "%d %d", int64(1), time.Now().UnixNano()) == nil {
						sentHot.Add(1)
					}
				}
				_ = be.Flush()
				hotLeft.Add(-1)
				<-down
				return nil
			}
			for {
				select {
				case <-down:
					return nil
				case <-stopCold:
					_ = be.Flush()
					coldLeft.Add(-1)
					<-down
					return nil
				default:
				}
				for i := 0; i < cfg.ColdBurst; i++ {
					if be.Send(sid, TagElastic, "%d %d", int64(0), time.Now().UnixNano()) == nil {
						sentCold.Add(1)
					}
				}
				time.Sleep(10 * time.Millisecond)
			}
		},
	})
	if err != nil {
		return ElasticRow{}, err
	}
	defer nw.Shutdown()

	var ctl *elastic.Controller
	if mode != "static" {
		mergeBelow := 0.0 // package default for the uniform control arm
		if mode == "elastic" {
			// The skewed arm drains to empty, so every subtree eventually
			// goes idle; a split-only controller keeps the headline about
			// scaling up, while merging is covered by its own tests.
			mergeBelow = -1
		}
		ctl = elastic.New(elastic.Config{
			Network:    nw,
			Period:     cfg.Period,
			Cooldown:   cfg.Cooldown,
			SplitAbove: cfg.SplitAbove,
			MergeBelow: mergeBelow,
		})
		ctl.Start()
		defer ctl.Stop()
	}

	st, err := nw.NewStream(core.StreamSpec{Transformation: "null", Synchronization: "nullsync"})
	if err != nil {
		return ElasticRow{}, err
	}
	start := time.Now()
	if err := st.Multicast(TagElastic, ""); err != nil {
		return ElasticRow{}, err
	}

	var (
		delivHot, delivCold int
		lat                 []float64
		coldStopped         bool
	)
	deadline := time.Now().Add(cfg.Timeout)
	for {
		if !coldStopped {
			uniformDone := mode == "uniform" && time.Since(start).Seconds() >= cfg.UniformSecs
			hotDone := nHot > 0 && hotLeft.Load() == 0 && int64(delivHot) >= sentHot.Load()
			if uniformDone || hotDone {
				close(stopCold)
				coldStopped = true
			}
		}
		if coldStopped && coldLeft.Load() == 0 &&
			int64(delivHot+delivCold) >= sentHot.Load()+sentCold.Load() {
			break
		}
		if time.Now().After(deadline) {
			break // report the shortfall as loss
		}
		p, err := st.RecvTimeout(100 * time.Millisecond)
		if err != nil {
			continue
		}
		if p.Tag != TagElastic {
			continue
		}
		class, err1 := p.Int(0)
		ns, err2 := p.Int(1)
		if err1 != nil || err2 != nil {
			continue
		}
		if class == 1 {
			delivHot++
			continue
		}
		delivCold++
		// Latency is measured on the paced cold background only: hot ids
		// are closed-loop, so their injection timestamps include the
		// credit wait inside Send — not comparable across arms. The cold
		// bystanders are paced below capacity in every arm, making their
		// tail the honest "what does the skew (and the churn that fixes
		// it) cost everyone else" number.
		lat = append(lat, float64(time.Now().UnixNano()-ns)/1e6)
	}
	elapsed := time.Since(start)

	row := ElasticRow{
		Mode:            mode,
		ElapsedSec:      elapsed.Seconds(),
		Sent:            int(sentHot.Load() + sentCold.Load()),
		Delivered:       delivHot + delivCold,
		LastMutationSec: -1,
	}
	row.Lost = row.Sent - row.Delivered
	if s := elapsed.Seconds(); s > 0 {
		row.RatePkts = float64(row.Delivered) / s
		if nHot > 0 {
			row.HotRate = float64(delivHot) / float64(nHot) / s
		}
		if nCold > 0 {
			row.ColdRate = float64(delivCold) / float64(nCold) / s
		}
	}
	sort.Float64s(lat)
	if n := len(lat); n > 0 {
		row.P50Ms = lat[n/2]
		row.P99Ms = lat[n*99/100]
	}
	if ctl != nil {
		for _, m := range ctl.Mutations() {
			switch m.Kind {
			case "split":
				row.Splits++
			case "merge":
				row.Merges++
			}
			if off := m.At.Sub(start).Seconds(); off > row.LastMutationSec {
				row.LastMutationSec = off
			}
		}
		if row.LastMutationSec >= 0 && row.ElapsedSec > 0 {
			row.ConvergedFrac = row.LastMutationSec / row.ElapsedSec
		}
	}
	return row, nil
}

// ElasticTable renders the ablation.
func ElasticTable(cfg ElasticConfig, rows []ElasticRow) string {
	if cfg.Spec == "" {
		cfg = DefaultElasticConfig()
	}
	tb := newTable(
		fmt.Sprintf("ABLATE-ELASTIC — load-driven tree mutation under 4:1 subtree skew, %s, window %d",
			cfg.Spec, cfg.Window),
		"mode", "elapsed-s", "pkts/s", "hot/leaf/s", "cold/leaf/s", "cold-p50-ms", "cold-p99-ms", "splits", "merges", "last-mut-s", "lost")
	for _, r := range rows {
		tb.addRow(r.Mode, r.ElapsedSec, r.RatePkts, r.HotRate, r.ColdRate,
			r.P50Ms, r.P99Ms, r.Splits, r.Merges, r.LastMutationSec, r.Lost)
	}
	return tb.String()
}
