package elastic

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

const tagLoad = 100

// buildLoaded builds a recoverable overlay whose back-ends stream
// open-loop after the start multicast: every sender sleeps the same
// millisecond between bursts and burst(rank) sets how many packets each
// burst carries, so relative rates are exact regardless of timer
// granularity and the overlay stays unsaturated even under -race.
// A negative burst means the back-end stays silent. Returns the network
// and a stop function that halts the drain goroutine.
func buildLoaded(t *testing.T, spec string, burst func(core.Rank) int) (*core.Network, func()) {
	t.Helper()
	tree, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := core.NewNetwork(core.Config{
		Topology:         tree,
		LoadReportPeriod: 5 * time.Millisecond,
		OnBackEnd: func(be *core.BackEnd) error {
			p, err := be.Recv() // wait for the start multicast
			if err != nil {
				return nil
			}
			b := burst(be.Rank())
			if b < 0 {
				_, _ = be.Recv() // silent member: block until shutdown
				return nil
			}
			// Watch for the shutdown announcement while streaming
			// open-loop: Recv errors once the overlay tears down, which
			// is the only signal a sender that never blocks would see.
			stop := make(chan struct{})
			go func() {
				for {
					if _, err := be.Recv(); err != nil {
						close(stop)
						return
					}
				}
			}()
			for {
				select {
				case <-stop:
					return nil
				default:
				}
				for i := 0; i < b; i++ {
					// Transient failures are expected mid-migration (the
					// old parent link is gone, the new one not yet bound):
					// keep streaming, the stop watcher ends the loop.
					_ = be.Send(p.StreamID, tagLoad, "%d", int64(1))
				}
				time.Sleep(time.Millisecond)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := nw.NewStream(core.StreamSpec{Transformation: "null", Synchronization: "nullsync"})
	if err != nil {
		nw.Shutdown()
		t.Fatal(err)
	}
	if err := st.Multicast(tagLoad, ""); err != nil {
		nw.Shutdown()
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = st.RecvTimeout(50 * time.Millisecond)
		}
	}()
	return nw, func() { close(stop); <-done }
}

// TestElasticSplitsHotSubtreeAndPlateaus is the hysteresis soak: under a
// sustained 4:1 subtree skew the controller splits the hot router, then
// the mutation count plateaus — separated thresholds plus cooldown keep
// the shape from oscillating.
func TestElasticSplitsHotSubtreeAndPlateaus(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped in -short")
	}
	// kary:4^2: internals 1..4; leaves 5..8 under rank 1 run 4x hotter.
	nw, stopDrain := buildLoaded(t, "kary:4^2", func(r core.Rank) int {
		if r >= 5 && r <= 8 {
			return 4
		}
		return 1
	})
	defer stopDrain()
	defer nw.Shutdown()

	ctl := New(Config{
		Network:  nw,
		Period:   50 * time.Millisecond,
		Cooldown: 250 * time.Millisecond,
		// 4:1 skew scores the hot router ~2.3 and ~1.4 once split:
		// trigger between the two so exactly one split fires.
		SplitAbove:  1.8,
		MinQueued:   -1, // the overlay is unsaturated: heat alone decides
		MinMeanRate: 50,
	})
	ctl.Start()
	defer ctl.Stop()

	time.Sleep(1500 * time.Millisecond)
	early := len(ctl.Mutations())
	time.Sleep(1500 * time.Millisecond)
	muts := ctl.Mutations()

	if early == 0 {
		t.Fatalf("no mutations under 4:1 skew; scores: %v", firstScores(ctl))
	}
	if len(muts) != early {
		t.Errorf("mutations kept accruing: %d then %d — no plateau", early, len(muts))
	}
	for _, m := range muts {
		if m.Kind != "split" {
			t.Errorf("unexpected %s of %d (heat %.2f) under skew", m.Kind, m.Target, m.Heat)
		}
		if m.Target != 1 {
			t.Errorf("split target = %d, want 1 (the hot router)", m.Target)
		}
	}
	if got := nw.Metrics().NodesSplit.Load(); got < 1 {
		t.Errorf("NodesSplit = %d, want >= 1", got)
	}
	if got := nw.Metrics().NodesMerged.Load(); got != 0 {
		t.Errorf("NodesMerged = %d, want 0 (cold subtrees are warm enough)", got)
	}
	// The hot router's children really were redistributed.
	sib := muts[0].Sibling
	if nk, ns := len(nw.LiveChildren(1)), len(nw.LiveChildren(sib)); nk != 2 || ns != 2 {
		t.Errorf("post-split children: donor %d, sibling %d; want 2 and 2", nk, ns)
		t.Logf("muts=%+v live=%v donor=%v sib(%d)=%v", muts, nw.LiveInternal(), nw.LiveChildren(1), sib, nw.LiveChildren(sib))
	}
	if nw.Metrics().HeatScoreMilli.Load() == 0 {
		t.Error("heat gauge never published")
	}
}

// TestElasticUniformLoadNoMutations: uniform offered load scores every
// router near 1.0 — inside the hysteresis band — so the shape must not
// change at all.
func TestElasticUniformLoadNoMutations(t *testing.T) {
	nw, stopDrain := buildLoaded(t, "kary:4^2", func(core.Rank) int {
		return 1
	})
	defer stopDrain()
	defer nw.Shutdown()

	ctl := New(Config{
		Network:   nw,
		Period:    50 * time.Millisecond,
		MinQueued: -1,
	})
	ctl.Start()
	defer ctl.Stop()

	time.Sleep(1500 * time.Millisecond)
	if muts := ctl.Mutations(); len(muts) != 0 {
		t.Errorf("uniform load mutated the tree: %+v", muts)
	}
	if got := nw.Metrics().TopologyMutations.Load(); got != 0 {
		t.Errorf("TopologyMutations = %d, want 0", got)
	}
}

// TestElasticMergesColdSubtree: a router whose subtree goes silent while
// the rest of the overlay is busy is folded into its parent.
func TestElasticMergesColdSubtree(t *testing.T) {
	// kary:2^2: leaves 3,4 under rank 1 stream; 5,6 under rank 2 silent.
	nw, stopDrain := buildLoaded(t, "kary:2^2", func(r core.Rank) int {
		if r == 3 || r == 4 {
			return 2
		}
		return -1
	})
	defer stopDrain()
	defer nw.Shutdown()

	ctl := New(Config{
		Network:  nw,
		Period:   50 * time.Millisecond,
		Cooldown: 10 * time.Second, // one mutation max in this test
		// Rank 1 carries all the traffic (heat 2.0, the default split
		// threshold) and its uplink always has packets waiting out the
		// batching window: keep it from being split before 2 is merged.
		SplitAbove: 100,
	})
	ctl.Start()
	defer ctl.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if muts := ctl.Mutations(); len(muts) == 1 {
			if muts[0].Kind != "merge" || muts[0].Target != 2 {
				t.Fatalf("mutation = %+v, want merge of 2", muts[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cold router never merged; scores: %v", firstScores(ctl))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if live := nw.LiveInternal(); len(live) != 1 || live[0] != 1 {
		t.Errorf("LiveInternal = %v, want [1]", live)
	}
	for _, c := range []core.Rank{5, 6} {
		if got := nw.LiveParent(c); got != 0 {
			t.Errorf("LiveParent(%d) = %d, want 0 (folded into the root)", c, got)
		}
	}
	if got := nw.Metrics().NodesMerged.Load(); got != 1 {
		t.Errorf("NodesMerged = %d, want 1", got)
	}
}

// TestElasticPlacementFromScores: the controller's Placement snapshot
// steers PlaceBackEnd toward the coldest router.
func TestElasticPlacementFromScores(t *testing.T) {
	nw, stopDrain := buildLoaded(t, "kary:2^2", func(r core.Rank) int {
		if r == 3 || r == 4 {
			return 3
		}
		return 1
	})
	defer stopDrain()
	defer nw.Shutdown()

	ctl := New(Config{
		Network:  nw,
		Period:   50 * time.Millisecond,
		Cooldown: 10 * time.Second,
		// Thresholds far out: this test wants scores, not mutations.
		SplitAbove: 100,
	})
	ctl.Start()
	defer ctl.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if scores, at := ctl.Scores(); !at.IsZero() && len(scores) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("controller never scored both routers")
		}
		time.Sleep(20 * time.Millisecond)
	}
	r, err := nw.PlaceBackEnd(ctl.Placement(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.LiveParent(r); got != 2 {
		t.Errorf("placed under %d, want 2 (the colder router)", got)
	}
	if nw.Metrics().PlacementsLoadAware.Load() != 1 {
		t.Error("placement did not use the scores")
	}
}

func firstScores(c *Controller) map[core.Rank]float64 {
	s, _ := c.Scores()
	return s
}

// feed drives Controller.decide with synthetic load reports, one call per
// control tick, no overlay and no sleeping: every router's cumulative
// packet counter advances by what the caller says it forwarded that tick.
type feed struct {
	c        *Controller
	now      time.Time
	live     []core.Rank
	children map[core.Rank]int
	reports  map[core.Rank]core.LoadSample
}

func newFeed(cfg Config, children map[core.Rank]int) *feed {
	cfg.MinQueued = -1 // heat alone decides, as on an unsaturated overlay
	f := &feed{
		c:        New(cfg),
		now:      time.Unix(1_000_000, 0),
		children: children,
		reports:  map[core.Rank]core.LoadSample{},
	}
	for r := core.Rank(1); int(r) <= len(children); r++ {
		f.live = append(f.live, r)
	}
	return f
}

// tick advances one control period in which router r forwarded pkts[r]
// packets and returns what the controller would do about it.
func (f *feed) tick(pkts map[core.Rank]int64) decision {
	f.now = f.now.Add(f.c.cfg.Period)
	for _, r := range f.live {
		rep := f.reports[r]
		rep.Origin, rep.UpPackets, rep.At = r, rep.UpPackets+pkts[r], f.now
		f.reports[r] = rep
	}
	d, _ := f.c.decide(f.now, f.live, f.reports, func(r core.Rank) int { return f.children[r] })
	return d
}

func uniform(n int64) map[core.Rank]int64 {
	return map[core.Rank]int64{1: n, 2: n, 3: n, 4: n}
}

// TestDecideIgnoresOneTickSpike: a host stall that bunches two of a
// router's load reports into one interval reads as a 3x rate (heat 2.0,
// over the threshold) for exactly one tick, and one that starves a router
// for a tick as a dead subtree. Neither is load; neither may mutate.
func TestDecideIgnoresOneTickSpike(t *testing.T) {
	f := newFeed(Config{SplitAbove: 1.8}, map[core.Rank]int{1: 4, 2: 4, 3: 4, 4: 4})
	for i := 0; i < 40; i++ {
		pkts := uniform(100)
		switch i % 8 {
		case 3:
			pkts[1] = 300
		case 6:
			pkts[2] = 0
		}
		if d := f.tick(pkts); d.Kind != "" {
			t.Fatalf("tick %d: %s of %d (heat %.2f) on a one-tick excursion", i, d.Kind, d.Rank, d.Heat)
		}
	}
}

// TestDecideSplitsOnSustainedSkew: a 4:1 skew that lasts is acted on as
// soon as it has held for decisionHold scored samples (the first tick only
// primes the rate), not before — and the halves of that split, two
// children each, are never candidates however hot they run.
func TestDecideSplitsOnSustainedSkew(t *testing.T) {
	skew := map[core.Rank]int64{1: 400, 2: 100, 3: 100, 4: 100}
	f := newFeed(Config{SplitAbove: 1.8}, map[core.Rank]int{1: 4, 2: 4, 3: 4, 4: 4})
	for i := 0; i < decisionHold; i++ {
		if d := f.tick(skew); d.Kind != "" {
			t.Fatalf("tick %d: %s of %d before the skew had held for %d samples", i, d.Kind, d.Rank, decisionHold)
		}
	}
	d := f.tick(skew)
	if d.Kind != "split" || d.Rank != 1 {
		t.Fatalf("sustained 4:1 skew: decision %+v, want split of 1", d)
	}
	if d.Heat < 2.2 || d.Heat > 2.4 {
		t.Errorf("split heat %.2f, want 4/1.75", d.Heat)
	}

	for _, kids := range []int{2, 3} {
		f := newFeed(Config{SplitAbove: 1.8}, map[core.Rank]int{1: kids, 2: 4, 3: 4, 4: 4})
		for i := 0; i < 20; i++ {
			if d := f.tick(skew); d.Kind != "" {
				t.Fatalf("%d-child hot router: %s of %d; a split must leave two children on both halves", kids, d.Kind, d.Rank)
			}
		}
	}
}

// TestDecideMergesOnSustainedCold: a subtree that stays silent is merged
// once it has been cold for decisionHold samples and reported mergeWarmup
// times.
func TestDecideMergesOnSustainedCold(t *testing.T) {
	f := newFeed(Config{SplitAbove: 100}, map[core.Rank]int{1: 4, 2: 4, 3: 4, 4: 4})
	cold := map[core.Rank]int64{1: 100, 2: 100, 3: 0, 4: 100}
	var got decision
	ticks := 0
	for ; ticks < 20 && got.Kind == ""; ticks++ {
		got = f.tick(cold)
	}
	if got.Kind != "merge" || got.Rank != 3 {
		t.Fatalf("sustained cold subtree: decision %+v, want merge of 3", got)
	}
	if ticks <= decisionHold {
		t.Errorf("merged after %d ticks; the cold score must hold for %d samples first", ticks, decisionHold)
	}
}
