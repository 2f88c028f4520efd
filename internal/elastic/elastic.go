// Package elastic drives load-driven topology mutation: it turns the
// overlay's per-process load reports (core.LoadSample) into per-subtree
// heat scores and elastically reshapes the tree — splitting saturated
// internal processes and merging cold ones — so sustained throughput
// tracks the offered load even when it is badly skewed across subtrees.
//
// Heat is rate-normalized and relative: a process's score is its upstream
// packet rate divided by the mean rate over all live internal processes.
// Uniform load therefore scores everyone near 1.0 and mutates nothing;
// a 4:1 skew scores the hot subtree near the split threshold. Hysteresis
// comes from four guards: separated split/merge thresholds, a score that
// must stay past its threshold for decisionHold consecutive samples (one
// report-to-report delta is a host stall away from reading 2x or 0x), a
// per-node mutation cooldown, and at most one mutation per control tick —
// so the mutation count plateaus once the shape matches the load. A
// process is split only when both halves keep at least two children: one
// that forwards a single child aggregates nothing, whatever its heat.
//
// The controller backs off while a failure is being recovered, because the
// tree is mid-repair: a crashed process awaits adoption, and a mutation
// around it would fight the repair. It resumes once recoveries catch up
// with failures.
package elastic

import (
	"sync"
	"time"

	"repro/internal/core"
)

// Config parameterizes a Controller. Network is required; everything else
// has working defaults.
type Config struct {
	// Network is the overlay to watch and mutate. Its Config must set
	// LoadReportPeriod (no reports, no heat).
	Network *core.Network

	// Period is the control-loop tick. Heat is computed from report
	// deltas between ticks. Default 100ms.
	Period time.Duration

	// SplitAbove is the heat score at or above which a process is a split
	// candidate. Default 2.0 (twice the mean rate).
	SplitAbove float64

	// MergeBelow is the heat score at or below which a process is a merge
	// candidate. Default 0.25. Must stay well under SplitAbove: the gap
	// is the hysteresis band that keeps the shape from oscillating.
	// Negative disables merging entirely (a split-only controller, e.g.
	// for a drain-to-empty workload whose subtrees all go idle at the
	// end).
	MergeBelow float64

	// Cooldown is the minimum time between mutations touching the same
	// rank (both the donor and the new sibling of a split are stamped).
	// Default 10 periods.
	Cooldown time.Duration

	// MinMeanRate is the mean upstream packet rate (pkts/s across live
	// internal processes) below which the controller considers the
	// overlay idle and mutates nothing. Default 50.
	MinMeanRate float64

	// MinQueued is the parent-egress backlog a split candidate must show
	// when it has no credit stalls — corroborating evidence that the heat
	// is pressure, not just relative imbalance on an underloaded tree.
	// Packets waiting out the egress batching window count as queued, so
	// the default of 1 only tells an idle uplink from a busy one. Negative
	// disables the pressure check (heat alone decides).
	MinQueued int64

	// Compose reconstructs filter state when a merge folds a subtree; may
	// be nil (checkpoint-based recovery still applies).
	Compose core.StateComposer

	// OnMutation, when non-nil, observes every mutation as it commits.
	OnMutation func(Mutation)
}

// Mutation records one committed topology change.
type Mutation struct {
	// Kind is "split" or "merge".
	Kind string
	// Target is the process that was split or merged away.
	Target core.Rank
	// Sibling is the process a split spawned (NoRank-free: only set for
	// splits; zero for merges).
	Sibling core.Rank
	// Heat is the target's score when the decision fired.
	Heat float64
	// At is when the mutation committed.
	At time.Time
}

// mergeWarmup is how many load reports a rank must have contributed
// before its measured rate can justify merging it away.
const mergeWarmup = 4

// decisionHold is how many consecutive scored samples a rank must spend at
// or past a threshold before the controller acts on it. A score comes from
// one report-to-report delta, and a host stall that bunches two reports —
// or starves every sender for a few ticks, leaving a handful of packets to
// set the ratios — reads as a 2x or a 0x rate for a tick or two; sustained
// load holds for as long as it lasts.
const decisionHold = 3

// minSplitChildren is the fewest live children a split candidate may
// have: SplitNode halves them, and each half must still aggregate.
const minSplitChildren = 4

// sample is one rank's previous cumulative counters, for delta rates.
// n counts how many reports the controller has folded in — a rank's rate
// is trusted for merges only after a short warm-up, so a freshly split
// sibling is not judged cold while traffic is still cutting over to it.
// hot and cold count the consecutive scored samples at or past the split
// and merge thresholds.
type sample struct {
	upPkts    int64
	stalls    int64
	at        time.Time
	n         int
	hot, cold int
}

// decision is what one tick's reports call for: Kind is "split", "merge"
// or empty.
type decision struct {
	Kind string
	Rank core.Rank
	Heat float64
}

// Controller runs the elastic control loop over one Network.
type Controller struct {
	cfg  Config
	stop chan struct{}
	done chan struct{}

	mu       sync.Mutex
	prev     map[core.Rank]sample
	scores   map[core.Rank]float64
	scoresAt time.Time
	lastMut  map[core.Rank]time.Time
	muts     []Mutation
}

// New builds a Controller; call Start to begin mutating.
func New(cfg Config) *Controller {
	if cfg.Period <= 0 {
		cfg.Period = 100 * time.Millisecond
	}
	if cfg.SplitAbove <= 0 {
		cfg.SplitAbove = 2.0
	}
	if cfg.MergeBelow == 0 {
		cfg.MergeBelow = 0.25
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 10 * cfg.Period
	}
	if cfg.MinMeanRate <= 0 {
		cfg.MinMeanRate = 50
	}
	if cfg.MinQueued == 0 {
		cfg.MinQueued = 1
	}
	return &Controller{
		cfg:     cfg,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		prev:    map[core.Rank]sample{},
		scores:  map[core.Rank]float64{},
		lastMut: map[core.Rank]time.Time{},
	}
}

// Start launches the control loop. Stop it before shutting the network
// down.
func (c *Controller) Start() {
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.cfg.Period)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.tick()
			}
		}
	}()
}

// Stop halts the control loop and waits for any in-flight tick.
func (c *Controller) Stop() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
}

// Mutations returns the committed mutations in commit order.
func (c *Controller) Mutations() []Mutation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Mutation(nil), c.muts...)
}

// Scores returns the latest heat scores and when they were computed.
func (c *Controller) Scores() (map[core.Rank]float64, time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[core.Rank]float64, len(c.scores))
	for r, s := range c.scores {
		out[r] = s
	}
	return out, c.scoresAt
}

// Placement packages the latest scores for core.PlaceBackEnd: fresh for
// up to four periods, with the given fan-out cap.
func (c *Controller) Placement(maxFanOut int) core.Placement {
	scores, at := c.Scores()
	return core.Placement{
		Scores:    scores,
		ScoresAt:  at,
		Staleness: 4 * c.cfg.Period,
		MaxFanOut: maxFanOut,
	}
}

// tick samples load, refreshes heat scores, and commits at most one
// mutation.
func (c *Controller) tick() {
	nw := c.cfg.Network
	m := nw.Metrics()

	// Back off while recovery is behind: a crashed process is being (or
	// waiting to be) adopted, and mutating around it would fight the
	// repair. Merges themselves keep the two counters balanced.
	if m.NodesFailed.Load() > m.RecoveriesCompleted.Load() {
		return
	}

	d, max := c.decide(time.Now(), nw.LiveInternal(), nw.LoadReports(), func(r core.Rank) int {
		return len(nw.LiveChildren(r))
	})
	if max >= 0 {
		m.HeatScoreMilli.Store(int64(max * 1000))
	}
	switch d.Kind {
	case "split":
		sib, err := nw.SplitNode(d.Rank)
		if err != nil {
			return
		}
		c.record(Mutation{Kind: "split", Target: d.Rank, Sibling: sib, Heat: d.Heat, At: time.Now()})
		c.mu.Lock()
		c.lastMut[d.Rank] = time.Now()
		c.lastMut[sib] = time.Now()
		c.mu.Unlock()
	case "merge":
		if _, err := nw.MergeNode(d.Rank, c.cfg.Compose); err != nil {
			return
		}
		c.record(Mutation{Kind: "merge", Target: d.Rank, Heat: d.Heat, At: time.Now()})
		c.mu.Lock()
		delete(c.prev, d.Rank)
		c.lastMut[d.Rank] = time.Now()
		c.mu.Unlock()
	}
}

// decide folds one tick's load reports into the per-rank rates, scores and
// threshold streaks and returns the mutation they call for, if any, with
// the highest score (negative when no rank could be scored). It touches
// nothing but the controller's own bookkeeping — the overlay is described
// by live (its internal processes), reports and children (a rank's live
// child count) — so a test can drive it with synthetic report sequences.
func (c *Controller) decide(now time.Time, live []core.Rank, reports map[core.Rank]core.LoadSample, children func(core.Rank) int) (decision, float64) {
	type rated struct {
		rank   core.Rank
		rate   float64
		stalls int64
		queued int64
	}
	var rates []rated
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range live {
		rep, ok := reports[r]
		if !ok {
			continue
		}
		p, seen := c.prev[r]
		cur := p
		cur.upPkts, cur.stalls, cur.at = rep.UpPackets, rep.Stalls, rep.At
		if !seen || rep.At.After(p.at) {
			cur.n++
		}
		c.prev[r] = cur
		if !seen || !rep.At.After(p.at) {
			continue // need two distinct samples for a rate
		}
		rates = append(rates, rated{
			rank:   r,
			rate:   float64(rep.UpPackets-p.upPkts) / rep.At.Sub(p.at).Seconds(),
			stalls: rep.Stalls - p.stalls,
			queued: rep.Queued,
		})
	}
	if len(rates) == 0 {
		return decision{}, -1
	}
	var mean float64
	for _, x := range rates {
		mean += x.rate
	}
	mean /= float64(len(rates))

	// Refresh scores even when idle — placement still prefers them.
	c.scores = make(map[core.Rank]float64, len(rates))
	c.scoresAt = now
	var max float64
	for _, x := range rates {
		s := 0.0
		if mean > 0 {
			s = x.rate / mean
		}
		c.scores[x.rank] = s
		if s > max {
			max = s
		}
		p := c.prev[x.rank]
		p.hot, p.cold = streak(p.hot, s >= c.cfg.SplitAbove), streak(p.cold, s <= c.cfg.MergeBelow)
		c.prev[x.rank] = p
	}

	if mean < c.cfg.MinMeanRate {
		return decision{}, max // idle overlay: never churn the shape on noise
	}

	// Split candidate: hottest process held over the threshold with
	// pressure evidence, enough children for both halves to aggregate,
	// and a cold cooldown.
	var split *rated
	for i := range rates {
		x := &rates[i]
		if c.prev[x.rank].hot < decisionHold {
			continue
		}
		if x.stalls <= 0 && x.queued < c.cfg.MinQueued {
			continue
		}
		if now.Sub(c.lastMut[x.rank]) < c.cfg.Cooldown {
			continue
		}
		if children(x.rank) < minSplitChildren {
			continue
		}
		if split == nil || c.scores[x.rank] > c.scores[split.rank] {
			split = x
		}
	}
	if split != nil {
		return decision{Kind: "split", Rank: split.rank, Heat: c.scores[split.rank]}, max
	}

	// Merge candidate: coldest process held under the threshold. Never the
	// last internal process (keep the aggregation level), never one whose
	// reports have gone missing (a congested uplink drops reports — such
	// a process is hot, not cold).
	var merge *rated
	if len(live) > 1 && c.cfg.MergeBelow > 0 {
		for i := range rates {
			x := &rates[i]
			p := c.prev[x.rank]
			if p.cold < decisionHold {
				continue
			}
			if p.n < mergeWarmup {
				continue // too young to judge cold: traffic may still be cutting over
			}
			if now.Sub(c.lastMut[x.rank]) < c.cfg.Cooldown {
				continue
			}
			if merge == nil || c.scores[x.rank] < c.scores[merge.rank] {
				merge = x
			}
		}
	}
	if merge != nil {
		return decision{Kind: "merge", Rank: merge.rank, Heat: c.scores[merge.rank]}, max
	}
	return decision{}, max
}

// streak extends a run of consecutive samples past a threshold, or ends it.
func streak(n int, past bool) int {
	if !past {
		return 0
	}
	return n + 1
}

func (c *Controller) record(mut Mutation) {
	c.mu.Lock()
	c.muts = append(c.muts, mut)
	c.mu.Unlock()
	if c.cfg.OnMutation != nil {
		c.cfg.OnMutation(mut)
	}
}
