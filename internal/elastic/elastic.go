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
// comes from three guards: separated split/merge thresholds, a per-node
// mutation cooldown, and at most one mutation per control tick — so the
// mutation count plateaus once the shape matches the load.
//
// The controller backs off while a failure is being recovered (mutating a
// tree whose shape is mid-repair would race the recovery manager's
// bookkeeping), resuming once recoveries catch up with failures.
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
	// LoadReportPeriod (no reports, no heat) and Recoverable (splits
	// migrate children over the reparent protocol).
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

	// Merge overrides how a merge is executed (e.g. routed through a
	// recovery manager so its bookkeeping tracks the fold). Nil uses
	// Network.MergeNode directly.
	Merge func(cold core.Rank) error

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

// sample is one rank's previous cumulative counters, for delta rates.
// n counts how many reports the controller has folded in — a rank's rate
// is trusted for merges only after a short warm-up, so a freshly split
// sibling is not judged cold while traffic is still cutting over to it.
type sample struct {
	upPkts int64
	stalls int64
	at     time.Time
	n      int
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

	live := nw.LiveInternal()
	reports := nw.LoadReports()
	now := time.Now()

	type rated struct {
		rank   core.Rank
		rate   float64
		stalls int64
		queued int64
		n      int
	}
	var rates []rated
	c.mu.Lock()
	for _, r := range live {
		rep, ok := reports[r]
		if !ok {
			continue
		}
		p, seen := c.prev[r]
		cur := sample{upPkts: rep.UpPackets, stalls: rep.Stalls, at: rep.At, n: p.n}
		if !seen || rep.At.After(p.at) {
			cur.n++
		}
		c.prev[r] = cur
		if !seen || !rep.At.After(p.at) {
			continue // need two distinct samples for a rate
		}
		dt := rep.At.Sub(p.at).Seconds()
		if dt <= 0 {
			continue
		}
		rates = append(rates, rated{
			rank:   r,
			rate:   float64(rep.UpPackets-p.upPkts) / dt,
			stalls: rep.Stalls - p.stalls,
			queued: rep.Queued,
			n:      cur.n,
		})
	}
	if len(rates) == 0 {
		c.mu.Unlock()
		return
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
	}
	m.HeatScoreMilli.Store(int64(max * 1000))

	if mean < c.cfg.MinMeanRate {
		c.mu.Unlock()
		return // idle overlay: never churn the shape on noise
	}

	// Split candidate: hottest process over the threshold with pressure
	// evidence, enough children to share, and a cold cooldown.
	var split *rated
	for i := range rates {
		x := &rates[i]
		s := c.scores[x.rank]
		if s < c.cfg.SplitAbove {
			continue
		}
		if x.stalls <= 0 && x.queued < c.cfg.MinQueued {
			continue
		}
		if now.Sub(c.lastMut[x.rank]) < c.cfg.Cooldown {
			continue
		}
		if len(nw.LiveChildren(x.rank)) < 2 {
			continue
		}
		if split == nil || c.scores[x.rank] > c.scores[split.rank] {
			split = x
		}
	}
	if split != nil {
		heat := c.scores[split.rank]
		c.mu.Unlock()
		sib, err := nw.SplitNode(split.rank)
		if err != nil {
			return
		}
		c.record(Mutation{Kind: "split", Target: split.rank, Sibling: sib, Heat: heat, At: time.Now()})
		c.mu.Lock()
		c.lastMut[split.rank] = time.Now()
		c.lastMut[sib] = time.Now()
		c.mu.Unlock()
		return
	}

	// Merge candidate: coldest process under the threshold. Never the
	// last internal process (keep the aggregation level), never one whose
	// reports have gone missing (a congested uplink drops reports — such
	// a process is hot, not cold).
	var merge *rated
	if len(live) > 1 && c.cfg.MergeBelow > 0 {
		for i := range rates {
			x := &rates[i]
			if c.scores[x.rank] > c.cfg.MergeBelow {
				continue
			}
			if x.n < mergeWarmup {
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
		heat := c.scores[merge.rank]
		c.mu.Unlock()
		if c.cfg.Merge != nil {
			if err := c.cfg.Merge(merge.rank); err != nil {
				return
			}
		} else if _, err := nw.MergeNode(merge.rank, c.cfg.Compose); err != nil {
			return
		}
		c.record(Mutation{Kind: "merge", Target: merge.rank, Heat: heat, At: time.Now()})
		c.mu.Lock()
		delete(c.prev, merge.rank)
		c.lastMut[merge.rank] = time.Now()
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
}

func (c *Controller) record(mut Mutation) {
	c.mu.Lock()
	c.muts = append(c.muts, mut)
	c.mu.Unlock()
	if c.cfg.OnMutation != nil {
		c.cfg.OnMutation(mut)
	}
}
