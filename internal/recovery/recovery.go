// Package recovery turns the offline reliability planner into live,
// in-engine fault tolerance for a running core.Network. It provides the
// missing half of the zero-cost reliability model (Arnold & Miller, cited
// by internal/reliability): internal/reliability plans a recovery;
// this package detects failures and applies the plan to the running
// overlay.
//
// The Manager watches the heartbeat beacons every non-root process relays
// to the front-end (core.Config.HeartbeatPeriod). When a process falls
// silent past the configured timeout it is declared failed: the manager
// asks reliability.Recover for the reconfiguration plan, drives
// core.Network.Adopt to apply it live (grandparent adoption, stream
// re-announcement, synchronizer rebuild), and reconstructs the lost
// node's composable filter state with reliability.ComposeStates from the
// orphans' snapshots.
//
// When an ancestor fails, every descendant's beacon goes quiet at once
// (their only path to the front-end ran through the dead process). The
// detector therefore always recovers the shallowest silent process first
// and then grants the whole overlay a fresh grace period, letting the
// re-attached subtree's beacons resume before any further verdicts.
//
// Recovery is fabric-agnostic: replacement links are minted through the
// network's transport.Rewirer (the adopter listens, each orphan redials),
// so the same manager drives live reconfiguration on the in-process chan
// fabric and on real TCP. Overlapping failures — a second process dying
// while an adoption is in flight — converge too: an orphan that dies
// mid-handshake is fenced off (its slot stays empty until its own
// recovery), and an adopter that dies mid-adoption rolls the adoption
// back for the detector to redo shallowest-first.
//
//	nw, _ := core.NewNetwork(core.Config{
//	    Topology:        tree,
//	    HeartbeatPeriod: 50 * time.Millisecond,
//	    ...
//	})
//	mgr, _ := recovery.New(nw, recovery.Config{Timeout: 250 * time.Millisecond})
//	mgr.Start()
//	defer mgr.Stop()
package recovery

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/reliability"
	"repro/internal/topology"
)

// Config parameterizes the failure detector.
type Config struct {
	// Timeout is the silence after which a communication process is
	// declared failed. It should be several heartbeat periods; New
	// rejects anything under two periods.
	Timeout time.Duration
	// LeafTimeout is the (longer) silence required to declare a back-end
	// failed; default 3×Timeout. Fencing an internal process by mistake
	// is recoverable — its subtrees are re-adopted — but fencing a
	// healthy back-end silently removes a data source forever, so leaves
	// get extra patience against scheduling stalls.
	LeafTimeout time.Duration
	// Poll is the detector's check interval; default Timeout/4.
	Poll time.Duration
	// CheckpointPeriod, when positive, makes the manager periodically ask
	// every internal node to checkpoint its composable filter state toward
	// its potential adopters (core.Network.CheckpointNow). An adoption then
	// folds the failed node's own last checkpoint into the composition,
	// recovering state that was in flight above the orphans when it died.
	CheckpointPeriod time.Duration
	// OnRecovery, if non-nil, is invoked (from the detector goroutine)
	// after each completed recovery.
	OnRecovery func(Report)
}

// Report describes one completed recovery.
type Report struct {
	// Failed, NewParent and Orphans are original-numbering ranks, as used
	// by the live network.
	Failed    core.Rank
	NewParent core.Rank
	Orphans   []core.Rank
	// Plan is the offline reconfiguration plan (compacted numbering) the
	// recovery applied.
	Plan *reliability.Plan
	// StreamsComposed counts streams whose lost filter state was
	// reconstructed from the orphans' snapshots.
	StreamsComposed int
	// Detection is the observed silence when the failure was declared
	// (zero for manually triggered recoveries), Rewire the time spent
	// reconfiguring the running overlay, Total their sum.
	Detection time.Duration
	Rewire    time.Duration
	Total     time.Duration
	// At is when the recovery completed.
	At time.Time
}

// Manager couples the heartbeat failure detector to the live
// reconfiguration engine. Create with New; one manager per network.
type Manager struct {
	nw  *core.Network
	cfg Config

	mu sync.Mutex
	// planTree mirrors the overlay in the planner's compacted numbering;
	// origOf / curOf translate between planning ranks and the live
	// network's original ranks.
	planTree *topology.Tree
	origOf   []core.Rank
	curOf    map[core.Rank]core.Rank
	// baseline is the per-rank floor for silence judgments: ranks are
	// only judged against max(baseline, last beacon), giving fresh starts
	// after recoveries and at detector startup.
	baseline map[core.Rank]time.Time
	reports  []Report

	// runMu serializes whole recoveries (plan → adopt → fold), so a
	// manual Recover racing the detector cannot fold two plans computed
	// against the same pre-recovery tree.
	runMu sync.Mutex

	stop    chan struct{}
	done    chan struct{}
	started bool
}

// New creates a manager for the network. Automatic detection (Start)
// requires heartbeats (core.Config.HeartbeatPeriod).
func New(nw *core.Network, cfg Config) (*Manager, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * nw.HeartbeatPeriod()
	}
	if hb := nw.HeartbeatPeriod(); hb > 0 && cfg.Timeout < 2*hb {
		return nil, fmt.Errorf("recovery: timeout %v under two heartbeat periods (%v)", cfg.Timeout, hb)
	}
	if cfg.LeafTimeout <= 0 {
		cfg.LeafTimeout = 3 * cfg.Timeout
	}
	if cfg.Poll <= 0 {
		cfg.Poll = cfg.Timeout / 4
		if cfg.Poll <= 0 {
			cfg.Poll = time.Millisecond
		}
	}
	tree := nw.Tree()
	m := &Manager{
		nw:       nw,
		cfg:      cfg,
		planTree: tree,
		origOf:   make([]core.Rank, tree.Len()),
		curOf:    make(map[core.Rank]core.Rank, tree.Len()),
		baseline: map[core.Rank]time.Time{},
	}
	for r := 0; r < tree.Len(); r++ {
		m.origOf[r] = core.Rank(r)
		m.curOf[core.Rank(r)] = core.Rank(r)
	}
	return m, nil
}

// Start launches the failure detector. It requires heartbeats. A stopped
// manager may be started again.
func (m *Manager) Start() error {
	if m.nw.HeartbeatPeriod() <= 0 {
		return errors.New("recovery: network has no heartbeats (core.Config.HeartbeatPeriod)")
	}
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return errors.New("recovery: already started")
	}
	m.started = true
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	stop, done := m.stop, m.done
	now := time.Now()
	for orig := range m.curOf {
		m.baseline[orig] = now
	}
	m.mu.Unlock()
	go m.watch(stop, done)
	if m.cfg.CheckpointPeriod > 0 {
		go m.checkpointLoop(stop)
	}
	return nil
}

// checkpointLoop periodically drives adopter checkpoints until the
// detector is stopped. Checkpoints are serialized against recoveries so a
// node is never asked to snapshot mid-adoption.
func (m *Manager) checkpointLoop(stop <-chan struct{}) {
	t := time.NewTicker(m.cfg.CheckpointPeriod)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			m.runMu.Lock()
			m.nw.CheckpointNow()
			m.runMu.Unlock()
		}
	}
}

// Stop halts the detector (manual Recover keeps working).
func (m *Manager) Stop() {
	m.mu.Lock()
	if !m.started {
		m.mu.Unlock()
		return
	}
	m.started = false
	stop, done := m.stop, m.done
	m.mu.Unlock()
	close(stop)
	<-done
}

// Reports returns the recoveries completed so far, oldest first.
func (m *Manager) Reports() []Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Report(nil), m.reports...)
}

// watch is the detector loop: poll beacon freshness, declare the
// shallowest silent process failed, recover it, repeat.
func (m *Manager) watch(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(m.cfg.Poll)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if victim, silence, ok := m.detect(); ok {
				if _, err := m.recover(victim, silence); err != nil {
					// Unrecoverable (e.g. torn down): back off to the
					// next tick; transient races resolve themselves.
					continue
				}
			}
		}
	}
}

// detect returns the shallowest process whose beacon has been silent past
// the timeout, if any.
func (m *Manager) detect() (core.Rank, time.Duration, bool) {
	hb := m.nw.Heartbeats()
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	var victim core.Rank
	var silence time.Duration
	level := -1
	for orig, cur := range m.curOf {
		if cur == 0 {
			continue // the front-end does not beacon
		}
		last := m.baseline[orig]
		if t, ok := hb[orig]; ok && t.After(last) {
			last = t
		}
		if last.IsZero() {
			continue // detector not started for this rank yet
		}
		node := m.planTree.Node(cur)
		limit := m.cfg.Timeout
		if node.IsLeaf() {
			limit = m.cfg.LeafTimeout
		}
		s := now.Sub(last)
		if s <= limit {
			continue
		}
		if lv := node.Level; level == -1 || lv < level || (lv == level && s > silence) {
			victim, silence, level = orig, s, lv
		}
	}
	return victim, silence, level != -1
}

// Recover manually triggers recovery of the process at the given
// (original-numbering) rank, for callers that detected the failure by
// other means (e.g. fault-injection harnesses).
func (m *Manager) Recover(failed core.Rank) (Report, error) {
	return m.recover(failed, 0)
}

func (m *Manager) recover(failed core.Rank, silence time.Duration) (Report, error) {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	m.mu.Lock()
	cur, ok := m.curOf[failed]
	if !ok {
		m.mu.Unlock()
		return Report{}, fmt.Errorf("recovery: rank %d unknown or already recovered", failed)
	}
	plan, err := reliability.Recover(m.planTree, cur)
	m.mu.Unlock()
	if err != nil {
		return Report{}, err
	}

	adoption, err := m.nw.Adopt(failed, m.compose)
	if err != nil {
		return Report{}, err
	}

	m.mu.Lock()
	// Fold the plan into the rank translation: planning ranks compact
	// around the hole while original ranks are stable.
	origOf := make([]core.Rank, plan.Tree.Len())
	curOf := make(map[core.Rank]core.Rank, plan.Tree.Len())
	for old, orig := range m.origOf {
		if nu, ok := plan.Remap[core.Rank(old)]; ok && nu != topology.NoRank {
			origOf[nu] = orig
			curOf[orig] = nu
		}
	}
	m.planTree = plan.Tree
	m.origOf = origOf
	m.curOf = curOf
	// Fresh grace for everyone: the re-attached subtree's beacons need a
	// moment to resume flowing through the new links.
	now := time.Now()
	for orig := range m.curOf {
		m.baseline[orig] = now
	}
	rep := Report{
		Failed:          failed,
		NewParent:       adoption.NewParent,
		Orphans:         adoption.Orphans,
		Plan:            plan,
		StreamsComposed: adoption.StreamsComposed,
		Detection:       silence,
		Rewire:          adoption.Rewire,
		Total:           silence + adoption.Rewire,
		At:              now,
	}
	m.reports = append(m.reports, rep)
	cb := m.cfg.OnRecovery
	m.mu.Unlock()
	if cb != nil {
		cb(rep)
	}
	return rep, nil
}

// compose reconstructs a lost node's per-stream filter state from its
// children's snapshots via reliability.ComposeStates. Stateless filters
// (sum, histogram merges) have nothing to restore; stateful filters must
// be merge-composable (reliability.Merger), like the eqclass filter.
func (m *Manager) compose(streamID uint32, transformation string, children [][]byte) ([]byte, error) {
	reg := m.nw.Registry()
	probe, err := reg.NewTransformation(transformation)
	if err != nil {
		return nil, nil
	}
	if _, ok := probe.(filter.StatefulTransformation); !ok {
		return nil, nil
	}
	if _, ok := probe.(reliability.Merger); !ok {
		return nil, nil
	}
	return reliability.ComposeStates(func() filter.StatefulTransformation {
		t, err := reg.NewTransformation(transformation)
		if err != nil {
			return nil
		}
		st, _ := t.(filter.StatefulTransformation)
		return st
	}, children)
}
