// Package recovery is the failure detector of the zero-cost reliability
// model (Arnold & Miller, cited by internal/reliability) for a running
// core.Network.
//
// The Manager watches the heartbeat beacons every non-root process sends
// to its parent (core.Config.HeartbeatPeriod). Nothing relays them: each
// parent's link readers record its children's beacons and drop them, so
// the front-end hears only its own children at any tree size, and
// core.Network.Heartbeats merges the parents' records. Each poll walks the
// engine's live view from the front-end (core.Network.LiveChildren), so
// every rank is watched at its current depth — attached back-ends and
// adopted routers included — and the tree has one record, the engine's. A process silent past the timeout is declared failed, and
// core.Network.Adopt applies the topology rule live (grandparent adoption,
// stream re-announcement, synchronizer rebuild) with the state rule,
// reliability.ComposeStates, rebuilding the lost node's filter state from
// the orphans' snapshots. Recovery has these two sources and no periodic
// traffic beyond the beacons: each orphan's sender replay ring re-flushes
// what the lost node never acknowledged, and composition restores, for a
// composable filter like eqclass, what it had acknowledged but still held
// (a partial round in its synchronizer included). A partial round of a
// stateless filter such as sum has neither source and is lost with the
// node (ROADMAP item 3).
//
// When a process fails, its children fall silent with it: their beacons
// can no longer reach a parent, and the dead parent's record stays frozen
// at the crash, so they go quiet within a beacon period of it. Deeper
// descendants keep beaconing to their own live parents. The detector
// therefore always recovers the shallowest silent process first — the
// dead one, not the children whose silence it caused — and then grants
// the whole overlay a fresh grace period, letting the adopted children's
// beacons resume at their new parent before any further verdicts.
//
// Recovery is fabric-agnostic: the network mints each replacement link
// whole and hands every orphan its end, so the same manager drives live
// reconfiguration on the in-process chan fabric and on real TCP.
// Overlapping failures — a second process dying while an adoption is in
// flight — converge too: an orphan that is dead when its end is handed
// over is fenced off (its slot stays empty until its own recovery), and
// an adopter that dies mid-adoption rolls the adoption back for the
// detector to redo shallowest-first.
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
)

// Config parameterizes the failure detector.
type Config struct {
	// Timeout is the silence after which a communication process is
	// declared failed. It should be several heartbeat periods; New
	// rejects anything under two periods.
	Timeout time.Duration
	// LeafTimeout is the (longer) silence required to declare a rank with
	// no live children failed; default 3×Timeout. Fencing an internal
	// process by mistake is recoverable — its subtrees are re-adopted —
	// but fencing a healthy back-end silently removes a data source
	// forever, so leaves get extra patience against scheduling stalls.
	LeafTimeout time.Duration
	// Poll is the detector's check interval; default Timeout/4.
	Poll time.Duration
	// OnRecovery, if non-nil, is invoked (from the detector goroutine)
	// after each completed recovery.
	OnRecovery func(Report)
}

// Report describes one completed recovery: the engine's adoption, plus
// how long the failure went undetected.
type Report struct {
	core.Adoption
	// Detection is the observed silence when the failure was declared
	// (zero for manually triggered recoveries); Total is Detection plus
	// the adoption's Rewire.
	Detection time.Duration
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
	// baseline is the per-rank floor for silence judgments: a rank is
	// judged against max(baseline, last beacon), and gets its baseline
	// when the detector's walk first sees it. Clearing it at startup and
	// after every recovery grants the whole overlay fresh grace.
	baseline map[core.Rank]time.Time
	reports  []Report

	stop, done chan struct{}
	started    bool
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
	return &Manager{nw: nw, cfg: cfg, baseline: map[core.Rank]time.Time{}}, nil
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
	clear(m.baseline)
	m.mu.Unlock()
	go m.watch(stop, done)
	return nil
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
			// A recovery that fails is retried from the next tick's walk.
			if victim, silence, ok := m.detect(); ok {
				_, _ = m.recover(victim, silence)
			}
		}
	}
}

// detect walks the live tree breadth-first from the front-end and returns
// the shallowest process whose beacon has been silent past its timeout —
// the longest-silent one when several share that depth — if any.
func (m *Manager) detect() (victim core.Rank, silence time.Duration, ok bool) {
	hb := m.nw.Heartbeats()
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for level := m.nw.LiveChildren(0); len(level) > 0 && !ok; {
		var next []core.Rank
		for _, r := range level {
			kids := m.nw.LiveChildren(r)
			next = append(next, kids...)
			last, seen := m.baseline[r]
			if !seen {
				m.baseline[r] = now // first sighting: its grace starts now
				continue
			}
			if t, beat := hb[r]; beat && t.After(last) {
				last = t
			}
			limit := m.cfg.Timeout
			if len(kids) == 0 {
				limit = m.cfg.LeafTimeout
			}
			if s := now.Sub(last); s > limit && s > silence {
				victim, silence, ok = r, s, true
			}
		}
		level = next
	}
	return victim, silence, ok
}

// Recover manually triggers recovery of the process at the given rank, for
// callers that detected the failure by other means (e.g. fault injection).
func (m *Manager) Recover(failed core.Rank) (Report, error) {
	return m.recover(failed, 0)
}

func (m *Manager) recover(failed core.Rank, silence time.Duration) (Report, error) {
	adoption, err := m.nw.Adopt(failed, m.compose)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		Adoption:  *adoption,
		Detection: silence,
		Total:     silence + adoption.Rewire,
		At:        time.Now(),
	}
	m.mu.Lock()
	// Fresh grace for everyone: the re-attached subtree's beacons need a
	// moment to resume flowing through the new links.
	clear(m.baseline)
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
	_, stateful := probe.(filter.StatefulTransformation)
	_, merger := probe.(reliability.Merger)
	if err != nil || !stateful || !merger {
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
