package chaos

// Delivery-invariant chaos harness (DESIGN.md §10). The equivalence-class
// package's correctness story has always been "the reduced result is
// identical with and without failures"; this file generalizes that into a
// transport-level invariant any fabric configuration can be tested
// against: every injected packet carries a unique id, an arbitrary kill
// schedule is executed against the running overlay, and afterwards the
// multiset of ids delivered at the front-end must equal the multiset
// sent by the back-ends — zero lost, zero duplicated.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/topology"
)

// TagChaos marks the harness's data and start packets.
const TagChaos int32 = 7001

// Ledger is the delivery-invariant bookkeeper: a multiset of unique
// packet ids on each side of the overlay. Safe for concurrent use.
type Ledger struct {
	mu        sync.Mutex
	sent      map[string]int
	delivered map[string]int
	nSent     int
	nDeliv    int
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{sent: map[string]int{}, delivered: map[string]int{}}
}

// Sent records one accepted injection of id.
func (l *Ledger) Sent(id string) {
	l.mu.Lock()
	l.sent[id]++
	l.nSent++
	l.mu.Unlock()
}

// Delivered records one front-end arrival of id.
func (l *Ledger) Delivered(id string) {
	l.mu.Lock()
	l.delivered[id]++
	l.nDeliv++
	l.mu.Unlock()
}

// Counts returns (sent, delivered) totals so far.
func (l *Ledger) Counts() (int, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nSent, l.nDeliv
}

// Verify compares the multisets: lost ids were sent more times than
// delivered, duplicated ids delivered more times than sent. Both empty
// means the delivery invariant holds.
func (l *Ledger) Verify() (lost, duplicated []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for id, n := range l.sent {
		for i := l.delivered[id]; i < n; i++ {
			lost = append(lost, id)
		}
	}
	for id, n := range l.delivered {
		for i := l.sent[id]; i < n; i++ {
			duplicated = append(duplicated, id)
		}
	}
	sort.Strings(lost)
	sort.Strings(duplicated)
	return lost, duplicated
}

// ChaosConfig parameterizes one harness run.
type ChaosConfig struct {
	// Spec is the topology (topology.ParseSpec syntax), e.g. "kary:2^3".
	Spec string
	// Transport selects the link fabric; default core.ChanTransport.
	Transport core.TransportKind
	// PerBE is how many uniquely-tagged packets each back-end injects;
	// default 120.
	PerBE int
	// Window is the credit window (core.Config.LinkWindow); default 8 —
	// small, so kills land with rings and windows genuinely full.
	Window int
	// Schedule is the kill plan to execute while the ids stream.
	Schedule Schedule
	// Timeout bounds the whole run; default 60s.
	Timeout time.Duration
}

// ChaosResult reports one harness run.
type ChaosResult struct {
	// Lost and Duplicated are the invariant violations (empty = pass).
	Lost, Duplicated []string
	// Sent and Delivered are the multiset totals.
	Sent, Delivered int
	// Recoveries counts completed adoptions.
	Recoveries int
	// ReplayRingHighWater and PacketsReplayed are the run's replay-buffer
	// metrics, for bound assertions (ring occupancy must never exceed the
	// credit window).
	ReplayRingHighWater int64
	PacketsReplayed     int64
	DupsDropped         int64
}

// Ok reports whether the delivery invariant held.
func (r *ChaosResult) Ok() bool { return len(r.Lost) == 0 && len(r.Duplicated) == 0 }

func (r *ChaosResult) String() string {
	return fmt.Sprintf("sent %d delivered %d lost %d duplicated %d (recoveries %d, replayed %d, dups dropped %d)",
		r.Sent, r.Delivered, len(r.Lost), len(r.Duplicated), r.Recoveries, r.PacketsReplayed, r.DupsDropped)
}

// RunChaos executes one delivery-invariant run: build the overlay, start
// every back-end streaming its unique ids through an identity/nullsync
// stream, execute the kill schedule while the data is in flight, recover
// every victim (shallowest first, as the detector would), and compare the
// multisets. The returned error covers harness failures (setup, timeout);
// invariant violations are reported in the result, not as an error.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	if cfg.PerBE <= 0 {
		cfg.PerBE = 120
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	tree, err := topology.ParseSpec(cfg.Spec)
	if err != nil {
		return nil, err
	}
	ledger := NewLedger()
	nw, err := core.NewNetwork(core.Config{
		Topology:   tree,
		Transport:  cfg.Transport,
		LinkWindow: cfg.Window,
		OnBackEnd: func(be *core.BackEnd) error {
			// Wait for the start multicast, stream the ids with light
			// pacing (so the kill schedule overlaps the traffic), then
			// keep draining so downstream credits retire.
			var started bool
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				if p.Tag != TagChaos || started {
					continue
				}
				started = true
				for i := 0; i < cfg.PerBE; i++ {
					id := fmt.Sprintf("be%d-%d", be.Rank(), i)
					if err := be.Send(p.StreamID, TagChaos, "%s", id); err != nil {
						// Teardown-time rejection: the id never entered the
						// overlay, so it does not enter the multiset either.
						continue
					}
					ledger.Sent(id)
					if i%4 == 3 {
						time.Sleep(500 * time.Microsecond)
					}
				}
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer nw.Shutdown()

	mgr, err := recovery.New(nw, recovery.Config{Timeout: time.Second})
	if err != nil {
		return nil, err
	}

	st, err := nw.NewStream(core.StreamSpec{Transformation: "null", Synchronization: "nullsync"})
	if err != nil {
		return nil, err
	}
	if err := st.Multicast(TagChaos, ""); err != nil {
		return nil, err
	}

	// Executor: run the kill schedule against the streaming overlay, then
	// recover the victims shallowest-first — overlapping failures (a
	// parent and child both dead) converge in that order, exactly as the
	// heartbeat detector would drive them.
	execDone := make(chan error, 1)
	go func() { execDone <- cfg.Schedule.execute(nw, mgr) }()

	expected := len(tree.Leaves()) * cfg.PerBE
	deadline := time.Now().Add(cfg.Timeout)
	lastStart := time.Now()
	for {
		_, deliv := ledger.Counts()
		if deliv >= expected {
			break
		}
		if time.Now().After(deadline) {
			// Timed out: report what arrived (the caller sees the losses).
			break
		}
		// Downstream multicast is at-most-once: a kill racing the start
		// packet can orphan a subtree before it hears the starting gun.
		// Re-fire it periodically — back-ends only honor the first copy —
		// so every leaf eventually injects its ids once recovery has
		// rebuilt the routes.
		if time.Since(lastStart) > 300*time.Millisecond {
			_ = st.Multicast(TagChaos, "")
			lastStart = time.Now()
		}
		p, err := st.RecvTimeout(200 * time.Millisecond)
		if err != nil {
			continue
		}
		if p.Tag != TagChaos {
			continue
		}
		if id, err := p.Str(0); err == nil {
			ledger.Delivered(id)
		}
	}
	if err := <-execDone; err != nil {
		return nil, err
	}
	// Grace drain: catch late duplicates that would break the multiset
	// even after the expected count was reached.
	for {
		p, err := st.RecvTimeout(150 * time.Millisecond)
		if err != nil {
			break
		}
		if p.Tag == TagChaos {
			if id, err := p.Str(0); err == nil {
				ledger.Delivered(id)
			}
		}
	}

	lost, dup := ledger.Verify()
	sent, deliv := ledger.Counts()
	m := nw.Metrics()
	return &ChaosResult{
		Lost:                lost,
		Duplicated:          dup,
		Sent:                sent,
		Delivered:           deliv,
		Recoveries:          int(m.RecoveriesCompleted.Load()),
		ReplayRingHighWater: m.ReplayRingHighWater.Load(),
		PacketsReplayed:     m.PacketsReplayed.Load(),
		DupsDropped:         m.DupsDropped.Load(),
	}, nil
}
