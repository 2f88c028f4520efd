// Failover: a live demonstration of the zero-cost reliability model on a
// running overlay — on BOTH link fabrics. A 2-deep tree serves a
// continuous sum reduction while a mid-level communication process is
// crashed; the heartbeat detector declares the failure, the grandparent
// adopts the orphaned subtrees over brand-new links (in-process pairs on
// the chan fabric, fresh loopback TCP connections on the TCP fabric), and
// the same stream keeps producing the full-membership answer — no
// checkpointing, no back-end restart.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/topology"
)

func main() {
	demo("chan fabric (in-process links)", core.ChanTransport)
	demo("tcp fabric (real sockets, rewired live)", core.TCPTransport)
}

func demo(label string, tr core.TransportKind) {
	fmt.Printf("== %s ==\n", label)
	tree, err := topology.ParseSpec("kary:4^2") // 1 front-end, 4 comm, 16 back-ends
	if err != nil {
		log.Fatal(err)
	}

	nw, err := core.NewNetwork(core.Config{
		Topology:        tree,
		Transport:       tr,
		HeartbeatPeriod: 20 * time.Millisecond,
		OnBackEnd: func(be *core.BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				// An orphaned back-end's sends fail until it is adopted;
				// the next round's answer covers it again.
				_ = be.Send(p.StreamID, p.Tag, "%f", float64(be.Rank()))
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer nw.Shutdown()

	mgr, err := recovery.New(nw, recovery.Config{
		Timeout: 200 * time.Millisecond,
		OnRecovery: func(r recovery.Report) {
			fmt.Printf("  !! recovered rank %d: parent %d adopted orphans %v "+
				"(detect %v, rewire %v)\n",
				r.Failed, r.NewParent, r.Orphans, r.Detection.Round(time.Millisecond), r.Rewire)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := mgr.Start(); err != nil {
		log.Fatal(err)
	}
	defer mgr.Stop()

	st, err := nw.NewStream(core.StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
	if err != nil {
		log.Fatal(err)
	}
	var want float64
	for _, l := range tree.Leaves() {
		want += float64(l)
	}

	round := func(label string) {
		if err := st.Multicast(core.TagFirstApplication, ""); err != nil {
			log.Fatal(err)
		}
		p, err := st.RecvTimeout(10 * time.Second)
		if err != nil {
			log.Fatal(err)
		}
		v, _ := p.Float(0)
		fmt.Printf("  %-14s sum = %.0f (want %.0f)\n", label, v, want)
	}

	fmt.Println("healthy overlay:")
	round("round 1")
	round("round 2")

	victim := tree.InternalNodes()[1]
	fmt.Printf("crashing communication process %d (serves back-ends %v)...\n",
		victim, tree.SubtreeLeaves(victim))
	if err := nw.Kill(victim); err != nil {
		log.Fatal(err)
	}
	for len(mgr.Reports()) == 0 {
		time.Sleep(10 * time.Millisecond)
	}

	fmt.Println("after live recovery, the same stream keeps serving:")
	round("round 3")
	round("round 4")

	m := nw.Metrics()
	fmt.Printf("metrics: failed=%d recovered=%d orphans=%d rewired-links=%d heartbeats=%d rewire=%v\n\n",
		m.NodesFailed.Load(), m.RecoveriesCompleted.Load(), m.OrphansAdopted.Load(),
		m.RewiredLinks.Load(), m.HeartbeatsSeen.Load(), time.Duration(m.RecoveryNanos.Load()))
}
