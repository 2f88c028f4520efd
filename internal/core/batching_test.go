package core

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/eqclass"
	"repro/internal/filter"
	"repro/internal/topology"
	"repro/internal/transport"
)

// gateLeaves parks every leaf's outbound data on a gate in its parent
// link (a Config.WrapFabric), so what a back-end sends stays in the
// back-end — in a flush parked on the wire, or queued behind it — until
// the test opens the gates.
func gateLeaves(tree *topology.Tree, gates map[Rank]*gateLink) func([]*transport.Endpoint) {
	return func(eps []*transport.Endpoint) {
		for _, leaf := range tree.Leaves() {
			g := newGateLink(eps[leaf].Parent)
			gates[leaf] = g
			eps[leaf].Parent = g
		}
	}
}

// TestShutdownFlushesEgress is the packet-stranded-in-queue regression
// test: Shutdown starts while every back-end's payloads are still in the
// back-end, parked on its gated parent link or queued behind it, and the
// gates open only after it has started. Shutdown must wait for them:
// every accepted packet must reach the front-end.
func TestShutdownFlushesEgress(t *testing.T) {
	tree := mustTree(t, "kary:2^2")
	const perBE = 3
	gates := map[Rank]*gateLink{}
	var sent sync.WaitGroup
	sent.Add(len(tree.Leaves()))
	nw, err := NewNetwork(Config{
		Topology:   tree,
		Batch:      BatchPolicy{MaxBatch: 1024, MaxDelay: time.Hour},
		WrapFabric: gateLeaves(tree, gates),
		OnBackEnd: func(be *BackEnd) error {
			p, err := be.Recv()
			if err != nil {
				sent.Done()
				return nil
			}
			for i := 0; i < perBE; i++ {
				if err := be.Send(p.StreamID, p.Tag, "%d", int64(be.Rank())*100+int64(i)); err != nil {
					sent.Done()
					return err
				}
			}
			sent.Done()
			for {
				if _, err := be.Recv(); err != nil {
					return nil
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, g := range gates {
			g.open() // a failed run must not leave Shutdown parked on a gate
		}
	}()
	st, err := nw.NewStream(StreamSpec{Synchronization: "nullsync"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	sent.Wait()
	for _, g := range gates {
		g.awaitEntered(t)
	}
	// Every payload is still in its back-end. Shut down, and give the
	// announcement time to reach the back-ends before the gates open.
	shut := make(chan error, 1)
	go func() { shut <- nw.Shutdown() }()
	<-nw.dying
	time.Sleep(20 * time.Millisecond)
	for _, g := range gates {
		g.open()
	}
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
	got := map[int64]int{}
	for {
		p, err := st.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		v, err := p.Int(0)
		if err != nil {
			t.Fatal(err)
		}
		got[v]++
	}
	leaves := tree.Leaves()
	if want := len(leaves) * perBE; len(got) != want {
		t.Errorf("front-end received %d distinct packets, want %d (stranded in egress?)", len(got), want)
	}
	for _, leaf := range leaves {
		for i := 0; i < perBE; i++ {
			v := int64(leaf)*100 + int64(i)
			if got[v] != 1 {
				t.Errorf("payload %d delivered %d times, want exactly once", v, got[v])
			}
		}
	}
}

// TestKillWithPendingEgressNoLossNoDup is the batching × recovery chaos
// test: a mid-level communication process is killed while its subtree's
// back-ends hold accepted packets that have not reached it — parked on
// their gated parent links or queued behind them. The gates open only
// after the kill. Grandparent adoption must re-parent the orphans with
// those packets intact: after recovery and shutdown every accepted packet
// arrives at the front-end exactly once — none lost with the dead link,
// none duplicated by the re-flush.
func TestKillWithPendingEgressNoLossNoDup(t *testing.T) {
	tree := mustTree(t, "kary:4^2")
	const perBE = 5
	var stID uint32
	ready := make(chan struct{})
	var enqueued sync.WaitGroup
	enqueued.Add(len(tree.Leaves()))
	gates := map[Rank]*gateLink{}
	nw, err := NewNetwork(Config{
		Topology: tree,
		// No size or age flush before the kill: all pre-kill traffic stays
		// in the back-ends, on or behind their gates, when the crash hits.
		Batch:      BatchPolicy{MaxBatch: 1024, MaxDelay: time.Hour},
		WrapFabric: gateLeaves(tree, gates),
		OnBackEnd: func(be *BackEnd) error {
			<-ready
			for i := 0; i < perBE; i++ {
				if err := be.Send(stID, tagQuery, "%d", int64(be.Rank())*100+int64(i)); err != nil {
					enqueued.Done()
					return err
				}
			}
			enqueued.Done()
			for {
				if _, err := be.Recv(); err != nil {
					return nil
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := nw.NewStream(StreamSpec{Synchronization: "nullsync"})
	if err != nil {
		t.Fatal(err)
	}
	stID = st.ID()
	close(ready)
	enqueued.Wait()
	for _, g := range gates {
		g.awaitEntered(t)
	}
	// Every payload now sits in its back-end, on or behind its gate.

	victim := tree.InternalNodes()[0]
	victimLeaves := len(tree.Children(victim))
	if err := nw.Kill(victim); err != nil {
		t.Fatal(err)
	}
	for _, g := range gates {
		g.open()
	}
	if _, err := nw.Adopt(victim, nil); err != nil {
		t.Fatal(err)
	}
	// The adoption's reparent re-flushes the orphans' retained queues: the
	// victim subtree's payloads must arrive now, before any shutdown drain.
	got := map[int64]int{}
	for i := 0; i < victimLeaves*perBE; i++ {
		p, err := st.RecvTimeout(30 * time.Second)
		if err != nil {
			t.Fatalf("after %d of %d re-flushed packets: %v", i, victimLeaves*perBE, err)
		}
		v, err := p.Int(0)
		if err != nil {
			t.Fatal(err)
		}
		got[v]++
	}
	if err := nw.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for {
		p, err := st.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		v, err := p.Int(0)
		if err != nil {
			t.Fatal(err)
		}
		got[v]++
	}
	for _, leaf := range tree.Leaves() {
		for i := 0; i < perBE; i++ {
			v := int64(leaf)*100 + int64(i)
			if got[v] != 1 {
				t.Errorf("payload %d delivered %d times, want exactly once (leaf %d)", v, got[v], leaf)
			}
		}
	}
}

// soakClassSet is the equivalence-class report a given back-end sends in
// the soak: a pair shared by every rank with the same residue (heavy
// duplication for the suppressing filter to elide) plus a unique pair.
func soakClassSet(r Rank) *eqclass.Set {
	set := eqclass.NewSet()
	set.Add(fmt.Sprintf("os-%d", r%4), int64(r%4))
	set.Add(fmt.Sprintf("cpu-%d", r), int64(r))
	return set
}

// soakResult captures one soak run's observable output: the ordered
// per-round sums of each reduction stream and the equivalence-class set
// accumulated at the front-end.
type soakResult struct {
	sums    map[int][]float64
	classes map[string]map[int64]bool
}

// runSoak streams rounds of data over several concurrent streams — sum
// reductions plus an eqclass stream — across the given overlay shape and
// returns everything the front-end observed. cfg supplies the engine
// parameters of the run (transport, batching); its Topology, Registry,
// and OnBackEnd are set here.
func runSoak(t *testing.T, shape string, sumStreams, rounds int, cfg Config) soakResult {
	t.Helper()
	tree := mustTree(t, shape)
	reg := filter.NewRegistry()
	eqclass.Register(reg)
	cfg.Topology = tree
	cfg.Registry = reg
	cfg.OnBackEnd = func(be *BackEnd) error {
		for {
			p, err := be.Recv()
			if err != nil {
				return nil
			}
			if p.Tag == tagQuery {
				// Reduction stream: one response per round, a value
				// derived from rank and round.
				r, err := p.Int(0)
				if err != nil {
					return err
				}
				v := float64(be.Rank())*1e-3 + float64(r)
				if err := be.Send(p.StreamID, p.Tag, "%f", v); err != nil {
					return err
				}
				continue
			}
			// Eqclass stream: one pair shared across many ranks (the
			// suppression case — the tree forwards it once per level,
			// not once per daemon) and one unique pair per rank.
			set := soakClassSet(be.Rank())
			rp, err := set.ToPacket(p.Tag, p.StreamID, be.Rank())
			if err != nil {
				return err
			}
			if err := be.SendPacket(rp); err != nil {
				return err
			}
		}
	}
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()

	res := soakResult{sums: map[int][]float64{}, classes: map[string]map[int64]bool{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s := 0; s < sumStreams; s++ {
		st, err := nw.NewStream(StreamSpec{
			Transformation:  "sum",
			Synchronization: "waitforall",
			RecvBuffer:      rounds + 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s int, st *Stream) {
			defer wg.Done()
			sums := make([]float64, 0, rounds)
			for r := 0; r < rounds; r++ {
				if err := st.Multicast(tagQuery, "%d", int64(r)); err != nil {
					t.Errorf("stream %d round %d multicast: %v", s, r, err)
					return
				}
			}
			for r := 0; r < rounds; r++ {
				p, err := st.RecvTimeout(60 * time.Second)
				if err != nil {
					t.Errorf("stream %d round %d recv: %v", s, r, err)
					return
				}
				v, err := p.Float(0)
				if err != nil {
					t.Errorf("stream %d round %d: %v", s, r, err)
					return
				}
				sums = append(sums, v)
			}
			mu.Lock()
			res.sums[s] = sums
			mu.Unlock()
		}(s, st)
	}

	// The eqclass stream runs concurrently with the reductions.
	eqSt, err := nw.NewStream(StreamSpec{
		Transformation:  eqclass.FilterName,
		Synchronization: "nullsync",
		RecvBuffer:      4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The suppressing filter delivers every distinct (class, member) pair
	// exactly once in total, in as many packets as timing dictates.
	want := 0
	{
		expected := eqclass.NewSet()
		for _, leaf := range tree.Leaves() {
			expected.Merge(soakClassSet(leaf))
		}
		want = expected.Len()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := eqSt.Multicast(tagQuery+1, ""); err != nil {
			t.Errorf("eqclass multicast: %v", err)
			return
		}
		seen := 0
		for seen < want {
			p, err := eqSt.RecvTimeout(60 * time.Second)
			if err != nil {
				t.Errorf("eqclass recv after %d of %d pairs: %v", seen, want, err)
				return
			}
			set, err := eqclass.FromPacket(p)
			if err != nil {
				t.Errorf("eqclass decode: %v", err)
				return
			}
			mu.Lock()
			for _, k := range set.Keys() {
				for _, m := range set.Members(k) {
					if res.classes[k] == nil {
						res.classes[k] = map[int64]bool{}
					}
					if res.classes[k][m] {
						t.Errorf("eqclass pair (%s,%d) delivered twice", k, m)
					}
					res.classes[k][m] = true
					seen++
				}
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	return res
}

// TestSoakBatchingEquivalence is the scale/soak test: a kary:16^2 overlay
// (and kary:8^3 when not -short) streams ~10k packets across concurrent
// reduction streams plus a suppressing eqclass stream through the default
// data plane. The soak's inputs are closed-form, so the run is checked
// against what the tree must compute (expectedSoak), which also catches a
// bug that two engine configurations compared with each other would share.
func TestSoakBatchingEquivalence(t *testing.T) {
	shapes := []string{"kary:16^2"}
	if !testing.Short() {
		shapes = append(shapes, "kary:8^3")
	}
	for _, shape := range shapes {
		t.Run(shape, func(t *testing.T) {
			tree := mustTree(t, shape)
			leaves := len(tree.Leaves())
			const sumStreams = 4
			rounds := (10000 + sumStreams*leaves - 1) / (sumStreams * leaves)
			if rounds < 2 {
				rounds = 2
			}
			t.Logf("%s: %d leaves × %d streams × %d rounds = %d packets (+%d eqclass)",
				shape, leaves, sumStreams, rounds, leaves*sumStreams*rounds, leaves)
			got := runSoak(t, shape, sumStreams, rounds, Config{})
			if t.Failed() {
				return
			}
			compareSoaks(t, expectedSoak(tree, sumStreams, rounds), got, sumStreams)
		})
	}
}

// soakRoundSum is the front-end result of one waitforall+sum round in
// which every back-end contributes rank*1e-3 + round (the soak's and the
// slow-consumer test's closed-form input). A waitforall batch holds one
// packet per child in child-slot order and sum folds a batch left to
// right, so folding the tree in child order reproduces the sum bit for
// bit.
func soakRoundSum(tree *topology.Tree, r Rank, round int) float64 {
	kids := tree.Children(r)
	if len(kids) == 0 {
		return float64(r)*1e-3 + float64(round)
	}
	acc := soakRoundSum(tree, kids[0], round)
	for _, c := range kids[1:] {
		acc += soakRoundSum(tree, c, round)
	}
	return acc
}

// expectedSoak computes what runSoak must observe on tree: every stream's
// per-round sums and the union of the back-ends' class sets.
func expectedSoak(tree *topology.Tree, sumStreams, rounds int) soakResult {
	sums := make([]float64, rounds)
	for r := range sums {
		sums[r] = soakRoundSum(tree, 0, r)
	}
	want := soakResult{sums: map[int][]float64{}, classes: map[string]map[int64]bool{}}
	for s := 0; s < sumStreams; s++ {
		want.sums[s] = sums
	}
	for _, leaf := range tree.Leaves() {
		set := soakClassSet(leaf)
		for _, k := range set.Keys() {
			for _, m := range set.Members(k) {
				if want.classes[k] == nil {
					want.classes[k] = map[int64]bool{}
				}
				want.classes[k][m] = true
			}
		}
	}
	return want
}

// compareSoaks asserts two soak results are eqclass-identical: identical
// per-round reduction sequences per stream and identical equivalence-class
// sets. "off" names the reference (a baseline run, or expectedSoak), "on"
// the run under test.
func compareSoaks(t *testing.T, off, on soakResult, sumStreams int) {
	t.Helper()
	for s := 0; s < sumStreams; s++ {
		offS, onS := off.sums[s], on.sums[s]
		if len(offS) != len(onS) {
			t.Fatalf("stream %d: %d deliveries off vs %d on", s, len(offS), len(onS))
		}
		for r := range offS {
			if offS[r] != onS[r] {
				t.Errorf("stream %d round %d: sum %v off vs %v on", s, r, offS[r], onS[r])
			}
		}
	}
	if len(off.classes) != len(on.classes) {
		t.Fatalf("eqclass: %d classes off vs %d on", len(off.classes), len(on.classes))
	}
	for k, offMembers := range off.classes {
		onMembers := on.classes[k]
		if len(offMembers) != len(onMembers) {
			t.Errorf("class %s: %d members off vs %d on", k, len(offMembers), len(onMembers))
			continue
		}
		for m := range offMembers {
			if !onMembers[m] {
				t.Errorf("class %s member %d present off, missing on", k, m)
			}
		}
	}
}

// TestBatchingMetrics: an enabled policy actually batches — frames carry
// multiple packets on average and the flush-cause counters move.
func TestBatchingMetrics(t *testing.T) {
	tree := mustTree(t, "kary:4^2")
	const rounds = 200
	nw, err := NewNetwork(Config{
		Topology: tree,
		Batch:    BatchPolicy{MaxBatch: 16, MaxDelay: 2 * time.Millisecond},
		OnBackEnd: func(be *BackEnd) error {
			p, err := be.Recv()
			if err != nil {
				return nil
			}
			for i := 0; i < rounds; i++ {
				if err := be.Send(p.StreamID, p.Tag, "%d", int64(i)); err != nil {
					return err
				}
			}
			for {
				if _, err := be.Recv(); err != nil {
					return nil
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall", RecvBuffer: rounds})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		if _, err := st.RecvTimeout(30 * time.Second); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if err := nw.Shutdown(); err != nil {
		t.Fatal(err)
	}
	m := nw.Metrics()
	queued, frames := m.PacketsQueued.Load(), m.FramesSent.Load()
	if queued == 0 || frames == 0 {
		t.Fatalf("no batching observed: queued=%d frames=%d", queued, frames)
	}
	if avg := float64(queued) / float64(frames); avg < 2 {
		t.Errorf("average frame size %.2f, want >= 2 under sustained load", avg)
	}
	if m.FlushSize.Load() == 0 {
		t.Error("FlushSize never incremented under sustained load")
	}
	if m.EgressHighWater.Load() < 2 {
		t.Errorf("EgressHighWater = %d, want >= 2", m.EgressHighWater.Load())
	}
}
