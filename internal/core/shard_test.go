package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/packet"
)

// TestPerStreamFIFOUnder64ConcurrentStreams pins the sharded data plane's
// core invariant: with many streams filtering concurrently across a small
// shard pool, every stream individually still delivers in strict request
// order. kary:8^2 gives two routing levels (root + 8 internal processes),
// so runs cross two shard dispatches plus batched frames on every path.
func TestPerStreamFIFOUnder64ConcurrentStreams(t *testing.T) {
	const (
		streams = 64
		rounds  = 20
	)
	nw, err := NewNetwork(Config{
		Topology: mustTree(t, "kary:8^2"),
		Shards:   4,
		Batch:    BatchPolicy{MaxBatch: 16, MaxDelay: time.Millisecond},
		OnBackEnd: func(be *BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				v, _ := p.Int(0)
				if err := be.Send(p.StreamID, p.Tag, "%d", v); err != nil {
					return nil
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()

	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for s := 0; s < streams; s++ {
		st, err := nw.NewStream(StreamSpec{
			Transformation:  "max",
			Synchronization: "waitforall",
			RecvBuffer:      rounds + 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s int, st *Stream) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := st.Multicast(tagQuery, "%d", int64(r)); err != nil {
					errs <- fmt.Errorf("stream %d round %d multicast: %w", s, r, err)
					return
				}
			}
			for r := 0; r < rounds; r++ {
				p, err := st.RecvTimeout(60 * time.Second)
				if err != nil {
					errs <- fmt.Errorf("stream %d round %d recv: %w", s, r, err)
					return
				}
				if v, _ := p.Int(0); v != int64(r) {
					errs <- fmt.Errorf("stream %d delivered %d at round %d: per-stream FIFO violated", s, v, r)
					return
				}
			}
		}(s, st)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if nw.Metrics().ShardDispatches.Load() == 0 {
		t.Error("ShardDispatches = 0; the routers never dispatched to the shard workers")
	}
}

// TestSoakShardingEquivalence is the sharding acceptance soak: the same
// multi-stream workload (concurrent sum reductions plus a suppressing
// eqclass stream) run serially (Shards: 1, the pre-sharding pipeline
// order) and sharded (Shards: 4) must produce eqclass-identical results —
// identical per-round reduction sequences and identical equivalence-class
// sets — on both link fabrics.
func TestSoakShardingEquivalence(t *testing.T) {
	batch := BatchPolicy{MaxBatch: 32, MaxDelay: 2 * time.Millisecond}
	fabrics := []struct {
		name  string
		kind  TransportKind
		shape string
	}{
		{"chan", ChanTransport, "kary:8^2"},
		{"tcp", TCPTransport, "kary:4^2"},
	}
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			leaves := len(mustTree(t, f.shape).Leaves())
			const sumStreams = 4
			pkts := 5000
			if testing.Short() {
				pkts = 1500
			}
			rounds := (pkts + sumStreams*leaves - 1) / (sumStreams * leaves)
			if rounds < 2 {
				rounds = 2
			}
			serial := runSoak(t, f.shape, sumStreams, rounds,
				Config{Transport: f.kind, Batch: batch, Shards: 1})
			sharded := runSoak(t, f.shape, sumStreams, rounds,
				Config{Transport: f.kind, Batch: batch, Shards: 4})
			if t.Failed() {
				return
			}
			compareSoaks(t, serial, sharded, sumStreams)
		})
	}
}

// TestMulticastEncodesOnceTCP pins the encode-once multicast path: a packet
// fanned out to k TCP child links is serialized exactly once (the links
// share the packet's cached wire bytes), so the encode count for N
// multicasts to 8 back-ends stays O(N), not O(8N).
func TestMulticastEncodesOnceTCP(t *testing.T) {
	const (
		fanout = 8
		rounds = 50
	)
	nw, err := NewNetwork(Config{
		Topology:  mustTree(t, fmt.Sprintf("flat:%d", fanout)),
		Transport: TCPTransport,
		OnBackEnd: func(be *BackEnd) error {
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
	st, err := nw.NewStream(StreamSpec{})
	if err != nil {
		t.Fatal(err)
	}
	before := packet.WireEncodes()
	for r := 0; r < rounds; r++ {
		if err := st.Multicast(tagQuery, "%d", int64(r)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for every back-end to consume everything so all sends happened.
	deadline := time.Now().Add(30 * time.Second)
	for nw.Metrics().PacketsDown.Load() < int64(rounds*fanout) {
		if time.Now().After(deadline) {
			t.Fatalf("back-ends consumed %d of %d packets", nw.Metrics().PacketsDown.Load(), rounds*fanout)
		}
		time.Sleep(time.Millisecond)
	}
	// Stop the overlay first, so every encode it will ever do has been
	// counted: the multicast data and stream control. Credit grants are
	// header-only — framed from their fields, nothing to serialize — so
	// they no longer appear in the count.
	if err := nw.Shutdown(); err != nil {
		t.Fatal(err)
	}
	delta := packet.WireEncodes() - before
	if delta < rounds {
		t.Fatalf("encode count %d below packet count %d; counter broken", delta, rounds)
	}
	// Serial re-encoding would cost ~rounds*fanout; encode-once costs
	// ~rounds plus a handful of control packets.
	if max := int64(rounds + 10); delta > max {
		t.Errorf("%d multicasts to %d children cost %d encodes, want <= %d (encode-once)",
			rounds, fanout, delta, max)
	}
}

// TestNoGoroutineLeakAfterShutdown verifies every goroutine the engine
// spawns — link readers, shard workers, heartbeat loops, back-end handlers
// — terminates on all router exit paths: graceful shutdown, a killed
// process (no drain), recovery rewiring, and an orphaned subtree nobody
// adopts (released by the teardown), on both fabrics.
func TestNoGoroutineLeakAfterShutdown(t *testing.T) {
	fabrics := []struct {
		name string
		kind TransportKind
	}{
		{"chan", ChanTransport},
		{"tcp", TCPTransport},
	}
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			before := settledGoroutines(t, runtime.NumGoroutine())
			nw, err := NewNetwork(Config{
				Topology:        mustTree(t, "kary:3^2"),
				Transport:       f.kind,
				HeartbeatPeriod: 5 * time.Millisecond,
				Shards:          4, // multi-worker data plane regardless of core count
				Batch:           BatchPolicy{MaxBatch: 16, MaxDelay: time.Millisecond},
				OnBackEnd: func(be *BackEnd) error {
					for {
						p, err := be.Recv()
						if err != nil {
							return nil
						}
						// Orphaned sends fail until adoption; ignore.
						_ = be.Send(p.StreamID, p.Tag, "%f", float64(be.Rank()))
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
			if err != nil {
				t.Fatal(err)
			}
			round := func() {
				if err := st.Multicast(tagQuery, "%d", int64(1)); err != nil {
					t.Fatal(err)
				}
				if _, err := st.RecvTimeout(30 * time.Second); err != nil {
					t.Fatal(err)
				}
			}
			round()
			// Kill an internal node mid-run (readers + shard workers of the
			// victim must die without a drain), recover, keep flowing.
			victim := nw.Tree().InternalNodes()[0]
			if err := nw.Kill(victim); err != nil {
				t.Fatal(err)
			}
			if _, err := nw.Adopt(victim, nil); err != nil {
				t.Fatal(err)
			}
			round()
			// A second crash is never repaired: its orphans wait for an
			// adoption that does not come, and Shutdown must release them.
			if err := nw.Kill(nw.Tree().InternalNodes()[1]); err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond) // let the subtree orphan itself
			if err := nw.Shutdown(); err != nil {
				t.Fatal(err)
			}
			after := settledGoroutines(t, before+2)
			if after > before+2 {
				t.Errorf("goroutines: %d before, %d after shutdown — readers or workers leaked", before, after)
			}
		})
	}
}

// settledGoroutines polls until the goroutine count stops above target or
// stabilizes, giving exiting goroutines (prior tests' teardowns included)
// time to unwind before we baseline or assert.
func settledGoroutines(t *testing.T, target int) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	n := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= target {
			return n
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	return n
}
