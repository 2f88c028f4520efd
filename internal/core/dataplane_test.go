package core

import (
	"sync/atomic"
	"testing"
	"time"
)

// blastConfig is a zero-value Config — no Batch, no LinkWindow — whose
// back-ends answer the first multicast with perBE upstream packets.
func blastConfig(t *testing.T, kind TransportKind, perBE int) Config {
	return Config{
		Topology:  mustTree(t, "kary:4^2"),
		Transport: kind,
		OnBackEnd: func(be *BackEnd) error {
			p, err := be.Recv()
			if err != nil {
				return nil
			}
			for i := 0; i < perBE; i++ {
				if err := be.Send(p.StreamID, p.Tag, "%d", int64(i)); err != nil {
					return nil
				}
			}
			for {
				if _, err := be.Recv(); err != nil {
					return nil
				}
			}
		},
	}
}

// killAdoptMidStream runs the one recovery semantics against cfg (whose
// Topology and OnBackEnd it supplies): every back-end streams perBE unique
// ids through an identity/nullsync stream, an internal node is killed and
// adopted once a quarter of them are in — mid-stream, windows spent, a slow
// front-end buffer keeping the rest in flight — and every id must arrive
// exactly once with no replay ring past DefaultLinkWindow. Returns the
// final counter snapshot.
func killAdoptMidStream(t *testing.T, cfg Config) map[string]int64 {
	t.Helper()
	const perBE = 300
	tree := mustTree(t, "kary:4^2")
	var started atomic.Int32
	cfg.Topology = tree
	cfg.OnBackEnd = func(be *BackEnd) error {
		p, err := be.Recv()
		if err != nil {
			return nil
		}
		started.Add(1)
		for i := 0; i < perBE; i++ {
			if err := be.Send(p.StreamID, p.Tag, "%d", int64(be.Rank())*1000+int64(i)); err != nil {
				return nil
			}
		}
		for {
			if _, err := be.Recv(); err != nil {
				return nil
			}
		}
	}
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	st, err := nw.NewStream(StreamSpec{Synchronization: "nullsync", RecvBuffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(tagQuery, ""); err != nil {
		t.Fatal(err)
	}
	want := len(tree.Leaves()) * perBE
	var delivered atomic.Int64
	// The kill runs beside the reader: adoption quiesces the overlay, and
	// the quiesce needs the consumer to keep draining.
	killErr := make(chan error, 1)
	go func() {
		for delivered.Load() < int64(want/4) || int(started.Load()) < len(tree.Leaves()) {
			time.Sleep(time.Millisecond)
		}
		victim := tree.InternalNodes()[0]
		if err := nw.Kill(victim); err != nil {
			killErr <- err
			return
		}
		_, err := nw.Adopt(victim, nil)
		killErr <- err
	}()
	got := map[int64]int{}
	deadline := time.Now().Add(60 * time.Second)
	for have := 0; have < want; have++ {
		p, err := st.RecvTimeout(time.Until(deadline))
		if err != nil {
			t.Fatalf("with %d of %d delivered: %v", have, want, err)
		}
		if v, err := p.Int(0); err == nil {
			got[v]++
		}
		delivered.Store(int64(have + 1))
	}
	if err := <-killErr; err != nil {
		t.Fatal(err)
	}
	// A late duplicate would arrive behind the expected count.
	for {
		p, err := st.RecvTimeout(100 * time.Millisecond)
		if err != nil {
			break
		}
		if v, err := p.Int(0); err == nil {
			got[v]++
		}
	}
	for _, leaf := range tree.Leaves() {
		for i := 0; i < perBE; i++ {
			if v := int64(leaf)*1000 + int64(i); got[v] != 1 {
				t.Errorf("payload %d delivered %d times, want exactly once", v, got[v])
			}
		}
	}
	snap := nw.Metrics().Snapshot()
	if snap["recoveries_completed"] != 1 {
		t.Errorf("recoveries_completed = %d, want 1", snap["recoveries_completed"])
	}
	if hw := snap["replay_ring_high_water"]; hw == 0 || hw > DefaultLinkWindow {
		t.Errorf("replay_ring_high_water %d outside (0, DefaultLinkWindow %d]", hw, DefaultLinkWindow)
	}
	return snap
}

// TestZeroConfigIsShippingDataPlane pins the one data plane: a Config that
// sets neither Batch nor LinkWindow batches (fewer frames than packets),
// runs the credit protocol (grants flow), and bounds every egress queue by
// DefaultLinkWindow — on both fabrics — and survives the crash and adoption
// of an internal node mid-stream with nothing lost or duplicated. Negative
// knobs are rejected rather than read as "off".
func TestZeroConfigIsShippingDataPlane(t *testing.T) {
	const perBE = 300
	bothFabrics(t, func(t *testing.T, kind TransportKind) {
		nw, err := NewNetwork(blastConfig(t, kind, perBE))
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Shutdown()
		st, err := nw.NewStream(StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Multicast(tagQuery, ""); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perBE; i++ {
			if _, err := st.RecvTimeout(30 * time.Second); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		}
		snap := nw.Metrics().Snapshot()
		if snap["frames_sent"] >= snap["packets_queued"] {
			t.Errorf("frames_sent %d >= packets_queued %d: the default policy did not batch",
				snap["frames_sent"], snap["packets_queued"])
		}
		if snap["credit_grants"] == 0 {
			t.Error("credit_grants = 0: the default window ran no credit protocol")
		}
		if hw := snap["egress_high_water"]; hw > DefaultLinkWindow {
			t.Errorf("egress_high_water %d exceeds DefaultLinkWindow %d", hw, DefaultLinkWindow)
		}
		killAdoptMidStream(t, Config{Transport: kind})
	})
	for name, cfg := range map[string]Config{
		"LinkWindow": {Topology: mustTree(t, "flat:2"), LinkWindow: -1},
		"MaxBatch":   {Topology: mustTree(t, "flat:2"), Batch: BatchPolicy{MaxBatch: -1}},
	} {
		if nw, err := NewNetwork(cfg); err == nil {
			nw.Shutdown()
			t.Errorf("NewNetwork accepted a negative %s", name)
		}
	}
}

// TestModeFieldsInert pins the transition: Config.Recoverable,
// Config.ExactlyOnce and Config.Shards are still declared (the benchmark
// assigns them) but nothing reads them — either setting exposes the same
// counters and passes the same kill/adopt check. Dies with the fields.
func TestModeFieldsInert(t *testing.T) {
	off := killAdoptMidStream(t, Config{Recoverable: false, ExactlyOnce: false, Shards: 0})
	on := killAdoptMidStream(t, Config{Recoverable: true, ExactlyOnce: true, Shards: 4})
	if len(off) != len(on) {
		t.Errorf("Snapshot exposes %d counters with the fields off, %d with them on", len(off), len(on))
	}
	for k := range off {
		if _, ok := on[k]; !ok {
			t.Errorf("Snapshot key %q present only with the fields off", k)
		}
	}
}

// TestShutdownWithUnreadStream is the regression test for Shutdown hanging
// on a stream nobody reads: the front-end blocked delivering into the full
// receive buffer while Shutdown waited for the front-end before closing
// streams. Delivery now gives up once the network is dying.
func TestShutdownWithUnreadStream(t *testing.T) {
	const buf = 4
	bothFabrics(t, func(t *testing.T, kind TransportKind) {
		nw, err := NewNetwork(blastConfig(t, kind, 8*buf))
		if err != nil {
			t.Fatal(err)
		}
		st, err := nw.NewStream(StreamSpec{RecvBuffer: buf})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Multicast(tagQuery, ""); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); len(st.recvCh) < buf; {
			if time.Now().After(deadline) {
				t.Fatalf("receive buffer holds %d of %d packets; the test needs it full", len(st.recvCh), buf)
			}
			time.Sleep(time.Millisecond)
		}
		done := make(chan error, 1)
		go func() { done <- nw.Shutdown() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Shutdown: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Shutdown did not return with an unread, full stream")
		}
	})
}
