package core

import (
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

// TestZeroConfigIsShippingDataPlane pins the one data plane: a Config that
// sets neither Batch nor LinkWindow batches (fewer frames than packets),
// runs the credit protocol (grants flow), and bounds every egress queue by
// DefaultLinkWindow — on both fabrics. Negative knobs are rejected rather
// than read as "off".
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
