package transport

import (
	"io"
	"testing"

	"repro/internal/packet"
)

func mkBatch(n int) []*packet.Packet {
	out := make([]*packet.Packet, n)
	for i := range out {
		out[i] = mkPkt(100, int64(i))
	}
	return out
}

// TestBatchRoundTrip: a SendBatch arrives as one RecvBatch frame with
// order and payloads intact, on both transports.
func TestBatchRoundTrip(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			a, b := f.make(t)
			defer a.Close()
			defer b.Close()
			sent := mkBatch(5)
			if err := SendBatch(a, sent); err != nil {
				t.Fatal(err)
			}
			got, err := RecvBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(sent) {
				t.Fatalf("RecvBatch returned %d packets, want %d", len(got), len(sent))
			}
			for i, p := range got {
				if v, _ := p.Int(0); v != int64(i) {
					t.Errorf("packet %d carries %d", i, v)
				}
			}
		})
	}
}

// TestBatchInterleavesWithSingles: per-packet Recv parcels a batch out one
// packet at a time, FIFO with surrounding single sends.
func TestBatchInterleavesWithSingles(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			a, b := f.make(t)
			defer a.Close()
			defer b.Close()
			if err := a.Send(mkPkt(100, 100)); err != nil {
				t.Fatal(err)
			}
			if err := SendBatch(a, mkBatch(3)); err != nil {
				t.Fatal(err)
			}
			if err := a.Send(mkPkt(100, 200)); err != nil {
				t.Fatal(err)
			}
			want := []int64{100, 0, 1, 2, 200}
			for i, w := range want {
				p, err := b.Recv()
				if err != nil {
					t.Fatalf("Recv %d: %v", i, err)
				}
				if v, _ := p.Int(0); v != w {
					t.Fatalf("Recv %d = %d, want %d", i, v, w)
				}
			}
		})
	}
}

// TestFramesSharePacketEncodings pins the "links frame a packet's own
// bytes" contract: the TCP frame writer copies each packet's payload as
// New serialized it, so sending the same packets over k links costs the one
// serialization pass each packet got when it was built — the encode-once
// half of a multicast — and none per link. (The chan transport moves
// pointers and never touches the bytes at all.)
func TestFramesSharePacketEncodings(t *testing.T) {
	var tcp linkFactory
	for _, f := range factories() {
		if f.name == "tcp" {
			tcp = f
		}
	}
	a1, b1 := tcp.make(t)
	a2, b2 := tcp.make(t)
	defer func() {
		for _, l := range []Link{a1, b1, a2, b2} {
			l.Close()
		}
	}()
	const n = 6
	before := packet.WireEncodes()
	batch := mkBatch(n)
	if err := SendBatch(a1, append([]*packet.Packet(nil), batch...)); err != nil {
		t.Fatal(err)
	}
	if err := SendBatch(a2, append([]*packet.Packet(nil), batch...)); err != nil {
		t.Fatal(err)
	}
	for _, b := range []Link{b1, b2} {
		got, err := RecvBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("received %d packets, want %d", len(got), n)
		}
		for i, p := range got {
			if v, _ := p.Int(0); v != int64(i) {
				t.Errorf("packet %d carries %d", i, v)
			}
		}
	}
	if delta := packet.WireEncodes() - before; delta != n {
		t.Errorf("two-link fan-out of %d packets cost %d serialization passes, want %d (encode-once)",
			n, delta, n)
	}
}

// TestRecvBatchDrainsPendingThenEOF: a half-consumed batch keeps serving
// after the peer closes, then EOF.
func TestRecvBatchDrainsPendingThenEOF(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			a, b := f.make(t)
			defer b.Close()
			if err := SendBatch(a, mkBatch(3)); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Recv(); err != nil { // consume one, leaving pending
				t.Fatal(err)
			}
			a.Close()
			rest, err := RecvBatch(b)
			if err != nil {
				t.Fatalf("RecvBatch of pending remainder: %v", err)
			}
			if len(rest) != 2 {
				t.Fatalf("pending remainder %d packets, want 2", len(rest))
			}
			if _, err := RecvBatch(b); err != io.EOF {
				t.Fatalf("RecvBatch after drain = %v, want io.EOF", err)
			}
		})
	}
}
