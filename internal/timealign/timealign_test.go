package timealign

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/topology"
)

func mkSeries(t *testing.T, src packet.Rank, wm int64, pairs ...int64) *packet.Packet {
	t.Helper()
	var bins []int64
	var vals []float64
	for i := 0; i+1 < len(pairs); i += 2 {
		bins = append(bins, pairs[i])
		vals = append(vals, float64(pairs[i+1]))
	}
	p, err := Series{Bins: bins, Values: vals, Watermark: wm}.ToPacket(100, 1, src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPacketRoundTrip(t *testing.T) {
	s := Series{Bins: []int64{1, 2}, Values: []float64{0.5, 1.5}, Watermark: 2}
	p, err := s.ToPacket(100, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Bins) != 2 || g.Bins[1] != 2 || g.Values[1] != 1.5 || g.Watermark != 2 {
		t.Errorf("round trip: %+v", g)
	}
	if _, err := FromPacket(packet.MustNew(100, 1, 0, "%d", int64(1))); err == nil {
		t.Error("wrong format: want error")
	}
	bad := packet.MustNew(100, 1, 0, PacketFormat, []int64{1, 2}, []float64{1}, int64(0))
	if _, err := FromPacket(bad); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := (Series{Bins: []int64{1}, Values: nil}).ToPacket(1, 1, 0); err == nil {
		t.Error("mismatched series: want error")
	}
}

func TestWatermarkHoldsBackIncompleteBins(t *testing.T) {
	f := NewFilter()
	f.SetNumChildren(2)
	// Child 1 reports bins 0-2 (watermark 2); child 2 has only reached
	// bin 0. Bins 1-2 must wait.
	out, err := f.Transform([]*packet.Packet{
		mkSeries(t, 1, 2, 0, 10, 1, 11, 2, 12),
		mkSeries(t, 2, 0, 0, 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d packets", len(out))
	}
	s, err := FromPacket(out[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Bins) != 1 || s.Bins[0] != 0 || s.Values[0] != 30 {
		t.Fatalf("emitted %+v, want bin 0 = 30", s)
	}
	if s.Watermark != 0 {
		t.Errorf("watermark = %d, want 0", s.Watermark)
	}
	// Child 2 catches up through bin 2: bins 1 and 2 release, aligned.
	out, err = f.Transform([]*packet.Packet{
		mkSeries(t, 2, 2, 1, 21, 2, 22),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d packets after catch-up", len(out))
	}
	s, _ = FromPacket(out[0])
	if len(s.Bins) != 2 || s.Values[0] != 32 || s.Values[1] != 34 {
		t.Fatalf("aligned bins = %+v, want [32 34]", s)
	}
	if s.Watermark != 2 {
		t.Errorf("watermark = %d, want 2", s.Watermark)
	}
}

func TestNoDoubleEmission(t *testing.T) {
	f := NewFilter()
	f.SetNumChildren(1)
	out, err := f.Transform([]*packet.Packet{mkSeries(t, 1, 1, 0, 5, 1, 6)})
	if err != nil || len(out) != 1 {
		t.Fatalf("first: %v %v", out, err)
	}
	// The same watermark again releases nothing new.
	out, err = f.Transform([]*packet.Packet{mkSeries(t, 1, 1)})
	if err != nil || out != nil {
		t.Fatalf("re-report: %v %v", out, err)
	}
}

func TestEmptyBatch(t *testing.T) {
	f := NewFilter()
	if out, err := f.Transform(nil); err != nil || out != nil {
		t.Errorf("empty batch: %v %v", out, err)
	}
}

// TestOverlayAlignment runs the aligner on a real 2-level overlay where
// back-ends report the same logical time series at wildly different paces;
// the front-end must still see exactly one aggregate per bin, each equal to
// the per-bin sum over all back-ends.
func TestOverlayAlignment(t *testing.T) {
	tree, err := topology.ParseSpec("kary:3^2") // 9 back-ends
	if err != nil {
		t.Fatal(err)
	}
	const bins = 6
	reg := filter.NewRegistry()
	Register(reg)
	nw, err := core.NewNetwork(core.Config{
		Topology: tree,
		Registry: reg,
		OnBackEnd: func(be *core.BackEnd) error {
			if _, err := be.Recv(); err != nil {
				return nil
			}
			// Slow ranks trickle one bin at a time; fast ranks batch.
			fast := be.Rank()%2 == 0
			if fast {
				var pairs []int64
				for b := int64(0); b < bins; b++ {
					pairs = append(pairs, b, int64(be.Rank()))
				}
				p := mkSeriesRaw(be.Rank(), bins-1, pairs...)
				if err := be.SendPacket(p); err != nil {
					return nil
				}
			} else {
				for b := int64(0); b < bins; b++ {
					p := mkSeriesRaw(be.Rank(), b, b, int64(be.Rank()))
					if err := be.SendPacket(p); err != nil {
						return nil
					}
					time.Sleep(5 * time.Millisecond)
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
	defer nw.Shutdown()
	st, err := nw.NewStream(core.StreamSpec{
		Transformation:  FilterName,
		Synchronization: "nullsync", // alignment replaces batching
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(100, ""); err != nil {
		t.Fatal(err)
	}

	var wantPerBin float64
	for _, l := range tree.Leaves() {
		wantPerBin += float64(l)
	}
	got := map[int64]float64{}
	for len(got) < bins {
		p, err := st.RecvTimeout(20 * time.Second)
		if err != nil {
			t.Fatalf("with %d of %d bins: %v", len(got), bins, err)
		}
		s, err := FromPacket(p)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range s.Bins {
			if _, dup := got[b]; dup {
				t.Fatalf("bin %d emitted twice", b)
			}
			got[b] = s.Values[i]
		}
	}
	for b := int64(0); b < bins; b++ {
		if got[b] != wantPerBin {
			t.Errorf("bin %d = %g, want %g", b, got[b], wantPerBin)
		}
	}
}

func mkSeriesRaw(src packet.Rank, wm int64, pairs ...int64) *packet.Packet {
	var bins []int64
	var vals []float64
	for i := 0; i+1 < len(pairs); i += 2 {
		bins = append(bins, pairs[i])
		vals = append(vals, float64(pairs[i+1]))
	}
	p, err := Series{Bins: bins, Values: vals, Watermark: wm}.ToPacket(100, 1, src)
	if err != nil {
		panic(err)
	}
	return p
}

// Property: for ANY legal interleaving of per-child FIFO report streams
// (each child's bins ascending, as the overlay's FIFO links guarantee),
// every bin is emitted exactly once, in order, with the full cross-child
// sum.
func TestQuickAlignmentConservation(t *testing.T) {
	f := func(order []uint8, nChildRaw uint8) bool {
		nChildren := int(nChildRaw%3) + 2 // 2..4 children
		const bins = 5
		fl := NewFilter()
		fl.SetNumChildren(nChildren)
		next := make([]int64, nChildren) // next bin per child
		emitted := map[int64]float64{}
		lastEmitted := int64(-1)

		step := func(c int) bool {
			b := next[c]
			if b >= bins {
				return true
			}
			next[c] = b + 1
			p, err := Series{
				Bins:      []int64{b},
				Values:    []float64{float64(c + 1)},
				Watermark: b,
			}.ToPacket(100, 1, packet.Rank(c+1))
			if err != nil {
				return false
			}
			out, err := fl.Transform([]*packet.Packet{p})
			if err != nil {
				return false
			}
			for _, op := range out {
				s, err := FromPacket(op)
				if err != nil {
					return false
				}
				for k, bb := range s.Bins {
					if _, dup := emitted[bb]; dup || bb != lastEmitted+1 {
						return false // duplicate or out-of-order emission
					}
					lastEmitted = bb
					emitted[bb] = s.Values[k]
				}
			}
			return true
		}

		// Random legal interleaving driven by the generated order bytes,
		// then drain whatever remains deterministically.
		for _, o := range order {
			if !step(int(o) % nChildren) {
				return false
			}
		}
		for c := 0; c < nChildren; c++ {
			for next[c] < bins {
				if !step(c) {
					return false
				}
			}
		}

		var wantPerBin float64
		for c := 0; c < nChildren; c++ {
			wantPerBin += float64(c + 1)
		}
		if len(emitted) != bins {
			return false
		}
		for b := int64(0); b < bins; b++ {
			if emitted[b] != wantPerBin {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPacketIsASnapshot is the regression for packets that aliased their
// series: ToPacket used to hand the packet the live Bins and Values, so a
// back-end that kept filling the series changed a packet already queued or
// retained for replay. The packet holds the series as of ToPacket, and
// decoding and updating it must not change what it encodes to.
func TestPacketIsASnapshot(t *testing.T) {
	s := Series{Bins: []int64{1, 2}, Values: []float64{0.5, 1.5}, Watermark: 2}
	p, err := s.ToPacket(100, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	wire := p.Encode()
	s.Bins[1], s.Values[1] = 7, 7
	s.Bins, s.Values = append(s.Bins, 3), append(s.Values, 2.5)

	g, err := FromPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Bins) != 2 || g.Bins[1] != 2 || g.Values[1] != 1.5 {
		t.Errorf("packet decodes to %+v, want the series as of ToPacket", g)
	}
	g.Bins[0], g.Values[0] = 9, 9
	if !bytes.Equal(p.Encode(), wire) {
		t.Error("the packet encodes differently after its source and its decoded copy were updated")
	}
}
