package histogram

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/filter"
	"repro/internal/packet"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 10, 0); err == nil {
		t.Error("zero bins: want error")
	}
	if _, err := New(10, 10, 4); err == nil {
		t.Error("empty range: want error")
	}
	if _, err := New(10, 0, 4); err == nil {
		t.Error("inverted range: want error")
	}
}

func TestAddAndCount(t *testing.T) {
	h, err := New(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	if h.Count() != 10 {
		t.Errorf("Count = %d", h.Count())
	}
	for i, b := range h.Bins {
		if b != 1 {
			t.Errorf("bin %d = %d, want 1", i, b)
		}
	}
	// Out-of-range clamps to boundary bins.
	h.Add(-100)
	h.Add(+100)
	if h.Bins[0] != 2 || h.Bins[9] != 2 {
		t.Errorf("clamping: bins = %v", h.Bins)
	}
	// NaN is ignored.
	h.Add(math.NaN())
	if h.Count() != 12 {
		t.Errorf("NaN counted: %d", h.Count())
	}
}

func TestMerge(t *testing.T) {
	a, _ := New(0, 10, 5)
	b, _ := New(0, 10, 5)
	a.Add(1)
	b.Add(1)
	b.Add(9)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 3 || a.Bins[0] != 2 || a.Bins[4] != 1 {
		t.Errorf("merged = %v", a.Bins)
	}
	c, _ := New(0, 10, 6)
	if err := a.Merge(c); !errors.Is(err, ErrMismatch) {
		t.Errorf("bin mismatch: %v", err)
	}
	d, _ := New(0, 11, 5)
	if err := a.Merge(d); !errors.Is(err, ErrMismatch) {
		t.Errorf("range mismatch: %v", err)
	}
}

func TestQuantile(t *testing.T) {
	h, _ := New(0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i) + 0.5)
	}
	if q := h.Quantile(0.5); math.Abs(q-50) > 2 {
		t.Errorf("median = %g, want ~50", q)
	}
	if q := h.Quantile(0.9); math.Abs(q-90) > 2 {
		t.Errorf("P90 = %g, want ~90", q)
	}
	empty, _ := New(0, 1, 4)
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %g", q)
	}
	if q := h.Quantile(-1); q > 2 {
		t.Errorf("clamped q<0 = %g", q)
	}
	if q := h.Quantile(2); q < 98 {
		t.Errorf("clamped q>1 = %g", q)
	}
}

func TestPacketRoundTrip(t *testing.T) {
	h, _ := New(-5, 5, 8)
	h.Add(0)
	h.Add(-4.9)
	h.Add(4.9)
	p, err := h.ToPacket(100, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.Min != h.Min || g.Max != h.Max || g.Count() != 3 {
		t.Errorf("round trip: %+v", g)
	}
	// Decoded histogram is independent of the packet's backing array.
	g.Bins[0] = 99
	g2, _ := FromPacket(p)
	if g2.Bins[0] == 99 {
		t.Error("FromPacket shares bins with packet")
	}
	bad := packet.MustNew(100, 1, 0, "%d", int64(1))
	if _, err := FromPacket(bad); err == nil {
		t.Error("wrong format: want error")
	}
	corrupt := packet.MustNew(100, 1, 0, PacketFormat, 5.0, 5.0, []int64{1})
	if _, err := FromPacket(corrupt); err == nil {
		t.Error("invalid bounds: want error")
	}
}

func TestFilterMerges(t *testing.T) {
	mk := func(vals ...float64) *packet.Packet {
		h, _ := New(0, 10, 5)
		for _, v := range vals {
			h.Add(v)
		}
		p, _ := h.ToPacket(100, 1, 0)
		return p
	}
	out, err := filter.Collect(Filter{}, []*packet.Packet{mk(1, 2), mk(8), mk(9, 9, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d packets", len(out))
	}
	g, err := FromPacket(out[0])
	if err != nil {
		t.Fatal(err)
	}
	if g.Count() != 6 {
		t.Errorf("merged count = %d, want 6", g.Count())
	}
	if o, err := filter.Collect((Filter{}), nil); err != nil || o != nil {
		t.Errorf("empty batch: %v %v", o, err)
	}
	// Mismatched configurations propagate the error.
	other, _ := New(0, 20, 5)
	po, _ := other.ToPacket(100, 1, 0)
	if _, err := filter.Collect((Filter{}), []*packet.Packet{mk(1), po}); err == nil {
		t.Error("mismatched merge: want error")
	}
}

// Property: merging preserves total count and is order-independent.
func TestQuickMergeConservation(t *testing.T) {
	f := func(a, b []uint8) bool {
		ha, _ := New(0, 256, 16)
		hb, _ := New(0, 256, 16)
		for _, x := range a {
			ha.Add(float64(x))
		}
		for _, x := range b {
			hb.Add(float64(x))
		}
		m1, _ := New(0, 256, 16)
		m1.Merge(ha)
		m1.Merge(hb)
		m2, _ := New(0, 256, 16)
		m2.Merge(hb)
		m2.Merge(ha)
		if m1.Count() != int64(len(a)+len(b)) {
			return false
		}
		for i := range m1.Bins {
			if m1.Bins[i] != m2.Bins[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMerge64Histograms(b *testing.B) {
	pkts := make([]*packet.Packet, 64)
	for i := range pkts {
		h, _ := New(0, 100, 50)
		for j := 0; j < 100; j++ {
			h.Add(float64((i*j)%100) + 0.5)
		}
		p, _ := h.ToPacket(100, 1, 0)
		pkts[i] = p
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := filter.Collect((Filter{}), pkts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPacketIsASnapshot is the regression for packets that aliased their
// histogram: ToPacket used to hand the packet the live Bins, so an Add after
// it changed a packet already queued, retained for replay or in a sibling's
// hands. The packet holds the counts as of ToPacket, and decoding and
// merging it must not change what it encodes to.
func TestPacketIsASnapshot(t *testing.T) {
	h, err := New(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(1)
	h.Add(9)
	p, err := h.ToPacket(100, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	wire := p.Encode()
	h.Add(1)
	h.Add(5)

	g, err := FromPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.Count() != 2 || g.Bins[0] != 1 || g.Bins[4] != 1 {
		t.Errorf("packet decodes to bins %v, want the two observations made before ToPacket", g.Bins)
	}
	if err := g.Merge(h); err != nil {
		t.Fatal(err)
	}
	g.Add(3)
	if !bytes.Equal(p.Encode(), wire) {
		t.Error("the packet encodes differently after its source and its decoded copy were updated")
	}
}
