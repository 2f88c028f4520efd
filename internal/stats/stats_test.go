package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/topology"
)

func TestMomentsBasics(t *testing.T) {
	m := New()
	if m.Mean() != 0 || m.Variance() != 0 || m.Min() != 0 || m.Max() != 0 {
		t.Error("empty moments should read as zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.N != 8 || m.Mean() != 5 {
		t.Errorf("N=%d mean=%g", m.N, m.Mean())
	}
	// Population variance of the classic set is 4.
	if math.Abs(m.Variance()-4) > 1e-12 {
		t.Errorf("variance = %g, want 4", m.Variance())
	}
	if m.Std() != 2 {
		t.Errorf("std = %g, want 2", m.Std())
	}
	if m.Min() != 2 || m.Max() != 9 {
		t.Errorf("min/max = %g/%g", m.Min(), m.Max())
	}
}

func TestMergeEqualsUnion(t *testing.T) {
	a, b, u := New(), New(), New()
	for i := 0; i < 10; i++ {
		x := float64(i * i)
		a.Add(x)
		u.Add(x)
	}
	for i := 10; i < 25; i++ {
		x := -float64(i)
		b.Add(x)
		u.Add(x)
	}
	a.Merge(b)
	if a.N != u.N || a.Sum != u.Sum || a.SumSq != u.SumSq || a.MinV != u.MinV || a.MaxV != u.MaxV {
		t.Errorf("merged %+v != union %+v", a, u)
	}
}

func TestPacketRoundTrip(t *testing.T) {
	m := New()
	m.Add(1)
	m.Add(-3)
	p, err := m.ToPacket(100, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 2 || g.Min() != -3 || g.Max() != 1 {
		t.Errorf("round trip: %+v", g)
	}
	if _, err := FromPacket(packet.MustNew(100, 1, 0, "%d", int64(1))); err == nil {
		t.Error("wrong format: want error")
	}
	neg := packet.MustNew(100, 1, 0, PacketFormat, int64(-1), 0.0, 0.0, 0.0, 0.0)
	if _, err := FromPacket(neg); err == nil {
		t.Error("negative count: want error")
	}
}

func TestFilterMerges(t *testing.T) {
	mk := func(xs ...float64) *packet.Packet {
		m := New()
		for _, x := range xs {
			m.Add(x)
		}
		p, _ := m.ToPacket(100, 1, 0)
		return p
	}
	out, err := filter.Collect((Filter{}), []*packet.Packet{mk(1, 2, 3), mk(10), mk(-5, 5)})
	if err != nil || len(out) != 1 {
		t.Fatalf("transform: %v %v", out, err)
	}
	g, err := FromPacket(out[0])
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 6 || g.Min() != -5 || g.Max() != 10 {
		t.Errorf("merged: %+v", g)
	}
	if o, err := filter.Collect((Filter{}), nil); err != nil || o != nil {
		t.Errorf("empty batch: %v %v", o, err)
	}
}

// Property: any split of a sample set into per-leaf chunks, merged in any
// tree shape, yields the same moments as the flat computation.
func TestQuickTreeShapeInvariance(t *testing.T) {
	f := func(xs []float64, split uint8) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true
			}
		}
		if len(xs) < 2 {
			return true
		}
		flat := New()
		for _, x := range xs {
			flat.Add(x)
		}
		k := int(split)%(len(xs)-1) + 1
		left, right := New(), New()
		for _, x := range xs[:k] {
			left.Add(x)
		}
		for _, x := range xs[k:] {
			right.Add(x)
		}
		left.Merge(right)
		return left.N == flat.N &&
			math.Abs(left.Sum-flat.Sum) <= 1e-9*(1+math.Abs(flat.Sum)) &&
			math.Abs(left.SumSq-flat.SumSq) <= 1e-9*(1+math.Abs(flat.SumSq)) &&
			left.MinV == flat.MinV && left.MaxV == flat.MaxV
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestOverlayMoments computes exact global statistics over a 3-level
// overlay and compares them to the direct computation.
func TestOverlayMoments(t *testing.T) {
	tree, err := topology.ParseSpec("kary:3^2")
	if err != nil {
		t.Fatal(err)
	}
	reg := filter.NewRegistry()
	Register(reg)
	nw, err := core.NewNetwork(core.Config{
		Topology: tree,
		Registry: reg,
		OnBackEnd: func(be *core.BackEnd) error {
			for {
				p, err := be.Recv()
				if err != nil {
					return nil
				}
				m := New()
				for i := 0; i < 100; i++ {
					m.Add(float64(be.Rank()) + float64(i)/100)
				}
				out, err := m.ToPacket(p.Tag, p.StreamID, be.Rank())
				if err != nil {
					return err
				}
				if err := be.SendPacket(out); err != nil {
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
		Synchronization: "waitforall",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Multicast(100, ""); err != nil {
		t.Fatal(err)
	}
	p, err := st.RecvTimeout(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	want := New()
	for _, l := range tree.Leaves() {
		for i := 0; i < 100; i++ {
			want.Add(float64(l) + float64(i)/100)
		}
	}
	if got.N != want.N || math.Abs(got.Mean()-want.Mean()) > 1e-9 ||
		math.Abs(got.Std()-want.Std()) > 1e-9 ||
		got.Min() != want.Min() || got.Max() != want.Max() {
		t.Errorf("overlay moments %+v, want %+v", got, want)
	}
}
