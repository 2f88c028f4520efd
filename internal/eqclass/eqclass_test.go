package eqclass

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/topology"
)

func TestSetAddAndMerge(t *testing.T) {
	s := NewSet()
	if !s.Add("linux", 1) {
		t.Error("first add should be new")
	}
	if s.Add("linux", 1) {
		t.Error("duplicate add should not be new")
	}
	s.Add("linux", 2)
	s.Add("aix", 3)
	if s.Len() != 3 || s.NumClasses() != 2 {
		t.Errorf("Len=%d classes=%d", s.Len(), s.NumClasses())
	}
	o := NewSet()
	o.Add("linux", 2) // already known
	o.Add("linux", 4) // new member
	o.Add("sunos", 5) // new class
	delta := s.Merge(o)
	if delta.Len() != 2 {
		t.Errorf("delta = %d pairs, want 2", delta.Len())
	}
	if got := s.Members("linux"); len(got) != 3 || got[2] != 4 {
		t.Errorf("linux members = %v", got)
	}
	if got := s.Keys(); len(got) != 3 || got[0] != "aix" {
		t.Errorf("keys = %v", got)
	}
}

func TestPacketRoundTrip(t *testing.T) {
	s := NewSet()
	s.Add("a", 1)
	s.Add("a", 2)
	s.Add("b", 7)
	p, err := s.ToPacket(100, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 || len(g.Members("a")) != 2 || g.Members("b")[0] != 7 {
		t.Errorf("round trip: %v", g.Keys())
	}
	bad := packet.MustNew(100, 1, 0, "%d", int64(1))
	if _, err := FromPacket(bad); err == nil {
		t.Error("wrong format: want error")
	}
	mismatched := packet.MustNew(100, 1, 0, PacketFormat, []string{"a"}, []int64{1, 2})
	if _, err := FromPacket(mismatched); err == nil {
		t.Error("length mismatch: want error")
	}
}

func TestFilterSuppressesRedundancy(t *testing.T) {
	f := NewFilter()
	mk := func(key string, member int64) *packet.Packet {
		s := NewSet()
		s.Add(key, member)
		p, _ := s.ToPacket(100, 1, 0)
		return p
	}
	// First report: forwarded.
	out, err := filter.Collect(f, []*packet.Packet{mk("linux", 1)})
	if err != nil || len(out) != 1 {
		t.Fatalf("first report: %v %v", out, err)
	}
	// Identical report from another execution: suppressed entirely.
	out, err = filter.Collect(f, []*packet.Packet{mk("linux", 1)})
	if err != nil || out != nil {
		t.Fatalf("duplicate report not suppressed: %v %v", out, err)
	}
	// New member of a known class: only the delta flows.
	out, err = filter.Collect(f, []*packet.Packet{mk("linux", 1), mk("linux", 2)})
	if err != nil || len(out) != 1 {
		t.Fatalf("delta report: %v %v", out, err)
	}
	d, err := FromPacket(out[0])
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 || d.Members("linux")[0] != 2 {
		t.Errorf("delta = %v", d.Keys())
	}
}

func TestFilterStateRoundTrip(t *testing.T) {
	f := NewFilter()
	s := NewSet()
	s.Add("x", 1)
	s.Add("y", 2)
	p, _ := s.ToPacket(100, 1, 0)
	if _, err := filter.Collect(f, []*packet.Packet{p}); err != nil {
		t.Fatal(err)
	}
	blob, err := f.State()
	if err != nil {
		t.Fatal(err)
	}
	g := NewFilter()
	if err := g.SetState(blob); err != nil {
		t.Fatal(err)
	}
	// The restored filter suppresses what the original saw.
	out, err := filter.Collect(g, []*packet.Packet{p})
	if err != nil || out != nil {
		t.Errorf("restored filter forwarded known data: %v %v", out, err)
	}
	if err := g.SetState([]byte{1, 2, 3}); err == nil {
		t.Error("garbage state: want error")
	}
}

// The filter must satisfy the snapshot interface state composition uses.
var _ filter.StatefulTransformation = (*Filter)(nil)

// TestTreeWideSuppression runs the Paradyn scenario end to end: 27 daemons
// report one of 3 platform strings; the front-end receives each (class,
// member) pair exactly once, and the per-level suppression means the root's
// children forward far fewer packets than arrived at the leaves.
func TestTreeWideSuppression(t *testing.T) {
	tree, err := topology.ParseSpec("kary:3^3") // 27 leaves
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
				s := NewSet()
				s.Add(fmt.Sprintf("platform-%d", be.Rank()%3), int64(be.Rank()))
				out, err := s.ToPacket(p.Tag, p.StreamID, be.Rank())
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
	total := NewSet()
	for total.Len() < 27 {
		p, err := st.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatalf("after %d pairs: %v", total.Len(), err)
		}
		s, err := FromPacket(p)
		if err != nil {
			t.Fatal(err)
		}
		if d := total.Merge(s); d.Len() != s.Len() {
			t.Fatalf("front-end received a duplicate pair (merge delta %d of %d)", d.Len(), s.Len())
		}
	}
	if total.NumClasses() != 3 {
		t.Errorf("classes = %d, want 3", total.NumClasses())
	}
	for _, k := range total.Keys() {
		if got := len(total.Members(k)); got != 9 {
			t.Errorf("class %s has %d members, want 9", k, got)
		}
	}
}

// Property: merge is idempotent and conserves pairs: after merging any
// sequence of sets, Len equals the number of distinct pairs.
func TestQuickMergeConservation(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		s := NewSet()
		distinct := map[[2]uint8]bool{}
		for _, pr := range pairs {
			key := fmt.Sprintf("k%d", pr[0]%4)
			s.Add(key, int64(pr[1]))
			distinct[[2]uint8{pr[0] % 4, pr[1]}] = true
		}
		return s.Len() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFilter512Daemons(b *testing.B) {
	// 512 daemons, 8 distinct classes: the suppression workload of the
	// startup experiment.
	pkts := make([]*packet.Packet, 512)
	for i := range pkts {
		s := NewSet()
		s.Add(fmt.Sprintf("platform-%d", i%8), int64(i))
		pkts[i], _ = s.ToPacket(100, 1, 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := NewFilter()
		if _, err := filter.Collect(f, pkts); err != nil {
			b.Fatal(err)
		}
	}
}

// NumClasses returns the number of distinct keys.
func (s *Set) NumClasses() int { return len(s.classes) }
