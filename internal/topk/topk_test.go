package topk

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/topology"
)

func TestListBasics(t *testing.T) {
	if _, err := NewList(0); err == nil {
		t.Error("k=0: want error")
	}
	l, err := NewList(3)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []float64{5, 1, 9, 7, 3} {
		l.Add(Entry{Key: fmt.Sprintf("f%d", i), Value: v})
	}
	es := l.Entries()
	if len(es) != 3 || es[0].Value != 9 || es[1].Value != 7 || es[2].Value != 5 {
		t.Errorf("top-3 = %v", es)
	}
}

func TestDeterministicTies(t *testing.T) {
	l, _ := NewList(2)
	l.Add(Entry{"b", 1})
	l.Add(Entry{"a", 1})
	l.Add(Entry{"c", 1})
	es := l.Entries()
	if es[0].Key != "a" || es[1].Key != "b" {
		t.Errorf("tie order = %v, want a then b", es)
	}
}

func TestPacketRoundTrip(t *testing.T) {
	l, _ := NewList(4)
	l.Add(Entry{"x", 2.5})
	l.Add(Entry{"y", -1})
	p, err := l.ToPacket(100, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.K() != 4 || len(g.Entries()) != 2 || g.Entries()[0] != (Entry{"x", 2.5}) {
		t.Errorf("round trip: k=%d %v", g.K(), g.Entries())
	}
	if _, err := FromPacket(packet.MustNew(100, 1, 0, "%d", int64(1))); err == nil {
		t.Error("wrong format: want error")
	}
	bad := packet.MustNew(100, 1, 0, PacketFormat, int64(0), []string{}, []float64{})
	if _, err := FromPacket(bad); err == nil {
		t.Error("k=0 payload: want error")
	}
	ragged := packet.MustNew(100, 1, 0, PacketFormat, int64(2), []string{"a"}, []float64{1, 2})
	if _, err := FromPacket(ragged); err == nil {
		t.Error("ragged payload: want error")
	}
}

func TestFilterMismatchedK(t *testing.T) {
	a, _ := NewList(2)
	b, _ := NewList(3)
	pa, _ := a.ToPacket(100, 1, 0)
	pb, _ := b.ToPacket(100, 1, 0)
	if _, err := filter.Collect((Filter{}), []*packet.Packet{pa, pb}); err == nil {
		t.Error("mismatched k: want error")
	}
	if o, err := filter.Collect((Filter{}), nil); err != nil || o != nil {
		t.Errorf("empty batch: %v %v", o, err)
	}
}

// Property: merging per-chunk top-k lists yields exactly the flat top-k,
// for any partition of the observations.
func TestQuickMergeExactness(t *testing.T) {
	f := func(vals []float64, kRaw, splitRaw uint8) bool {
		k := int(kRaw%8) + 1
		if len(vals) == 0 {
			return true
		}
		entries := make([]Entry, len(vals))
		for i, v := range vals {
			if v != v { // NaN breaks ordering; skip
				return true
			}
			entries[i] = Entry{Key: fmt.Sprintf("k%d", i), Value: v}
		}
		// Flat reference.
		flat, _ := NewList(k)
		for _, e := range entries {
			flat.Add(e)
		}
		// Two-chunk tree.
		split := int(splitRaw) % (len(entries) + 1)
		l1, _ := NewList(k)
		for _, e := range entries[:split] {
			l1.Add(e)
		}
		l2, _ := NewList(k)
		for _, e := range entries[split:] {
			l2.Add(e)
		}
		l1.Merge(l2)
		a, b := flat.Entries(), l1.Entries()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestOverlayHottestFunctions runs the profiling scenario: 64 daemons
// report per-function CPU times; the tree reduces to the global top 5.
func TestOverlayHottestFunctions(t *testing.T) {
	tree, err := topology.ParseSpec("balanced:64,8")
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	funcs := []string{"main", "compute", "mpi_send", "mpi_recv", "io_write"}

	// Deterministic per-daemon profile; remember the global truth.
	profile := func(rank core.Rank) map[string]float64 {
		rng := rand.New(rand.NewSource(int64(rank)))
		out := map[string]float64{}
		for _, f := range funcs {
			out[fmt.Sprintf("%s@host%d", f, rank)] = rng.Float64() * 100
		}
		return out
	}
	var all []Entry
	for _, l := range tree.Leaves() {
		for key, v := range profile(l) {
			all = append(all, Entry{key, v})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Value != all[j].Value {
			return all[i].Value > all[j].Value
		}
		return all[i].Key < all[j].Key
	})
	want := all[:k]

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
				l, err := NewList(k)
				if err != nil {
					return err
				}
				for key, v := range profile(be.Rank()) {
					l.Add(Entry{key, v})
				}
				out, err := l.ToPacket(p.Tag, p.StreamID, be.Rank())
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
	p, err := st.RecvTimeout(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries()) != k {
		t.Fatalf("got %d entries", len(got.Entries()))
	}
	for i, e := range got.Entries() {
		if e != want[i] {
			t.Errorf("rank %d: got %v, want %v", i, e, want[i])
		}
	}
	// The packet reaching the front-end carries k entries, not 64*5.
	if p.EncodedSize() > 512 {
		t.Errorf("front-end top-k packet is %d bytes; should be k-sized", p.EncodedSize())
	}
}

func BenchmarkMerge64Lists(b *testing.B) {
	lists := make([]*packet.Packet, 64)
	for i := range lists {
		l, _ := NewList(10)
		rng := rand.New(rand.NewSource(int64(i)))
		for j := 0; j < 32; j++ {
			l.Add(Entry{Key: fmt.Sprintf("f%d@%d", j, i), Value: rng.Float64()})
		}
		p, _ := l.ToPacket(100, 1, 0)
		lists[i] = p
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := filter.Collect((Filter{}), lists); err != nil {
			b.Fatal(err)
		}
	}
}
