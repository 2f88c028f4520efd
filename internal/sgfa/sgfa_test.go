package sgfa

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/topology"
)

// chainGraph builds main -> f1 -> f2 -> ... (a linear call chain).
func chainGraph(labels ...string) *Graph {
	g := NewGraph("main")
	parent := 0
	for _, l := range labels {
		parent = g.AddNode(parent, l)
	}
	return g
}

func TestSignature(t *testing.T) {
	a := chainGraph("compute", "mpi_send")
	b := chainGraph("compute", "mpi_send")
	c := chainGraph("compute", "mpi_recv")
	if a.Signature() != b.Signature() {
		t.Error("identical graphs have different signatures")
	}
	if a.Signature() == c.Signature() {
		t.Error("different graphs share a signature")
	}
	// Sibling order must not matter.
	d := NewGraph("main")
	d.AddNode(0, "x")
	d.AddNode(0, "y")
	e := NewGraph("main")
	e.AddNode(0, "y")
	e.AddNode(0, "x")
	if d.Signature() != e.Signature() {
		t.Error("sibling order changed the signature")
	}
}

func TestCompositeFolding(t *testing.T) {
	c := NewComposite()
	c.AddGraph(chainGraph("compute", "mpi_send"), 1)
	c.AddGraph(chainGraph("compute", "mpi_send"), 2)
	c.AddGraph(chainGraph("compute", "mpi_recv"), 3)
	// Paths: main, main/compute, main/compute/mpi_send, main/compute/mpi_recv.
	if c.NumPaths() != 4 {
		t.Errorf("NumPaths = %d, want 4: %v", c.NumPaths(), c.Paths())
	}
	hs := c.Hosts("main/compute/mpi_send")
	if len(hs) != 2 || hs[0] != 1 || hs[1] != 2 {
		t.Errorf("mpi_send hosts = %v", hs)
	}
	if got := c.Hosts("main"); len(got) != 3 {
		t.Errorf("main hosts = %v", got)
	}
	classes := c.HostClasses()
	if len(classes) != 2 {
		t.Fatalf("host classes = %d, want 2", len(classes))
	}
	// Idempotent re-add.
	c.AddGraph(chainGraph("compute", "mpi_send"), 1)
	if len(c.Hosts("main/compute/mpi_send")) != 2 {
		t.Error("re-adding a host duplicated it")
	}
}

func TestMergeAssociativity(t *testing.T) {
	g1 := chainGraph("a")
	g2 := chainGraph("b")
	g3 := chainGraph("a", "c")

	// (1+2)+3 == 1+(2+3)
	left := NewComposite()
	l12 := NewComposite()
	l12.AddGraph(g1, 1)
	l12.AddGraph(g2, 2)
	left.Merge(l12)
	l3 := NewComposite()
	l3.AddGraph(g3, 3)
	left.Merge(l3)

	right := NewComposite()
	r23 := NewComposite()
	r23.AddGraph(g2, 2)
	r23.AddGraph(g3, 3)
	r1 := NewComposite()
	r1.AddGraph(g1, 1)
	right.Merge(r1)
	right.Merge(r23)

	if len(left.Paths()) != len(right.Paths()) {
		t.Fatalf("path sets differ: %v vs %v", left.Paths(), right.Paths())
	}
	for _, p := range left.Paths() {
		lh, rh := left.Hosts(p), right.Hosts(p)
		if len(lh) != len(rh) {
			t.Errorf("path %q hosts differ: %v vs %v", p, lh, rh)
			continue
		}
		for i := range lh {
			if lh[i] != rh[i] {
				t.Errorf("path %q hosts differ: %v vs %v", p, lh, rh)
				break
			}
		}
	}
}

func TestPacketRoundTrip(t *testing.T) {
	c := NewComposite()
	c.AddGraph(chainGraph("x", "y"), 4)
	c.AddGraph(chainGraph("z"), 9)
	p, err := c.ToPacket(100, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPaths() != c.NumPaths() {
		t.Errorf("round trip paths: %v vs %v", g.Paths(), c.Paths())
	}
	for _, path := range c.Paths() {
		if len(g.Hosts(path)) != len(c.Hosts(path)) {
			t.Errorf("path %q hosts lost", path)
		}
	}
	bad := packet.MustNew(100, 1, 0, "%d", int64(1))
	if _, err := FromPacket(bad); err == nil {
		t.Error("wrong format: want error")
	}
	mismatch := packet.MustNew(100, 1, 0, PacketFormat, []string{"a", "b"}, []string{"1"})
	if _, err := FromPacket(mismatch); err == nil {
		t.Error("length mismatch: want error")
	}
	garbageHost := packet.MustNew(100, 1, 0, PacketFormat, []string{"a"}, []string{"notanumber"})
	if _, err := FromPacket(garbageHost); err == nil {
		t.Error("garbage host: want error")
	}
}

// TestThousandNodeFolding reproduces the paper's claim that SGFA-style
// folding works at thousand-node scale: 1024 back-ends, each exhibiting one
// of 4 qualitative graph structures, fold to 4 host equivalence classes at
// the front-end.  [T-SGFA]
func TestThousandNodeFolding(t *testing.T) {
	if testing.Short() {
		t.Skip("thousand-node overlay in -short mode")
	}
	tree, err := topology.ParseSpec("kary:4^5") // 1024 leaves
	if err != nil {
		t.Fatal(err)
	}
	shapes := []*Graph{
		chainGraph("compute", "mpi_send"),
		chainGraph("compute", "mpi_recv"),
		chainGraph("io", "write"),
		chainGraph("io", "read", "parse"),
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
				comp := NewComposite()
				comp.AddGraph(shapes[int(be.Rank())%len(shapes)], int64(be.Rank()))
				out, err := comp.ToPacket(p.Tag, p.StreamID, be.Rank())
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
	p, err := st.RecvTimeout(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := FromPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	classes := comp.HostClasses()
	if len(classes) != len(shapes) {
		t.Fatalf("folded to %d classes, want %d", len(classes), len(shapes))
	}
	total := 0
	for _, hosts := range classes {
		total += len(hosts)
	}
	if total != 1024 {
		t.Errorf("classes cover %d hosts, want 1024", total)
	}
}

// Property: folding N identical graphs yields one class containing all hosts.
func TestQuickIdenticalGraphsOneClass(t *testing.T) {
	f := func(nRaw uint8, depth uint8) bool {
		n := int(nRaw%20) + 1
		labels := make([]string, depth%5+1)
		for i := range labels {
			labels[i] = fmt.Sprintf("f%d", i)
		}
		g := chainGraph(labels...)
		c := NewComposite()
		for h := 0; h < n; h++ {
			c.AddGraph(g, int64(h))
		}
		classes := c.HostClasses()
		if len(classes) != 1 {
			return false
		}
		for _, hosts := range classes {
			if len(hosts) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFold1024(b *testing.B) {
	shapes := []*Graph{
		chainGraph("compute", "mpi_send"),
		chainGraph("compute", "mpi_recv"),
		chainGraph("io", "write"),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewComposite()
		for h := 0; h < 1024; h++ {
			c.AddGraph(shapes[h%len(shapes)], int64(h))
		}
		if len(c.HostClasses()) != 3 {
			b.Fatal("bad fold")
		}
	}
}

// NumPaths returns the number of distinct labeled paths.
func (c *Composite) NumPaths() int { return len(c.hosts) }

// Signature returns a canonical string identifying the graph's qualitative
// structure: its sorted path set. Graphs with equal signatures fold into
// the same host equivalence class.
func (g *Graph) Signature() string {
	ps := g.paths()
	sort.Strings(ps)
	return strings.Join(ps, "\n")
}
