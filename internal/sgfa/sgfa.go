// Package sgfa implements the Sub-Graph Folding Algorithm the paper cites
// (Roth & Miller): combining sub-graphs of similar qualitative structure
// into a composite sub-graph so that a tool displaying per-host graphs
// (e.g. Paradyn's search history graphs for thousands of daemons) shows one
// composite per equivalence class of hosts instead of one graph per host.
//
// Graphs here are rooted, labeled trees (call/search graphs). Two graphs
// are qualitatively similar when they contain the same labeled paths; the
// composite is the union of labeled paths, each annotated with the set of
// hosts exhibiting it. Folding is associative and commutative, so it is a
// valid TBON reduction: each communication process folds its children's
// composites and forwards one composite upstream.
package sgfa

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/filter"
	"repro/internal/packet"
)

// Graph is a rooted labeled tree described by parallel arrays: node i has
// label Labels[i] and parent Parents[i] (-1 for the root, node 0).
type Graph struct {
	Labels  []string
	Parents []int
}

// NewGraph returns a graph with just a root node.
func NewGraph(rootLabel string) *Graph {
	return &Graph{Labels: []string{rootLabel}, Parents: []int{-1}}
}

// AddNode appends a node with the given label under parent, returning its
// index.
func (g *Graph) AddNode(parent int, label string) int {
	g.Labels = append(g.Labels, label)
	g.Parents = append(g.Parents, parent)
	return len(g.Labels) - 1
}

// paths returns the set of root-to-node label paths, "/"-joined. Every
// node contributes the path ending at it, so structure and labels are both
// captured.
func (g *Graph) paths() []string {
	out := make([]string, len(g.Labels))
	for i := range g.Labels {
		if g.Parents[i] < 0 {
			out[i] = g.Labels[i]
		} else {
			out[i] = out[g.Parents[i]] + "/" + g.Labels[i]
		}
	}
	return out
}

// Composite is a folded set of graphs: the union of labeled paths, each
// with the sorted set of hosts exhibiting it.
type Composite struct {
	hosts map[string][]int64 // path -> host ranks
}

// NewComposite returns an empty composite.
func NewComposite() *Composite { return &Composite{hosts: map[string][]int64{}} }

// AddGraph folds one host's graph into the composite.
func (c *Composite) AddGraph(g *Graph, host int64) {
	for _, p := range g.paths() {
		c.addHost(p, host)
	}
}

func (c *Composite) addHost(path string, host int64) {
	for _, h := range c.hosts[path] {
		if h == host {
			return
		}
	}
	c.hosts[path] = append(c.hosts[path], host)
}

// Merge folds o into c.
func (c *Composite) Merge(o *Composite) {
	for p, hs := range o.hosts {
		for _, h := range hs {
			c.addHost(p, h)
		}
	}
}

// Paths returns the distinct labeled paths, sorted.
func (c *Composite) Paths() []string {
	ps := make([]string, 0, len(c.hosts))
	for p := range c.hosts {
		ps = append(ps, p)
	}
	sort.Strings(ps)
	return ps
}

// Hosts returns the sorted hosts exhibiting a path.
func (c *Composite) Hosts(path string) []int64 {
	hs := append([]int64(nil), c.hosts[path]...)
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return hs
}

// HostClasses groups hosts by identical path sets — the equivalence
// classes the folded display presents. It returns class signature → sorted
// hosts.
func (c *Composite) HostClasses() map[string][]int64 {
	perHost := map[int64][]string{}
	for p, hs := range c.hosts {
		for _, h := range hs {
			perHost[h] = append(perHost[h], p)
		}
	}
	classes := map[string][]int64{}
	for h, ps := range perHost {
		sort.Strings(ps)
		key := strings.Join(ps, "\n")
		classes[key] = append(classes[key], h)
	}
	for k := range classes {
		hs := classes[k]
		sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
		classes[k] = hs
	}
	return classes
}

// PacketFormat is the payload layout of composite packets: each path is
// paired (by index) with a comma-separated host list. Host lists are
// encoded as strings because payload arrays are flat.
const PacketFormat = "%as %as"

// FilterName is the registry name of the folding filter.
const FilterName = "sgfa"

// ToPacket encodes the composite.
func (c *Composite) ToPacket(tag int32, streamID uint32, src packet.Rank) (*packet.Packet, error) {
	paths := c.Paths()
	hostStrs := make([]string, len(paths))
	for i, p := range paths {
		var sb strings.Builder
		for j, h := range c.Hosts(p) {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", h)
		}
		hostStrs[i] = sb.String()
	}
	return packet.New(tag, streamID, src, PacketFormat, paths, hostStrs)
}

// FromPacket decodes a composite packet.
func FromPacket(p *packet.Packet) (*Composite, error) {
	if p.Format() != PacketFormat {
		return nil, fmt.Errorf("sgfa: unexpected packet format %q", p.Format())
	}
	paths, err := p.StringArray(0)
	if err != nil {
		return nil, err
	}
	hostStrs, err := p.StringArray(1)
	if err != nil {
		return nil, err
	}
	if len(paths) != len(hostStrs) {
		return nil, fmt.Errorf("sgfa: %d paths but %d host lists", len(paths), len(hostStrs))
	}
	c := NewComposite()
	for i, path := range paths {
		if hostStrs[i] == "" {
			continue
		}
		for _, f := range strings.Split(hostStrs[i], ",") {
			var h int64
			if _, err := fmt.Sscanf(f, "%d", &h); err != nil {
				return nil, fmt.Errorf("sgfa: bad host %q: %w", f, err)
			}
			c.addHost(path, h)
		}
	}
	return c, nil
}

// Filter folds child composites into one composite per batch.
type Filter struct{}

// Apply merges the round.
func (Filter) Apply(in []*packet.Packet, out filter.Emitter) error {
	if len(in) == 0 {
		return nil
	}
	acc := NewComposite()
	for _, p := range in {
		c, err := FromPacket(p)
		if err != nil {
			return err
		}
		acc.Merge(c)
	}
	p, err := acc.ToPacket(in[0].Tag, in[0].StreamID, packet.UnknownRank)
	if err != nil {
		return err
	}
	out.Emit(p)
	return nil
}

// Register installs the folding filter under FilterName.
func Register(reg *filter.Registry) {
	reg.RegisterTransformation(FilterName, func() filter.Transformation { return Filter{} })
}
