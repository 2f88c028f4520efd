package query

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/topology"
)

// PartialFormat is the payload of a per-node partial result: parallel
// arrays of group keys and their sufficient statistics.
const PartialFormat = "%as %ad %af %af %af %af"

// MergeFilterName is the registry name of the group-statistics merge
// filter every communication process runs for query streams.
const MergeFilterName = "query-groupstats"

// Partial maps group keys to the sufficient statistics of the matching
// rows below one node.
type Partial map[string]*stats.Moments

// ToPacket encodes the partial with groups in sorted order.
func (pt Partial) ToPacket(tag int32, streamID uint32, src packet.Rank) (*packet.Packet, error) {
	groups := make([]string, 0, len(pt))
	for g := range pt {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	ns := make([]int64, len(groups))
	sums := make([]float64, len(groups))
	sumsqs := make([]float64, len(groups))
	mins := make([]float64, len(groups))
	maxs := make([]float64, len(groups))
	for i, g := range groups {
		m := pt[g]
		ns[i], sums[i], sumsqs[i], mins[i], maxs[i] = m.N, m.Sum, m.SumSq, m.MinV, m.MaxV
	}
	return packet.New(tag, streamID, src, PartialFormat, groups, ns, sums, sumsqs, mins, maxs)
}

// PartialFromPacket decodes a partial.
func PartialFromPacket(p *packet.Packet) (Partial, error) {
	if p.Format() != PartialFormat {
		return nil, fmt.Errorf("query: unexpected packet format %q", p.Format())
	}
	groups, err := p.StringArray(0)
	if err != nil {
		return nil, err
	}
	ns, err := p.IntArray(1)
	if err != nil {
		return nil, err
	}
	sums, err := p.FloatArray(2)
	if err != nil {
		return nil, err
	}
	sumsqs, err := p.FloatArray(3)
	if err != nil {
		return nil, err
	}
	mins, err := p.FloatArray(4)
	if err != nil {
		return nil, err
	}
	maxs, err := p.FloatArray(5)
	if err != nil {
		return nil, err
	}
	if len(ns) != len(groups) || len(sums) != len(groups) || len(sumsqs) != len(groups) ||
		len(mins) != len(groups) || len(maxs) != len(groups) {
		return nil, fmt.Errorf("query: ragged partial arrays")
	}
	pt := Partial{}
	for i, g := range groups {
		pt[g] = &stats.Moments{N: ns[i], Sum: sums[i], SumSq: sumsqs[i], MinV: mins[i], MaxV: maxs[i]}
	}
	return pt, nil
}

// Merge folds o into pt.
func (pt Partial) Merge(o Partial) {
	for g, m := range o {
		if have, ok := pt[g]; ok {
			have.Merge(m)
		} else {
			cp := *m
			pt[g] = &cp
		}
	}
}

// MergeFilter merges child partials group-wise; it is the in-network
// execution of the query's aggregation.
type MergeFilter struct{}

// Apply merges the round into one partial packet.
func (MergeFilter) Apply(in []*packet.Packet, out filter.Emitter) error {
	if len(in) == 0 {
		return nil
	}
	acc := Partial{}
	for _, p := range in {
		pt, err := PartialFromPacket(p)
		if err != nil {
			return err
		}
		acc.Merge(pt)
	}
	p, err := acc.ToPacket(in[0].Tag, in[0].StreamID, packet.UnknownRank)
	if err != nil {
		return err
	}
	out.Emit(p)
	return nil
}

// Register installs the merge filter in a registry.
func Register(reg *filter.Registry) {
	reg.RegisterTransformation(MergeFilterName, func() filter.Transformation { return MergeFilter{} })
}

// tagQuery marks query request/response packets.
const tagQuery = packet.TagFirstApplication + 17

// AttrSource produces a back-end's current attribute values. The implicit
// attribute "rank" is always available; sources may override it.
type AttrSource func() map[string]float64

// Evaluate computes a back-end's partial for the query text against its
// attributes: applies the WHERE conjunction, derives the group key, and
// contributes each selected attribute's value. The same row contributes to
// every selected attribute's moments (keyed per attribute inside the
// group, so avg(load) and max(mem) can coexist in one query).
func Evaluate(q *Query, attrs map[string]float64) Partial {
	if len(attrs) == 0 {
		return Partial{}
	}
	for _, w := range q.Where {
		if !w.Eval(attrs) {
			return Partial{}
		}
	}
	group := ""
	if q.GroupBy != "" {
		v, ok := attrs[q.GroupBy]
		if !ok {
			return Partial{}
		}
		group = formatGroupValue(v)
	}
	pt := Partial{}
	for _, sel := range q.Selects {
		v, ok := attrs[sel.Attr]
		if !ok {
			continue
		}
		key := group + "\x00" + sel.Attr
		m, ok := pt[key]
		if !ok {
			m = stats.New()
			pt[key] = m
		}
		m.Add(v)
	}
	return pt
}

func formatGroupValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Row is one line of a query result.
type Row struct {
	Group  string
	Values []float64 // parallel to the query's Selects
}

// Result is a completed query.
type Result struct {
	Query *Query
	Rows  []Row
}

// Render formats the result as a fixed-width table.
func (r *Result) Render() string {
	var b strings.Builder
	if r.Query.GroupBy != "" {
		fmt.Fprintf(&b, "%-12s", r.Query.GroupBy)
	}
	for _, s := range r.Query.Selects {
		fmt.Fprintf(&b, "%16s", s.String())
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		if r.Query.GroupBy != "" {
			fmt.Fprintf(&b, "%-12s", row.Group)
		}
		for _, v := range row.Values {
			fmt.Fprintf(&b, "%16.3f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// finalize converts a fully merged partial into result rows.
func finalize(q *Query, pt Partial) *Result {
	// Collect group keys (strip the per-attribute suffix).
	groups := map[string]bool{}
	for key := range pt {
		g, _, _ := strings.Cut(key, "\x00")
		groups[g] = true
	}
	sorted := make([]string, 0, len(groups))
	for g := range groups {
		sorted = append(sorted, g)
	}
	sort.Strings(sorted)

	res := &Result{Query: q}
	for _, g := range sorted {
		row := Row{Group: g}
		for _, sel := range q.Selects {
			m := pt[g+"\x00"+sel.Attr]
			if m == nil {
				m = stats.New()
			}
			row.Values = append(row.Values, applyAgg(sel.Fn, m))
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func applyAgg(fn AggFn, m *stats.Moments) float64 {
	switch fn {
	case AggCount:
		return float64(m.N)
	case AggSum:
		return m.Sum
	case AggAvg:
		return m.Mean()
	case AggMin:
		return m.Min()
	case AggMax:
		return m.Max()
	case AggStd:
		return m.Std()
	}
	return math.NaN()
}

// Engine runs declarative queries over a TBON. An engine is a thin client
// of an overlay, not the overlay itself: NewEngine builds a private
// overlay for the classic single-tool case, while NewSessionEngine
// multiplexes many engines — one per tenant session — over one shared
// overlay built with NewNetwork. Either way Close releases only the
// engine's own resources; tearing the overlay down is its owner's job
// (Shutdown, or core.Network.Shutdown directly).
type Engine struct {
	nw    *core.Network
	sess  *session.Session // nil: the legacy single-tenant namespace
	owned bool             // NewEngine built the overlay for this engine
}

// Option adjusts the overlay configuration an Engine is built on.
type Option func(*core.Config)

// WithBatch sets the per-link egress batching policy of the engine's
// overlay (see core.Config.Batch).
func WithBatch(p core.BatchPolicy) Option {
	return func(c *core.Config) { c.Batch = p }
}

// WithLinkWindow sets the per-link credit window of the engine's overlay
// (see core.Config.LinkWindow).
func WithLinkWindow(w int) Option {
	return func(c *core.Config) { c.LinkWindow = w }
}

// NewNetwork builds the shared query overlay: back-ends evaluate
// declarative queries against the given attribute source (invoked per
// request, so values may change between queries) and answer mergeable-
// sketch requests (internal/sketch), with both families' merge filters
// registered at every level. The caller owns the returned network; any
// number of engines — legacy or per-session — may then be layered on it.
func NewNetwork(tree *topology.Tree, attrs func(rank core.Rank) AttrSource, opts ...Option) (*core.Network, error) {
	reg := filter.NewRegistry()
	Register(reg)
	sketch.Register(reg)
	cfg := core.Config{
		Topology:  tree,
		Registry:  reg,
		OnBackEnd: BackEndHandler(attrs),
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return core.NewNetwork(cfg)
}

// BackEndHandler returns the back-end loop NewNetwork installs: sketch
// requests build the rank's local sketch; everything else is treated as
// query text and evaluated against the attribute source.
func BackEndHandler(attrs func(rank core.Rank) AttrSource) func(be *core.BackEnd) error {
	return func(be *core.BackEnd) error {
		var src AttrSource
		if attrs != nil {
			src = attrs(be.Rank())
		}
		for {
			p, err := be.Recv()
			if err != nil {
				return nil
			}
			if sketch.IsRequest(p) {
				_ = sketch.HandleRequest(be, p) // orphaned sends fail; next request retries
				continue
			}
			text, err := p.Str(0)
			if err != nil {
				continue
			}
			q, err := Parse(text)
			if err != nil {
				continue // the front-end validated; ignore corrupt requests
			}
			vals := map[string]float64{"rank": float64(be.Rank())}
			if src != nil {
				for k, v := range src() {
					vals[k] = v
				}
			}
			pt := Evaluate(q, vals)
			out, err := pt.ToPacket(p.Tag, p.StreamID, be.Rank())
			if err != nil {
				return err
			}
			if err := be.SendPacket(out); err != nil {
				return nil
			}
		}
	}
}

// NewSessionEngine is the multi-tenant construction: a thin query client
// bound to one tenant session on a shared overlay (built with NewNetwork).
// The engine's streams live in the session's namespace, draw from its
// credit budget, and land on its tenant counters; Close closes the
// session, never the overlay.
func NewSessionEngine(nw *core.Network, sess *session.Session) *Engine {
	return &Engine{nw: nw, sess: sess}
}

// newStream opens a per-request stream in the engine's namespace.
func (e *Engine) newStream(spec core.StreamSpec) (*core.Stream, error) {
	if e.sess != nil {
		return e.sess.NewStream(spec)
	}
	return e.nw.NewStream(spec)
}

// Run parses and executes one query, waiting up to timeout for the merged
// result.
func (e *Engine) Run(text string, timeout time.Duration) (*Result, error) {
	q, err := Parse(text)
	if err != nil {
		return nil, err
	}
	st, err := e.newStream(core.StreamSpec{
		Transformation:  MergeFilterName,
		Synchronization: "waitforall",
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if err := st.Multicast(tagQuery, "%s", q.String()); err != nil {
		return nil, err
	}
	p, err := st.RecvTimeout(timeout)
	if err != nil {
		return nil, err
	}
	pt, err := PartialFromPacket(p)
	if err != nil {
		return nil, err
	}
	return finalize(q, pt), nil
}

// Sketch runs one mergeable-sketch workload: every back-end sketches its
// deterministic local stream and the overlay reduces the sketches level by
// level. The merged sketch packet is returned for the caller to decode
// with the kind's FromPacket.
func (e *Engine) Sketch(req sketch.Request, timeout time.Duration) (*packet.Packet, error) {
	fname, err := sketch.FilterName(req.Kind)
	if err != nil {
		return nil, err
	}
	st, err := e.newStream(core.StreamSpec{
		Transformation:  fname,
		Synchronization: "waitforall",
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	rp, err := req.ToPacket(st.ID())
	if err != nil {
		return nil, err
	}
	if err := st.MulticastPacket(rp); err != nil {
		return nil, err
	}
	return st.RecvTimeout(timeout)
}

// MetricsSnapshot returns the overlay's counters as a name -> value map
// (egress high-water, credit stalls/grants, frames, …) for tooling.
func (e *Engine) MetricsSnapshot() map[string]int64 { return e.nw.Metrics().Snapshot() }

// Stats returns the engine's tenant counters, or nil for a legacy
// (session-less) engine.
func (e *Engine) Stats() map[string]int64 {
	if e.sess == nil {
		return nil
	}
	return e.sess.Stats()
}

// Close releases the engine: a session engine closes its session (every
// stream in its namespace, at every node, without quiescing other
// tenants); a legacy engine has nothing to release — its per-query streams
// are already closed. The overlay is deliberately left running; other
// engines may share it. Owners tear it down with Shutdown.
func (e *Engine) Close() error {
	if e.sess != nil {
		return e.sess.Close()
	}
	return nil
}

// Shutdown tears the underlying overlay down. Only the overlay's owner —
// the NewEngine caller, or whoever built the shared network — should call
// it; every other engine on the overlay dies with it.
func (e *Engine) Shutdown() error { return e.nw.Shutdown() }

// Network exposes the underlying overlay (e.g. for AttachBackEnd).
func (e *Engine) Network() *core.Network { return e.nw }
