package query

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/topology"
)

func TestParseBasics(t *testing.T) {
	q, err := Parse("SELECT avg(load)")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Selects) != 1 || q.Selects[0].Fn != AggAvg || q.Selects[0].Attr != "load" {
		t.Errorf("parsed %+v", q)
	}
	if q.GroupBy != "" || len(q.Where) != 0 {
		t.Errorf("spurious clauses: %+v", q)
	}
}

func TestParseFull(t *testing.T) {
	q, err := Parse("select count(rank), max(mem), std(load) where load >= 0.5 and rank != 3 group by zone")
	if err != nil {
		t.Fatal(err)
	}
	want := []Select{{AggCount, "rank"}, {AggMax, "mem"}, {AggStd, "load"}}
	if !reflect.DeepEqual(q.Selects, want) {
		t.Errorf("selects = %+v", q.Selects)
	}
	if len(q.Where) != 2 || q.Where[0] != (Pred{"load", OpGe, 0.5}) || q.Where[1] != (Pred{"rank", OpNe, 3}) {
		t.Errorf("where = %+v", q.Where)
	}
	if q.GroupBy != "zone" {
		t.Errorf("group by = %q", q.GroupBy)
	}
	// Canonical text reparses to the same query.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", q.String(), err)
	}
	if !reflect.DeepEqual(q, q2) {
		t.Errorf("canonical text did not round-trip: %q", q.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"avg(load)",
		"select",
		"select avg",
		"select avg(",
		"select avg()",
		"select avg(load",
		"select frobnicate(load)",
		"select avg(load) where",
		"select avg(load) where load",
		"select avg(load) where load ~ 3",
		"select avg(load) where load > banana",
		"select avg(load) group",
		"select avg(load) group by",
		"select avg(load) group by where",
		"select avg(load) trailing garbage",
		"select avg(load) where load > 1 and",
		"select avg(load); drop table",
	}
	for _, s := range bad {
		if _, err := Parse(s); !errors.Is(err, ErrSyntax) {
			t.Errorf("Parse(%q) = %v, want ErrSyntax", s, err)
		}
	}
}

func TestPredEval(t *testing.T) {
	attrs := map[string]float64{"x": 5}
	cases := []struct {
		op   CmpOp
		v    float64
		want bool
	}{
		{OpEq, 5, true}, {OpEq, 4, false},
		{OpNe, 4, true}, {OpNe, 5, false},
		{OpLt, 6, true}, {OpLt, 5, false},
		{OpLe, 5, true}, {OpLe, 4, false},
		{OpGt, 4, true}, {OpGt, 5, false},
		{OpGe, 5, true}, {OpGe, 6, false},
	}
	for _, c := range cases {
		if got := (Pred{"x", c.op, c.v}).Eval(attrs); got != c.want {
			t.Errorf("x %s %g = %v, want %v", c.op, c.v, got, c.want)
		}
	}
	if (Pred{"missing", OpEq, 0}).Eval(attrs) {
		t.Error("missing attribute should fail the predicate")
	}
}

func TestEvaluate(t *testing.T) {
	q, _ := Parse("select avg(load), max(mem) where rank > 1 group by zone")
	// Filtered out by WHERE.
	if pt := Evaluate(q, map[string]float64{"rank": 1, "zone": 2, "load": 0.5, "mem": 100}); len(pt) != 0 {
		t.Errorf("filtered row produced %v", pt)
	}
	// Passing row: two keyed moment sets (one per selected attribute).
	pt := Evaluate(q, map[string]float64{"rank": 2, "zone": 3, "load": 0.5, "mem": 100})
	if len(pt) != 2 {
		t.Fatalf("partial has %d entries: %v", len(pt), pt)
	}
	if m := pt["3\x00load"]; m == nil || m.Mean() != 0.5 {
		t.Errorf("load moments = %+v", m)
	}
	// Missing GROUP BY attribute drops the row.
	if pt := Evaluate(q, map[string]float64{"rank": 2, "load": 0.5}); len(pt) != 0 {
		t.Errorf("row without group attr produced %v", pt)
	}
}

func TestPartialPacketRoundTrip(t *testing.T) {
	pt := Partial{}
	m := stats.New()
	m.Add(1)
	m.Add(2)
	pt["a\x00load"] = m
	p, err := pt.ToPacket(100, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := PartialFromPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	if gm := g["a\x00load"]; gm == nil || gm.N != 2 || gm.Sum != 3 {
		t.Errorf("round trip: %+v", g)
	}
	if _, err := PartialFromPacket(packet.MustNew(100, 1, 0, "%d", int64(1))); err == nil {
		t.Error("wrong format: want error")
	}
	ragged := packet.MustNew(100, 1, 0, PartialFormat,
		[]string{"a", "b"}, []int64{1}, []float64{1}, []float64{1}, []float64{1}, []float64{1})
	if _, err := PartialFromPacket(ragged); err == nil {
		t.Error("ragged arrays: want error")
	}
}

func TestMergeFilterAssociative(t *testing.T) {
	mk := func(group string, vals ...float64) *packet.Packet {
		pt := Partial{}
		m := stats.New()
		for _, v := range vals {
			m.Add(v)
		}
		pt[group+"\x00x"] = m
		p, _ := pt.ToPacket(100, 1, 0)
		return p
	}
	out, err := filter.Collect((MergeFilter{}), []*packet.Packet{
		mk("a", 1, 2), mk("b", 10), mk("a", 3),
	})
	if err != nil || len(out) != 1 {
		t.Fatalf("merge: %v %v", out, err)
	}
	g, err := PartialFromPacket(out[0])
	if err != nil {
		t.Fatal(err)
	}
	if m := g["a\x00x"]; m == nil || m.N != 3 || m.Sum != 6 {
		t.Errorf("group a = %+v", m)
	}
	if m := g["b\x00x"]; m == nil || m.N != 1 {
		t.Errorf("group b = %+v", m)
	}
	if o, err := filter.Collect((MergeFilter{}), nil); err != nil || o != nil {
		t.Errorf("empty batch: %v %v", o, err)
	}
}

// TestEndToEndQueries runs the full TAG pipeline on a real overlay: 27
// hosts expose (load, mem, zone) attributes; declarative queries aggregate
// them in-network.
func TestEndToEndQueries(t *testing.T) {
	tree, err := topology.ParseSpec("kary:3^3")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(tree, func(rank core.Rank) AttrSource {
		return func() map[string]float64 {
			return map[string]float64{
				"load": float64(rank) / 10,
				"mem":  float64(100 + rank),
				"zone": float64(rank % 3),
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Shutdown() // the engine owns this overlay

	leaves := tree.Leaves()

	// Global aggregate.
	res, err := eng.Run("select count(rank), max(mem)", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if got := res.Rows[0].Values[0]; got != float64(len(leaves)) {
		t.Errorf("count = %g, want %d", got, len(leaves))
	}
	var wantMaxMem float64
	for _, l := range leaves {
		wantMaxMem = math.Max(wantMaxMem, float64(100+l))
	}
	if got := res.Rows[0].Values[1]; got != wantMaxMem {
		t.Errorf("max(mem) = %g, want %g", got, wantMaxMem)
	}

	// Filtered aggregate.
	res, err = eng.Run("select count(rank) where zone == 0", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wantZone0 := 0
	for _, l := range leaves {
		if l%3 == 0 {
			wantZone0++
		}
	}
	if got := res.Rows[0].Values[0]; got != float64(wantZone0) {
		t.Errorf("zone-0 count = %g, want %d", got, wantZone0)
	}

	// Grouped aggregate: per-zone average load must equal the direct
	// computation.
	res, err = eng.Run("select avg(load), count(rank) group by zone", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("zones = %+v", res.Rows)
	}
	wantAvg := map[string]*stats.Moments{}
	for _, l := range leaves {
		key := formatGroupValue(float64(l % 3))
		if wantAvg[key] == nil {
			wantAvg[key] = stats.New()
		}
		wantAvg[key].Add(float64(l) / 10)
	}
	for _, row := range res.Rows {
		w := wantAvg[row.Group]
		if w == nil {
			t.Fatalf("unexpected group %q", row.Group)
		}
		if math.Abs(row.Values[0]-w.Mean()) > 1e-9 {
			t.Errorf("zone %s avg(load) = %g, want %g", row.Group, row.Values[0], w.Mean())
		}
		if row.Values[1] != float64(w.N) {
			t.Errorf("zone %s count = %g, want %d", row.Group, row.Values[1], w.N)
		}
	}
	// Rendered output includes headers.
	if out := res.Render(); len(out) == 0 {
		t.Error("empty render")
	}

	// Bad query text surfaces at the caller.
	if _, err := eng.Run("select bogus(x)", time.Second); err == nil {
		t.Error("bad query: want error")
	}
}

// Property: for any partition of rows into two children, merging their
// partials equals evaluating all rows at one node.
func TestQuickPartitionInvariance(t *testing.T) {
	q, err := Parse("select sum(x), count(x) group by g")
	if err != nil {
		t.Fatal(err)
	}
	f := func(xs []float64, split uint8) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true
			}
		}
		rows := make([]map[string]float64, len(xs))
		for i, x := range xs {
			rows[i] = map[string]float64{"x": x, "g": float64(i % 3)}
		}
		whole := Partial{}
		for _, r := range rows {
			whole.Merge(Evaluate(q, r))
		}
		if len(rows) == 0 {
			return true
		}
		k := int(split) % (len(rows) + 1)
		left, right := Partial{}, Partial{}
		for _, r := range rows[:k] {
			left.Merge(Evaluate(q, r))
		}
		for _, r := range rows[k:] {
			right.Merge(Evaluate(q, r))
		}
		left.Merge(right)
		if len(left) != len(whole) {
			return false
		}
		for g, m := range whole {
			lm := left[g]
			if lm == nil || lm.N != m.N ||
				math.Abs(lm.Sum-m.Sum) > 1e-9*(1+math.Abs(m.Sum)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
