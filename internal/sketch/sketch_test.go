package sketch

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
)

func ranks(n int) []core.Rank {
	rs := make([]core.Rank, n)
	for i := range rs {
		rs[i] = core.Rank(i + 1)
	}
	return rs
}

// buildAll returns each rank's local sketch packet for the request.
func buildAll(t *testing.T, req Request, rs []core.Rank) []*packet.Packet {
	t.Helper()
	out := make([]*packet.Packet, len(rs))
	for i, r := range rs {
		p, err := BuildLocal(req, r, 42)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

func TestCountMinAccuracyAndExactMerge(t *testing.T) {
	req := Request{Kind: KindCountMin, N: 2000}.normalized()
	rs := ranks(8)
	exact := ExactFor(req, rs)

	// Whole-stream sketch: every rank's items into one count-min.
	whole := NewCountMin(defaultCMDepth, req.Param)
	for _, r := range rs {
		GenStream(req.Seed, r, req.N, func(key string, _ float64) { whole.Add(key, 1) })
	}
	// Merged sketch: per-rank sketches reduced by the merge filter.
	merged, err := mergeCountMin(buildAll(t, req, rs))
	if err != nil {
		t.Fatal(err)
	}
	got, err := CountMinFromPacket(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.rows, whole.rows) {
		t.Fatal("merged count-min cells differ from the whole-stream sketch (merge must be exact)")
	}

	// Never underestimates; overestimates bounded by the εN guarantee
	// (ε = e/width) with plenty of slack.
	bound := int64(3*float64(exact.Total)/float64(req.Param)) + 1
	for key, want := range exact.Freq {
		est := got.Estimate(key)
		if est < want {
			t.Fatalf("count-min underestimated %q: %d < %d", key, est, want)
		}
		if est > want+bound {
			t.Fatalf("count-min overestimate for %q out of bound: %d vs %d (+%d allowed)",
				key, est, want, bound)
		}
	}
}

func TestHLLAccuracyAndExactMerge(t *testing.T) {
	req := Request{Kind: KindHLL, N: 3000}.normalized()
	rs := ranks(8)
	exact := ExactFor(req, rs)

	whole, err := NewHLL(req.Param)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		GenStream(req.Seed, r, req.N, func(key string, _ float64) { whole.Add(key) })
	}
	merged, err := mergeHLL(buildAll(t, req, rs))
	if err != nil {
		t.Fatal(err)
	}
	got, err := HLLFromPacket(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.regs, whole.regs) {
		t.Fatal("merged HLL registers differ from the whole-stream sketch (merge must be exact)")
	}

	est := got.Estimate()
	relErr := math.Abs(float64(est)-float64(exact.Distinct)) / float64(exact.Distinct)
	// Standard error is 1.04/sqrt(2^p); allow 4 sigma.
	if limit := 4 * 1.04 / math.Sqrt(float64(int(1)<<req.Param)); relErr > limit {
		t.Fatalf("HLL estimate %d vs exact %d: relative error %.4f > %.4f",
			est, exact.Distinct, relErr, limit)
	}
}

func TestTDigestQuantilesAfterMerge(t *testing.T) {
	req := Request{Kind: KindTDigest, N: 3000}.normalized()
	rs := ranks(8)
	exact := ExactFor(req, rs)

	merged, err := mergeTDigest(buildAll(t, req, rs))
	if err != nil {
		t.Fatal(err)
	}
	td, err := TDigestFromPacket(merged)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := td.Count(), float64(exact.Total); got != want {
		t.Fatalf("t-digest total weight %g, want %g", got, want)
	}
	// Values are N(100, 15); allow an absolute error of one standard
	// deviation's tenth at the median and more at the tails.
	for _, c := range []struct{ q, tol float64 }{
		{0.01, 6}, {0.25, 2}, {0.5, 1.5}, {0.75, 2}, {0.99, 6},
	} {
		got := td.Quantile(c.q)
		want := exact.ExactQuantile(c.q)
		if math.Abs(got-want) > c.tol {
			t.Errorf("q%.2f = %.2f, exact %.2f (tolerance %.1f)", c.q, got, want, c.tol)
		}
	}
}

func TestTDigestMergeOrderIndependent(t *testing.T) {
	req := Request{Kind: KindTDigest, N: 1000}.normalized()
	rs := ranks(4)
	pkts := buildAll(t, req, rs)
	fwd, err := mergeTDigest(pkts)
	if err != nil {
		t.Fatal(err)
	}
	rev := make([]*packet.Packet, len(pkts))
	for i, p := range pkts {
		rev[len(pkts)-1-i] = p
	}
	bwd, err := mergeTDigest(rev)
	if err != nil {
		t.Fatal(err)
	}
	a, err := TDigestFromPacket(fwd)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TDigestFromPacket(bwd)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Errorf("merge order changed q%.1f: %.6f vs %.6f", q, a.Quantile(q), b.Quantile(q))
		}
	}
}

func TestSketchPacketRoundTrips(t *testing.T) {
	cm := NewCountMin(3, 64)
	cm.Add("x", 5)
	cm.Add("y", 2)
	p, err := cm.ToPacket(Tag, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	cm2, err := CountMinFromPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cm.rows, cm2.rows) || cm2.depth != 3 || cm2.width != 64 {
		t.Error("count-min round trip lost state")
	}

	h, err := NewHLL(6)
	if err != nil {
		t.Fatal(err)
	}
	h.Add("x")
	h.Add("y")
	p, err = h.ToPacket(Tag, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HLLFromPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.regs, h2.regs) || h2.p != 6 {
		t.Error("HLL round trip lost state")
	}

	td := NewTDigest(50)
	for i := 0; i < 500; i++ {
		td.Add(float64(i%97), 1)
	}
	p, err = td.ToPacket(Tag, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	td2, err := TDigestFromPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if td.Quantile(q) != td2.Quantile(q) {
			t.Errorf("t-digest round trip changed q%.1f", q)
		}
	}
}

func TestSketchDecodeRejectsMalformed(t *testing.T) {
	// Mismatched dimensions vs payload length.
	p := packet.MustNew(Tag, 1, 0, CountMinFormat, int64(2), int64(8), make([]int64, 5))
	if _, err := CountMinFromPacket(p); err == nil {
		t.Error("count-min dim/len mismatch accepted")
	}
	p = packet.MustNew(Tag, 1, 0, HLLFormat, int64(4), make([]byte, 3))
	if _, err := HLLFromPacket(p); err == nil {
		t.Error("HLL precision/register mismatch accepted")
	}
	p = packet.MustNew(Tag, 1, 0, TDigestFormat, 100.0, []float64{1, 2}, []float64{1})
	if _, err := TDigestFromPacket(p); err == nil {
		t.Error("t-digest parallel-array mismatch accepted")
	}
	p = packet.MustNew(Tag, 1, 0, TDigestFormat, 100.0, []float64{1}, []float64{-1})
	if _, err := TDigestFromPacket(p); err == nil {
		t.Error("t-digest non-positive weight accepted")
	}
	// Wrong format entirely.
	p = packet.MustNew(Tag, 1, 0, "%d", int64(1))
	if _, err := CountMinFromPacket(p); err == nil {
		t.Error("count-min accepted foreign format")
	}
	if _, err := HLLFromPacket(p); err == nil {
		t.Error("HLL accepted foreign format")
	}
	if _, err := TDigestFromPacket(p); err == nil {
		t.Error("t-digest accepted foreign format")
	}
}

func TestRequestRoundTripAndValidation(t *testing.T) {
	req := Request{Kind: KindHLL, Param: 10, N: 500, Seed: 99}
	p, err := req.ToPacket(123)
	if err != nil {
		t.Fatal(err)
	}
	if !IsRequest(p) {
		t.Fatal("encoded request not recognized")
	}
	got, err := ParseRequest(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Errorf("request round trip: got %+v, want %+v", got, req)
	}

	// Defaults fill in on parse.
	p, err = Request{Kind: KindCountMin, N: 10}.ToPacket(1)
	if err != nil {
		t.Fatal(err)
	}
	got, err = ParseRequest(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Param != 1024 {
		t.Errorf("count-min default width = %d, want 1024", got.Param)
	}

	// Unknown kinds rejected at parse and at build.
	p, err = Request{Kind: "bogus", N: 10}.ToPacket(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseRequest(p); err == nil {
		t.Error("unknown kind accepted by ParseRequest")
	}
	if _, err := BuildLocal(Request{Kind: "bogus"}, 1, 1); err == nil {
		t.Error("unknown kind accepted by BuildLocal")
	}
	if _, err := FilterName("bogus"); err == nil {
		t.Error("unknown kind accepted by FilterName")
	}
	for _, k := range []Kind{KindCountMin, KindHLL, KindTDigest} {
		if _, err := FilterName(k); err != nil {
			t.Errorf("FilterName(%q): %v", k, err)
		}
	}
}

// Exact is the ground truth of a workload across a set of ranks, computed
// directly (no sketching) from the same generator.
type Exact struct {
	Freq     map[string]int64 // per-key frequencies
	Distinct int              // distinct key count
	Values   []float64        // every value, sorted
	Total    int64            // total items
}

// ExactFor computes the exact aggregate of the request's workload over the
// given back-end ranks.
func ExactFor(req Request, ranks []core.Rank) Exact {
	e := Exact{Freq: map[string]int64{}}
	for _, r := range ranks {
		GenStream(req.Seed, r, req.N, func(key string, val float64) {
			e.Freq[key]++
			e.Values = append(e.Values, val)
			e.Total++
		})
	}
	e.Distinct = len(e.Freq)
	sort.Float64s(e.Values)
	return e
}

// ExactQuantile reads quantile q off the sorted exact values.
func (e Exact) ExactQuantile(q float64) float64 {
	if len(e.Values) == 0 {
		return 0
	}
	i := int(q * float64(len(e.Values)-1))
	return e.Values[i]
}
