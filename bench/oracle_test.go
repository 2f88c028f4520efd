package main

import "testing"

// feedRounds runs a round oracle with sum(r) = 100 + 7r over the given
// results and returns how many it accepted and how many it failed.
func feedRounds(results ...int64) (ok, failed int64) {
	o := roundOracle{base: 100, step: 7}
	for _, v := range results {
		o.observe(v)
	}
	return o.ok, o.failed
}

func TestRoundOracle(t *testing.T) {
	r := func(i int64) int64 { return 100 + 7*i }
	cases := []struct {
		name       string
		results    []int64
		ok, failed int64
	}{
		{"clean", []int64{r(0), r(1), r(2), r(3)}, 4, 0},
		{"dropped", []int64{r(0), r(1), r(3), r(4)}, 4, 1},
		{"two dropped", []int64{r(0), r(3)}, 2, 2},
		{"duplicated", []int64{r(0), r(1), r(1), r(2)}, 3, 1},
		{"reordered", []int64{r(0), r(2), r(1), r(3)}, 3, 2}, // r(1) is missed when r(2) arrives, then late
		{"wrong value", []int64{r(0), r(1) + 1, r(2)}, 2, 1},
	}
	for _, c := range cases {
		ok, failed := feedRounds(c.results...)
		if ok != c.ok || failed != c.failed {
			t.Errorf("%s: ok=%d failed=%d, want ok=%d failed=%d", c.name, ok, failed, c.ok, c.failed)
		}
	}
}

func TestRoundOracleReturnsAcceptedRound(t *testing.T) {
	o := roundOracle{base: 5, step: 3}
	if got := o.observe(5); got != 0 {
		t.Errorf("first result accepted as round %d, want 0", got)
	}
	if got := o.observe(9); got != -1 {
		t.Errorf("wrong value accepted as round %d, want -1", got)
	}
}

func TestSeqOracle(t *testing.T) {
	type pkt struct {
		src int
		seq int64
	}
	cases := []struct {
		name       string
		pkts       []pkt
		ok, failed int64
	}{
		{"clean, interleaved sources", []pkt{{0, 0}, {1, 0}, {0, 1}, {1, 1}}, 4, 0},
		{"dropped", []pkt{{0, 0}, {0, 2}, {0, 3}}, 3, 1},
		{"duplicated", []pkt{{0, 0}, {0, 1}, {0, 1}, {0, 2}}, 3, 1},
		{"reordered", []pkt{{0, 0}, {0, 2}, {0, 1}, {0, 3}}, 3, 2},
		{"unknown source", []pkt{{0, 0}, {7, 0}}, 1, 1},
	}
	for _, c := range cases {
		o := newSeqOracle(2)
		for _, p := range c.pkts {
			o.observe(p.src, p.seq)
		}
		if o.ok != c.ok || o.failed != c.failed {
			t.Errorf("%s: ok=%d failed=%d, want ok=%d failed=%d", c.name, o.ok, o.failed, c.ok, c.failed)
		}
	}
}

func TestPassValueRoundTrip(t *testing.T) {
	leaf, seq := unpackPass(passValue(63, 1<<39))
	if leaf != 63 || seq != 1<<39 {
		t.Errorf("unpackPass(passValue(63, 1<<39)) = %d, %d", leaf, seq)
	}
}

func TestCheckReply(t *testing.T) {
	if !checkReply("sum", 64, 10, 640) || checkReply("sum", 64, 10, 630) {
		t.Error("sum reply must be leaves*v")
	}
	if !checkReply("max", 64, 10, 10) || checkReply("max", 64, 10, 640) {
		t.Error("max reply must be v")
	}
}

func TestInputsFollowSeed(t *testing.T) {
	a, b, c := newInputs(3, 8), newInputs(3, 8), newInputs(4, 8)
	if a.sumBase != b.sumBase || a.sumStep != b.sumStep || a.command(1, 5) != b.command(1, 5) || string(a.payload[2]) != string(b.payload[2]) {
		t.Error("the same seed must give the same inputs")
	}
	if a.sumBase == c.sumBase && a.sumStep == c.sumStep && a.command(1, 5) == c.command(1, 5) {
		t.Error("another seed must give other inputs")
	}
	for i := int64(0); i < 1000; i++ {
		if v := a.command(0, i); v < 1 || v > 1<<30 {
			t.Fatalf("command value %d out of range", v)
		}
	}
}
