package main

import "math/rand"

// Inputs and their oracle. Everything a workload sends is a function of
// the seed, so the expected result of every operation is known without
// running the overlay.

// inputs holds one workload run's generated data.
type inputs struct {
	seed int64
	// Reduction streams: leaf l sends base[l] + r*step[l] as its r-th
	// packet, so round r must reduce to sumBase + r*sumStep. Steps are
	// positive: distinct rounds have distinct sums, which lets the oracle
	// tell a dropped round from a wrong value.
	base, step       []int64
	sumBase, sumStep int64
	// Pass-through stream: leaf l sends payload[l] on every packet.
	payload [][]byte
}

const payloadBytes = 1024

func newInputs(seed int64, leaves int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed, base: make([]int64, leaves), step: make([]int64, leaves), payload: make([][]byte, leaves)}
	for l := 0; l < leaves; l++ {
		in.base[l] = 1 + rng.Int63n(1000)
		in.step[l] = 1 + rng.Int63n(16)
		in.sumBase += in.base[l]
		in.sumStep += in.step[l]
		in.payload[l] = make([]byte, payloadBytes)
		rng.Read(in.payload[l])
	}
	return in
}

// command returns client c's i-th command value: positive, below 2^30, so
// 64 of them sum without overflow.
func (in *inputs) command(c int, i int64) int64 {
	x := uint64(in.seed)*0x9E3779B97F4A7C15 + uint64(c)<<40 + uint64(i)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x&(1<<30-1)) + 1
}

// roundOracle checks a FIFO series of reduced rounds: the r-th result must
// equal base + r*step.
type roundOracle struct {
	base, step int64
	next       int64 // next expected round
	ok, failed int64
}

// observe checks one result and returns the round it was accepted as, or
// -1 when it was not the expected one. A value that belongs to a later
// round means the rounds in between were dropped (each is a failure) and
// checking resumes after it; a value of an earlier round is a duplicate
// or a reorder; anything else is a wrong value for the expected round.
func (o *roundOracle) observe(got int64) int64 {
	if got == o.base+o.next*o.step {
		o.ok++
		o.next++
		return o.next - 1
	}
	if d := got - o.base; d >= 0 && d%o.step == 0 && d/o.step > o.next {
		r := d / o.step
		o.failed += r - o.next
		o.ok++
		o.next = r + 1
		return -1
	} else if d >= 0 && d%o.step == 0 {
		o.failed++ // duplicate or reordered: its round was already passed
		return -1
	}
	o.failed++ // wrong value; it stood for the expected round
	o.next++
	return -1
}

// seqOracle checks per-source sequence continuity on a pass-through
// stream: every source's packets arrive exactly once, in order.
type seqOracle struct {
	next       []int64
	ok, failed int64
}

func newSeqOracle(sources int) *seqOracle { return &seqOracle{next: make([]int64, sources)} }

// observe checks one packet. A gap counts every skipped packet as lost; a
// sequence number at or below one already seen is a duplicate or a
// reorder; an unknown source is a wrong value.
func (o *seqOracle) observe(src int, seq int64) bool {
	if src < 0 || src >= len(o.next) {
		o.failed++
		return false
	}
	switch {
	case seq == o.next[src]:
		o.ok++
		o.next[src]++
		return true
	case seq > o.next[src]:
		o.failed += seq - o.next[src]
		o.ok++
		o.next[src] = seq + 1
		return false
	default:
		o.failed++
		return false
	}
}

// passValue packs a pass-through packet's source leaf and sequence number
// into its one %d: every hop re-stamps SrcRank, so the source has to
// travel in the payload.
func passValue(leaf int, seq int64) int64 { return int64(leaf)<<40 | seq }

func unpackPass(v int64) (leaf int, seq int64) { return int(v >> 40), v & (1<<40 - 1) }

// checkReply is the closed-loop oracle: every one of leaves back-ends
// echoed command v, so "sum" must reply leaves*v and "max" v.
func checkReply(tform string, leaves int, v, got int64) bool {
	if tform == "sum" {
		return got == int64(leaves)*v
	}
	return got == v
}
