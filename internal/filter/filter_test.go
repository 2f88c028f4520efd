package filter

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
)

func fpkt(v float64) *packet.Packet { return packet.MustNew(100, 1, 0, "%f", v) }
func ipkt(v int64) *packet.Packet   { return packet.MustNew(100, 1, 0, "%d", v) }
func fapkt(v []float64) *packet.Packet {
	return packet.MustNew(100, 1, 0, "%af", v)
}

func one(t *testing.T, tf Transformation, in ...*packet.Packet) *packet.Packet {
	t.Helper()
	out, err := Collect(tf, in)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("Apply emitted %d packets, want 1", len(out))
	}
	return out[0]
}

// add offers one packet and returns copies of the rounds it releases.
func add(s Synchronizer, child int, p *packet.Packet) [][]*packet.Packet {
	return collectRounds(func(emit RoundFunc) { s.Offer(child, []*packet.Packet{p}, emit) })
}

// poll returns copies of the rounds s releases at now.
func poll(s Synchronizer, now time.Time) [][]*packet.Packet {
	return collectRounds(func(emit RoundFunc) { s.Poll(now, emit) })
}

// drain returns copies of the rounds d releases on Drain.
func drain(d Drainer) [][]*packet.Packet {
	return collectRounds(d.Drain)
}

func TestSumMinMaxScalars(t *testing.T) {
	in := []*packet.Packet{fpkt(3), fpkt(-1), fpkt(7)}
	if v, _ := one(t, NewNumericReduce(OpSum), in...).Float(0); v != 9 {
		t.Errorf("sum = %g, want 9", v)
	}
	if v, _ := one(t, NewNumericReduce(OpMin), in...).Float(0); v != -1 {
		t.Errorf("min = %g, want -1", v)
	}
	if v, _ := one(t, NewNumericReduce(OpMax), in...).Float(0); v != 7 {
		t.Errorf("max = %g, want 7", v)
	}
	iin := []*packet.Packet{ipkt(3), ipkt(-1), ipkt(7)}
	if v, _ := one(t, NewNumericReduce(OpSum), iin...).Int(0); v != 9 {
		t.Errorf("int sum = %d, want 9", v)
	}
	if v, _ := one(t, NewNumericReduce(OpMin), iin...).Int(0); v != -1 {
		t.Errorf("int min = %d, want -1", v)
	}
	if v, _ := one(t, NewNumericReduce(OpMax), iin...).Int(0); v != 7 {
		t.Errorf("int max = %d, want 7", v)
	}
}

func TestElementwiseArrays(t *testing.T) {
	in := []*packet.Packet{fapkt([]float64{1, 5, 3}), fapkt([]float64{4, 2, 6})}
	got, _ := one(t, NewNumericReduce(OpMax), in...).FloatArray(0)
	want := []float64{4, 5, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elementwise max = %v, want %v", got, want)
		}
	}
	// Inputs must not be mutated (filters produce new packets).
	first, _ := in[0].FloatArray(0)
	if first[0] != 1 {
		t.Error("reduce mutated its input packet")
	}
	// Length mismatch errors.
	_, err := Collect(NewNumericReduce(OpSum),
		[]*packet.Packet{fapkt([]float64{1}), fapkt([]float64{1, 2})})
	if err == nil {
		t.Error("length mismatch: want error")
	}
	ia := packet.MustNew(100, 1, 0, "%ad", []int64{1, 2})
	ib := packet.MustNew(100, 1, 0, "%ad", []int64{10, 20})
	gi, _ := one(t, NewNumericReduce(OpSum), ia, ib).IntArray(0)
	if gi[0] != 11 || gi[1] != 22 {
		t.Errorf("int array sum = %v", gi)
	}
}

func TestMixedFormatsRejected(t *testing.T) {
	_, err := Collect(NewNumericReduce(OpSum), []*packet.Packet{fpkt(1), ipkt(1)})
	if !errors.Is(err, ErrMixedFormats) {
		t.Errorf("mixed formats: got %v", err)
	}
	_, err = Collect(NewNumericReduce(OpSum),
		[]*packet.Packet{packet.MustNew(100, 1, 0, "%s", "x")})
	if err == nil {
		t.Error("sum over strings: want error")
	}
}

func TestEmptyBatch(t *testing.T) {
	for _, op := range []Op{OpSum, OpMin, OpMax, OpAvg, OpCount} {
		out, err := Collect(NewNumericReduce(op), nil)
		if err != nil || out != nil {
			t.Errorf("%v on empty batch: %v %v", op, out, err)
		}
	}
}

// TestAvgComposability is the key correctness property for tree-distributed
// averaging: applying avg at two levels must equal the global mean.
func TestAvgComposability(t *testing.T) {
	level1a := one(t, NewNumericReduce(OpAvg), fpkt(1), fpkt(2), fpkt(3)) // mean 2 of 3
	level1b := one(t, NewNumericReduce(OpAvg), fpkt(10), fpkt(20))        // mean 15 of 2
	root := one(t, NewNumericReduce(OpAvg), level1a, level1b)             // global
	w, _ := root.Int(0)
	m, _ := root.Float(1)
	if w != 5 {
		t.Errorf("total weight = %d, want 5", w)
	}
	want := (1.0 + 2 + 3 + 10 + 20) / 5
	if math.Abs(m-want) > 1e-12 {
		t.Errorf("global mean = %g, want %g", m, want)
	}
}

func TestCountComposability(t *testing.T) {
	// Leaves send arbitrary packets; internal levels send partial counts.
	l1 := one(t, NewNumericReduce(OpCount), fpkt(1), fpkt(2), fpkt(3))
	l2 := one(t, NewNumericReduce(OpCount), fpkt(4))
	root := one(t, NewNumericReduce(OpCount), l1, l2)
	if v, _ := root.Int(0); v != 4 {
		t.Errorf("count = %d, want 4", v)
	}
}

func TestConcat(t *testing.T) {
	a := packet.MustNew(100, 1, 0, "%d %s", int64(1), "one")
	b := packet.MustNew(100, 1, 0, "%f", 2.5)
	out := one(t, Concat{}, a, b)
	if out.Format() != "%d %s %f" {
		t.Fatalf("concat format = %q", out.Format())
	}
	if v, _ := out.Int(0); v != 1 {
		t.Error("concat lost first value")
	}
	if v, _ := out.Float(2); v != 2.5 {
		t.Error("concat lost last value")
	}
	// Concat output must survive the wire.
	if _, err := packet.Decode(out.Encode()); err != nil {
		t.Errorf("concat output not encodable: %v", err)
	}
}

func TestChain(t *testing.T) {
	// concat then count: the count sees one packet.
	c := NewChain(Concat{}, NewNumericReduce(OpCount))
	out := one(t, c, fpkt(1), fpkt(2))
	if v, _ := out.Int(0); v != 1 {
		t.Errorf("chain count = %d, want 1", v)
	}
	// Three stages alternate between the chain's two buffers, and a
	// second round through the same chain reads none of the first's.
	c4 := NewChain(Identity{}, Identity{}, NewNumericReduce(OpCount))
	for round := 0; round < 2; round++ {
		if v, _ := one(t, c4, fpkt(1), fpkt(2), fpkt(3)).Int(0); v != 3 {
			t.Errorf("round %d: three-stage chain count = %d, want 3", round, v)
		}
	}
	// A stage that suppresses ends the chain.
	suppress := TransformFunc(func([]*packet.Packet, Emitter) error { return nil })
	c2 := NewChain(suppress, NewNumericReduce(OpSum))
	out2, err := Collect(c2, []*packet.Packet{fpkt(1)})
	if err != nil || out2 != nil {
		t.Errorf("suppressing chain: %v %v", out2, err)
	}
	// Errors carry the stage index.
	c3 := NewChain(TransformFunc(func([]*packet.Packet, Emitter) error {
		return errors.New("boom")
	}))
	if _, err := Collect(c3, []*packet.Packet{fpkt(1)}); err == nil {
		t.Error("chain error not propagated")
	}
}

func TestRegistryBuiltins(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"", "null", "sum", "min", "max", "avg", "count", "concat"} {
		if _, err := r.NewTransformation(name); err != nil {
			t.Errorf("builtin transformation %q: %v", name, err)
		}
	}
	for _, name := range []string{"nullsync", "waitforall", "timeout"} {
		if _, err := r.NewSynchronizer(name); err != nil {
			t.Errorf("builtin synchronizer %q: %v", name, err)
		}
	}
	if _, err := r.NewTransformation("nope"); !errors.Is(err, ErrUnknownFilter) {
		t.Errorf("unknown transformation: %v", err)
	}
	if _, err := r.NewSynchronizer("nope"); !errors.Is(err, ErrUnknownFilter) {
		t.Errorf("unknown synchronizer: %v", err)
	}
	if got := len(r.Transformations()); got < 8 {
		t.Errorf("Transformations lists %d names", got)
	}
	if got := len(r.Synchronizers()); got != 3 {
		t.Errorf("Synchronizers lists %d names", got)
	}
}

func TestRegistryCustomFilter(t *testing.T) {
	r := NewRegistry()
	r.RegisterTransformation("double", func() Transformation {
		return TransformFunc(func(in []*packet.Packet, out Emitter) error {
			v, err := in[0].Float(0)
			if err != nil {
				return err
			}
			p, err := packet.New(in[0].Tag, in[0].StreamID, packet.UnknownRank, "%f", 2*v)
			if err != nil {
				return err
			}
			out.Emit(p)
			return nil
		})
	})
	tf, err := r.NewTransformation("double")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(tf, []*packet.Packet{fpkt(21)})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := out[0].Float(0); v != 42 {
		t.Errorf("custom filter = %g, want 42", v)
	}
	// Each instantiation is fresh (no shared state across nodes).
	a, _ := r.NewTransformation("sum")
	b, _ := r.NewTransformation("sum")
	if a == b {
		t.Error("registry returned shared filter instances")
	}
}

func TestNullSync(t *testing.T) {
	s := NewNullSync()
	batches := add(s, 0, fpkt(1))
	if len(batches) != 1 || len(batches[0]) != 1 {
		t.Fatalf("NullSync.Offer = %v", batches)
	}
	if s.Pending() != 0 || poll(s, time.Now()) != nil || !s.Deadline().IsZero() {
		t.Error("NullSync holds state")
	}
}

func TestWaitForAll(t *testing.T) {
	w := NewWaitForAll(3)
	if got := add(w, 0, ipkt(1)); got != nil {
		t.Fatalf("premature release: %v", got)
	}
	if got := add(w, 1, ipkt(2)); got != nil {
		t.Fatalf("premature release: %v", got)
	}
	if w.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", w.Pending())
	}
	batches := add(w, 2, ipkt(3))
	if len(batches) != 1 || len(batches[0]) != 3 {
		t.Fatalf("release = %v", batches)
	}
	// Batch is in child-slot order.
	for i, p := range batches[0] {
		if v, _ := p.Int(0); v != int64(i+1) {
			t.Errorf("slot %d = %d", i, v)
		}
	}
	if w.Pending() != 0 {
		t.Error("queue not drained")
	}
}

func TestWaitForAllFastChildRunsAhead(t *testing.T) {
	w := NewWaitForAll(2)
	// Child 0 sends three rounds before child 1 sends any.
	add(w, 0, ipkt(10))
	add(w, 0, ipkt(20))
	add(w, 0, ipkt(30))
	b1 := add(w, 1, ipkt(11))
	if len(b1) != 1 {
		t.Fatalf("first release: %v", b1)
	}
	if v, _ := b1[0][0].Int(0); v != 10 {
		t.Errorf("FIFO violated: %d", v)
	}
	// One more from child 1 releases the next round.
	b2 := add(w, 1, ipkt(21))
	if len(b2) != 1 {
		t.Fatalf("second release: %v", b2)
	}
	if v, _ := b2[0][0].Int(0); v != 20 {
		t.Errorf("FIFO violated on round 2: %d", v)
	}
	if w.Pending() != 1 {
		t.Errorf("Pending = %d, want 1 (child 0's third)", w.Pending())
	}
}

func TestWaitForAllMultipleCompleteBatches(t *testing.T) {
	w := NewWaitForAll(2)
	add(w, 0, ipkt(1))
	add(w, 0, ipkt(2))
	add(w, 1, ipkt(1))
	// Child 1's second arrival completes two batches? No — only one was
	// missing; Add(1,..) completes batch 1, then the second Add completes
	// batch 2.
	b := add(w, 1, ipkt(2))
	if len(b) != 1 {
		t.Fatalf("got %d batches", len(b))
	}
}

func TestWaitForAllUnknownSlot(t *testing.T) {
	w := NewWaitForAll(2)
	b := add(w, 7, ipkt(1)) // out-of-range slot delivers immediately
	if len(b) != 1 {
		t.Errorf("unknown slot: %v", b)
	}
}

func TestWaitForAllDrain(t *testing.T) {
	w := NewWaitForAll(3)
	add(w, 0, ipkt(1))
	add(w, 2, ipkt(3))
	b := drain(w)
	if len(b) != 1 || len(b[0]) != 2 {
		t.Fatalf("Drain = %v", b)
	}
	if drain(w) != nil {
		t.Error("second Drain not empty")
	}
}

// TestWaitForAllQueueMemory holds the per-child queues to their memory
// bound: a drained queue keeps a small array for the next round, a burst
// that grew one past keptSlotCap is released once it drains, and a child
// that stays a few rounds ahead reuses its array instead of growing it.
func TestWaitForAllQueueMemory(t *testing.T) {
	w := NewWaitForAll(2)
	for i := 0; i < 4; i++ {
		add(w, 0, ipkt(int64(i)))
		if b := add(w, 1, ipkt(int64(i))); len(b) != 1 {
			t.Fatalf("round %d: released %v", i, b)
		}
	}
	if c := cap(w.queues[0].ps); c == 0 {
		t.Error("a drained queue dropped its one-packet array: the next round allocates again")
	}

	burst := 4 * keptSlotCap
	for i := 0; i < burst; i++ {
		add(w, 0, ipkt(int64(i)))
	}
	if c := cap(w.queues[0].ps); c <= keptSlotCap {
		t.Fatalf("a %d-packet burst left capacity %d", burst, c)
	}
	for i := 0; i < burst; i++ {
		if b := add(w, 1, ipkt(int64(i))); len(b) != 1 {
			t.Fatalf("burst round %d: released %v", i, b)
		}
	}
	if c := cap(w.queues[0].ps); c > keptSlotCap {
		t.Errorf("the drained queue still holds a %d-packet array, want <= %d", c, keptSlotCap)
	}

	const ahead = 3
	for i := 0; i < ahead; i++ {
		add(w, 0, ipkt(int64(i)))
	}
	for i := 0; i < 1000; i++ {
		add(w, 0, ipkt(int64(ahead+i)))
		b := add(w, 1, ipkt(0))
		if len(b) != 1 {
			t.Fatalf("round %d: released %v", i, b)
		}
		if v, _ := b[0][0].Int(0); v != int64(i) {
			t.Fatalf("round %d released child 0's packet %d: FIFO broken", i, v)
		}
	}
	if c := cap(w.queues[0].ps); c > keptSlotCap {
		t.Errorf("a child %d rounds ahead grew its queue to %d", ahead, c)
	}
}

func TestTimeOut(t *testing.T) {
	now := time.Unix(1000, 0)
	to := NewTimeOut(100 * time.Millisecond)
	to.now = func() time.Time { return now }
	if b := add(to, 0, ipkt(1)); b != nil {
		t.Fatalf("TimeOut released early: %v", b)
	}
	add(to, 1, ipkt(2))
	if got := to.Deadline(); !got.Equal(now.Add(100 * time.Millisecond)) {
		t.Errorf("Deadline = %v", got)
	}
	// Before the window closes nothing is released.
	if b := poll(to, now.Add(50*time.Millisecond)); b != nil {
		t.Fatalf("Poll before deadline: %v", b)
	}
	b := poll(to, now.Add(100*time.Millisecond))
	if len(b) != 1 || len(b[0]) != 2 {
		t.Fatalf("Poll at deadline = %v", b)
	}
	if to.Pending() != 0 || !to.Deadline().IsZero() {
		t.Error("TimeOut not reset after release")
	}
	// A later packet opens a fresh window.
	now = now.Add(time.Hour)
	add(to, 0, ipkt(3))
	if got := to.Deadline(); !got.Equal(now.Add(100 * time.Millisecond)) {
		t.Errorf("second window deadline = %v", got)
	}
}

func TestTimeOutZeroWindowIsNull(t *testing.T) {
	to := NewTimeOut(0)
	if b := add(to, 0, ipkt(1)); len(b) != 1 {
		t.Errorf("zero window should behave like NullSync: %v", b)
	}
}

func TestTimeOutDrain(t *testing.T) {
	to := NewTimeOut(time.Hour)
	add(to, 0, ipkt(1))
	if b := drain(to); len(b) != 1 || len(b[0]) != 1 {
		t.Errorf("Drain = %v", b)
	}
	if drain(to) != nil {
		t.Error("second Drain not empty")
	}
}

// Property: sum of random float batches equals the arithmetic sum.
func TestQuickSum(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		in := make([]*packet.Packet, len(xs))
		var want float64
		for i, x := range xs {
			in[i] = fpkt(x)
			want += x
		}
		out, err := Collect(NewNumericReduce(OpSum), in)
		if err != nil {
			return false
		}
		got, _ := out[0].Float(0)
		return got == want || (math.IsNaN(got) && math.IsNaN(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: tree-composed avg equals flat avg for any split of the inputs.
func TestQuickAvgTreeInvariance(t *testing.T) {
	f := func(xs []float64, splitRaw uint8) bool {
		if len(xs) < 2 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e15 {
				return true // skip pathological floats; equality tolerance below
			}
		}
		split := int(splitRaw)%(len(xs)-1) + 1
		mk := func(ys []float64) []*packet.Packet {
			ps := make([]*packet.Packet, len(ys))
			for i, y := range ys {
				ps[i] = fpkt(y)
			}
			return ps
		}
		flat, err := Collect(NewNumericReduce(OpAvg), mk(xs))
		if err != nil {
			return false
		}
		l, err := Collect(NewNumericReduce(OpAvg), mk(xs[:split]))
		if err != nil {
			return false
		}
		r, err := Collect(NewNumericReduce(OpAvg), mk(xs[split:]))
		if err != nil {
			return false
		}
		tree, err := Collect(NewNumericReduce(OpAvg), []*packet.Packet{l[0], r[0]})
		if err != nil {
			return false
		}
		fm, _ := flat[0].Float(1)
		tm, _ := tree[0].Float(1)
		return math.Abs(fm-tm) <= 1e-9*(1+math.Abs(fm))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: WaitForAll never releases a batch unless every child
// contributed, and total packets in equals packets out plus pending.
func TestQuickWaitForAllConservation(t *testing.T) {
	f := func(events []uint8, nRaw uint8) bool {
		n := int(nRaw%5) + 1
		w := NewWaitForAll(n)
		in, out := 0, 0
		for _, e := range events {
			child := int(e) % n
			in++
			for _, b := range add(w, child, ipkt(int64(e))) {
				if len(b) != n {
					return false
				}
				out += len(b)
			}
		}
		return in == out+w.Pending()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSumReduce16(b *testing.B) {
	in := make([]*packet.Packet, 16)
	for i := range in {
		in[i] = fpkt(float64(i))
	}
	r := NewNumericReduce(OpSum)
	var out Outputs
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.Apply(in, &out); err != nil {
			b.Fatal(err)
		}
		out.Reset()
	}
}

func BenchmarkWaitForAllRound16(b *testing.B) {
	w := NewWaitForAll(16)
	run := []*packet.Packet{ipkt(1)}
	released := 0
	emit := func([]*packet.Packet) { released++ }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for c := 0; c < 16; c++ {
			w.Offer(c, run, emit)
		}
	}
	if released != b.N {
		b.Fatalf("released %d rounds, want %d", released, b.N)
	}
}

// Transformations lists the registered transformation names, sorted.
func (r *Registry) Transformations() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.tforms))
	for n := range r.tforms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Synchronizers lists the registered synchronizer names, sorted.
func (r *Registry) Synchronizers() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.syncs))
	for n := range r.syncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
