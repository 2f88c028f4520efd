package filter

import (
	"errors"
	"math"
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
	out, err := tf.Transform(in)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("Transform returned %d packets, want 1", len(out))
	}
	return out[0]
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
	_, err := NewNumericReduce(OpSum).Transform(
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
	_, err := NewNumericReduce(OpSum).Transform([]*packet.Packet{fpkt(1), ipkt(1)})
	if !errors.Is(err, ErrMixedFormats) {
		t.Errorf("mixed formats: got %v", err)
	}
	_, err = NewNumericReduce(OpSum).Transform(
		[]*packet.Packet{packet.MustNew(100, 1, 0, "%s", "x")})
	if err == nil {
		t.Error("sum over strings: want error")
	}
}

func TestEmptyBatch(t *testing.T) {
	for _, op := range []Op{OpSum, OpMin, OpMax, OpAvg, OpCount} {
		out, err := NewNumericReduce(op).Transform(nil)
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
	c := Chain{Concat{}, NewNumericReduce(OpCount)}
	out := one(t, c, fpkt(1), fpkt(2))
	if v, _ := out.Int(0); v != 1 {
		t.Errorf("chain count = %d, want 1", v)
	}
	// A stage that suppresses ends the chain.
	suppress := TransformFunc(func(in []*packet.Packet) ([]*packet.Packet, error) { return nil, nil })
	c2 := Chain{suppress, NewNumericReduce(OpSum)}
	out2, err := c2.Transform([]*packet.Packet{fpkt(1)})
	if err != nil || out2 != nil {
		t.Errorf("suppressing chain: %v %v", out2, err)
	}
	// Errors carry the stage index.
	c3 := Chain{TransformFunc(func(in []*packet.Packet) ([]*packet.Packet, error) {
		return nil, errors.New("boom")
	})}
	if _, err := c3.Transform([]*packet.Packet{fpkt(1)}); err == nil {
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
		return TransformFunc(func(in []*packet.Packet) ([]*packet.Packet, error) {
			v, err := in[0].Float(0)
			if err != nil {
				return nil, err
			}
			out, err := packet.New(in[0].Tag, in[0].StreamID, packet.UnknownRank, "%f", 2*v)
			if err != nil {
				return nil, err
			}
			return []*packet.Packet{out}, nil
		})
	})
	tf, err := r.NewTransformation("double")
	if err != nil {
		t.Fatal(err)
	}
	out, err := tf.Transform([]*packet.Packet{fpkt(21)})
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
	batches := s.Add(0, fpkt(1))
	if len(batches) != 1 || len(batches[0]) != 1 {
		t.Fatalf("NullSync.Add = %v", batches)
	}
	if s.Pending() != 0 || s.Poll(time.Now()) != nil || !s.Deadline().IsZero() {
		t.Error("NullSync holds state")
	}
}

func TestWaitForAll(t *testing.T) {
	w := NewWaitForAll(3)
	if got := w.Add(0, ipkt(1)); got != nil {
		t.Fatalf("premature release: %v", got)
	}
	if got := w.Add(1, ipkt(2)); got != nil {
		t.Fatalf("premature release: %v", got)
	}
	if w.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", w.Pending())
	}
	batches := w.Add(2, ipkt(3))
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
	w.Add(0, ipkt(10))
	w.Add(0, ipkt(20))
	w.Add(0, ipkt(30))
	b1 := w.Add(1, ipkt(11))
	if len(b1) != 1 {
		t.Fatalf("first release: %v", b1)
	}
	if v, _ := b1[0][0].Int(0); v != 10 {
		t.Errorf("FIFO violated: %d", v)
	}
	// One more from child 1 releases the next round.
	b2 := w.Add(1, ipkt(21))
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
	w.Add(0, ipkt(1))
	w.Add(0, ipkt(2))
	w.Add(1, ipkt(1))
	// Child 1's second arrival completes two batches? No — only one was
	// missing; Add(1,..) completes batch 1, then the second Add completes
	// batch 2.
	b := w.Add(1, ipkt(2))
	if len(b) != 1 {
		t.Fatalf("got %d batches", len(b))
	}
}

func TestWaitForAllUnknownSlot(t *testing.T) {
	w := NewWaitForAll(2)
	b := w.Add(7, ipkt(1)) // out-of-range slot delivers immediately
	if len(b) != 1 {
		t.Errorf("unknown slot: %v", b)
	}
}

func TestWaitForAllDrain(t *testing.T) {
	w := NewWaitForAll(3)
	w.Add(0, ipkt(1))
	w.Add(2, ipkt(3))
	b := w.Drain()
	if len(b) != 1 || len(b[0]) != 2 {
		t.Fatalf("Drain = %v", b)
	}
	if w.Drain() != nil {
		t.Error("second Drain not empty")
	}
}

func TestTimeOut(t *testing.T) {
	now := time.Unix(1000, 0)
	to := NewTimeOut(100 * time.Millisecond)
	to.now = func() time.Time { return now }
	if b := to.Add(0, ipkt(1)); b != nil {
		t.Fatalf("TimeOut released early: %v", b)
	}
	to.Add(1, ipkt(2))
	if got := to.Deadline(); !got.Equal(now.Add(100 * time.Millisecond)) {
		t.Errorf("Deadline = %v", got)
	}
	// Before the window closes nothing is released.
	if b := to.Poll(now.Add(50 * time.Millisecond)); b != nil {
		t.Fatalf("Poll before deadline: %v", b)
	}
	b := to.Poll(now.Add(100 * time.Millisecond))
	if len(b) != 1 || len(b[0]) != 2 {
		t.Fatalf("Poll at deadline = %v", b)
	}
	if to.Pending() != 0 || !to.Deadline().IsZero() {
		t.Error("TimeOut not reset after release")
	}
	// A later packet opens a fresh window.
	now = now.Add(time.Hour)
	to.Add(0, ipkt(3))
	if got := to.Deadline(); !got.Equal(now.Add(100 * time.Millisecond)) {
		t.Errorf("second window deadline = %v", got)
	}
}

func TestTimeOutZeroWindowIsNull(t *testing.T) {
	to := NewTimeOut(0)
	if b := to.Add(0, ipkt(1)); len(b) != 1 {
		t.Errorf("zero window should behave like NullSync: %v", b)
	}
}

func TestTimeOutDrain(t *testing.T) {
	to := NewTimeOut(time.Hour)
	to.Add(0, ipkt(1))
	if b := to.Drain(); len(b) != 1 || len(b[0]) != 1 {
		t.Errorf("Drain = %v", b)
	}
	if to.Drain() != nil {
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
		out, err := NewNumericReduce(OpSum).Transform(in)
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
		flat, err := NewNumericReduce(OpAvg).Transform(mk(xs))
		if err != nil {
			return false
		}
		l, err := NewNumericReduce(OpAvg).Transform(mk(xs[:split]))
		if err != nil {
			return false
		}
		r, err := NewNumericReduce(OpAvg).Transform(mk(xs[split:]))
		if err != nil {
			return false
		}
		tree, err := NewNumericReduce(OpAvg).Transform([]*packet.Packet{l[0], r[0]})
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
			for _, b := range w.Add(child, ipkt(int64(e))) {
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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Transform(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWaitForAllRound16(b *testing.B) {
	w := NewWaitForAll(16)
	p := ipkt(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for c := 0; c < 16; c++ {
			w.Add(c, p)
		}
	}
}
