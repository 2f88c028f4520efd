package packet

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// TestPacketSizeClass guards the struct's allocation size class. Measured
// on the 2-core host: padding Packet from 112 to 144 bytes — what adding
// the wire payload slice next to the old Format and dirs fields did — cost
// reduce_sat_chan, a workload that never encodes or decodes, 6–15 % of
// pkts_per_s (median ≈ 8 %) and 5–9 % of live_heap_mb. Format and dirs
// therefore live behind one interned descriptor pointer and the loaded flag
// in former padding; a new field has to fit the same way. The struct is
// 88 bytes, in the 96-byte class, and New's one-scalar packet — header and
// 8-byte payload in one object — fills that same class exactly.
func TestPacketSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 96 {
		t.Fatalf("Packet is %d bytes; it must stay within the 96-byte size class", n)
	}
	if n := unsafe.Sizeof(packet8{}); n != 96 {
		t.Fatalf("a one-scalar packet is %d bytes; it must fill the 96-byte size class", n)
	}
}

// Frames written by the commit before packets became wire-native (PR 13):
// one packet of every directive kind, seq-stamped, and a three-packet frame
// with a credit grant in it. The wire format is unchanged, so they decode
// here and what this commit encodes from the same values is byte-identical.
const (
	goldenPacket = "0e7b026f00000009000000ffffffff4d000000000300001b00256420256620257320256164202561662025617320256320256163feffffffffffffff0000000000000440050000007468726565020000000400000000000000fbffffffffffffff0100000000000000000018400200000005000000736576656e000000000802000000090a"
	goldenFrame  = "03000000230000000e7b026400000001000000020000000000000000000000020025640700000000000000190000000e7b0203000000100000000000000080020000000000000000320000000e7b02650000000100000003000000000000000000000006002564202561630100000000000000070000007061796c6f6164"
)

func TestGoldenWireBytes(t *testing.T) {
	wantPacket, _ := hex.DecodeString(goldenPacket)
	wantFrame, _ := hex.DecodeString(goldenFrame)

	built := MustNew(111, 9, UnknownRank, "%d %f %s %ad %af %as %c %ac",
		int64(-2), 2.5, "three", []int64{4, -5}, []float64{6}, []string{"seven", ""}, byte(8), []byte{9, 10}).
		WithSeq(MakeSeq(3, 77))
	if got := built.Encode(); !bytes.Equal(got, wantPacket) {
		t.Errorf("packet built from values encodes to\n%x\nwant the parent commit's\n%x", got, wantPacket)
	}
	p, err := Decode(wantPacket)
	if err != nil {
		t.Fatalf("the parent commit's packet does not decode: %v", err)
	}
	if p.Tag != 111 || p.StreamID != 9 || p.SrcRank != UnknownRank || p.Seq != MakeSeq(3, 77) {
		t.Errorf("golden header decoded to %v", p)
	}
	if s, _ := p.Str(2); s != "three" {
		t.Errorf("golden %%s = %q", s)
	}
	if ss, _ := p.StringArray(5); len(ss) != 2 || ss[0] != "seven" || ss[1] != "" {
		t.Errorf("golden %%as = %q", ss)
	}
	if got := p.Encode(); !bytes.Equal(got, wantPacket) {
		t.Errorf("decoded golden packet re-encodes to\n%x", got)
	}

	frame := []*Packet{
		MustNew(100, 1, 2, "%d", int64(7)),
		NewCreditGrant(16, 640),
		MustNew(101, 1, 3, "%d %ac", int64(1), []byte("payload")),
	}
	if got := EncodeFrame(frame); !bytes.Equal(got, wantFrame) {
		t.Errorf("frame built from values encodes to\n%x\nwant the parent commit's\n%x", got, wantFrame)
	}
	ps, err := DecodeFrame(wantFrame)
	if err != nil {
		t.Fatalf("the parent commit's frame does not decode: %v", err)
	}
	if n, ok := CreditGrantValue(ps[1]); !ok || n != 16 || CreditGrantAck(ps[1]) != 640 {
		t.Errorf("golden grant decoded to %v", ps[1])
	}
	if got := EncodeFrame(ps); !bytes.Equal(got, wantFrame) {
		t.Errorf("decoded golden frame re-frames to\n%x", got)
	}
}

// TestDecodedPacketForwardsWithoutEncoding is TestRestampSharesPayload for a
// received packet: a restamp shares the wire payload (no copy, no decode)
// and carries the new header, and neither it nor the original costs a
// serialization pass to put on the wire.
func TestDecodedPacketForwardsWithoutEncoding(t *testing.T) {
	wire := MustNew(100, 1, 2, "%d %af", int64(9), []float64{1, 2, 3}).Encode()
	p, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	before := WireEncodes()

	q := p.WithStreamSrc(5, 8)
	if q == p {
		t.Fatal("WithStreamSrc with a new header must clone")
	}
	if &q.payload[0] != &p.payload[0] || len(q.payload) != len(p.payload) {
		t.Error("restamp copied the wire payload; a forwarding hop must share it")
	}
	if &p.payload[0] != &wire[len(wire)-len(p.payload)] {
		t.Error("Decode copied the payload out of its input")
	}
	if q.values != nil || q.loaded.Load() {
		t.Error("restamp materialized the payload")
	}

	frame := EncodeFrame([]*Packet{p, q})
	if d := WireEncodes() - before; d != 0 {
		t.Errorf("forwarding a decoded packet cost %d serialization passes, want 0", d)
	}
	ps, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ps[0].Encode(), wire) {
		t.Error("the original no longer frames to the bytes it arrived as")
	}
	if ps[1].StreamID != 5 || ps[1].SrcRank != 8 {
		t.Errorf("restamped packet framed with stream=%d src=%d; stale header", ps[1].StreamID, ps[1].SrcRank)
	}
	if xs, _ := ps[1].FloatArray(1); len(xs) != 3 || xs[0] != 1 || xs[2] != 3 {
		t.Errorf("restamped packet's payload decoded to %v", xs)
	}

	// A restamp taken after materialization shares the values as well.
	vals := p.Values()
	r := p.WithSeq(MakeSeq(2, 1))
	if rv := r.Values(); len(rv) != len(vals) || &rv[0] != &vals[0] {
		t.Error("restamp of a materialized packet re-materialized; must alias the values slice")
	}
}

// TestRestampSharesPayload is the aliasing regression for the single-field
// restamp path (WithSeq/WithStream/WithSrc/WithStreamSrc) on a packet built
// by New: the clone shares the payload bytes — no copy, no second
// serialization pass — encodes its own header, leaves the original's
// untouched, and an identity restamp is the packet itself.
func TestRestampSharesPayload(t *testing.T) {
	p := MustNew(100, 1, 2, "%d %af", int64(9), []float64{1, 2, 3})
	before := WireEncodes()

	q := p.WithSeq(MakeSeq(2, 1)).WithStreamSrc(5, 8)
	if q == p {
		t.Fatal("a restamp with a new header must clone")
	}
	if &q.payload[0] != &p.payload[0] || len(q.payload) != len(p.payload) {
		t.Error("restamp copied the payload; single-field restamps must share it")
	}
	if q.values != nil || q.loaded.Load() {
		t.Error("restamp materialized the payload")
	}
	dq, err := Decode(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dq.StreamID != 5 || dq.SrcRank != 8 || dq.Seq != MakeSeq(2, 1) {
		t.Errorf("restamped packet encodes stream=%d src=%d seq=%d", dq.StreamID, dq.SrcRank, dq.Seq)
	}
	if got, err := dq.FloatArray(1); err != nil || len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("restamped packet payload decoded to %v, %v", got, err)
	}
	if dp, err := Decode(p.Encode()); err != nil || dp.StreamID != 1 || dp.SrcRank != 2 || dp.Seq != 0 {
		t.Errorf("restamping changed what the original encodes to: %v, %v", dp, err)
	}
	if d := WireEncodes() - before; d != 0 {
		t.Errorf("restamping and encoding cost %d serialization passes, want 0", d)
	}

	if same := p.WithStreamSrc(1, 2); same != p {
		t.Error("identity restamp allocated a copy")
	}
	if same := p.WithStream(1); same != p {
		t.Error("identity WithStream allocated a copy")
	}
	vals := p.Values()
	if rv := p.WithSrc(7).Values(); len(rv) != len(vals) || &rv[0] != &vals[0] {
		t.Error("restamp of a materialized packet re-materialized; must alias the values slice")
	}
}

// TestDecodedPacketConcurrentUse shares one packet between many goroutines
// the way a multicast hop and a filter do — generic reads that materialize,
// typed reads that may run before, during or after that, restamps and
// framing — and every one must see the same payload. It runs on a decoded
// packet (a TCP hop) and on the packet New built (the chan-fabric multicast,
// where every child holds the front-end's own pointer). Run under -race:
// materialization is the one write to a shared packet.
func TestDecodedPacketConcurrentUse(t *testing.T) {
	built := MustNew(100, 7, 3, "%d %s %af %ac %ad", int64(42), "payload", []float64{1, 2, 3}, []byte{4, 5}, []int64{6, 7})
	wire := built.Encode()
	decoded, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*Packet{"decoded": decoded, "built": built} {
		t.Run(name, func(t *testing.T) {
			var want []byte
			want = AppendFrame(want, []*Packet{p.WithSrc(9)})
			const goroutines = 16
			firsts := make([]*any, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					if g%2 == 0 {
						firsts[g] = &p.Values()[0]
					}
					if v, err := p.Int(0); err != nil || v != 42 {
						t.Errorf("Int(0) = %d, %v", v, err)
					}
					if s, err := p.Str(1); err != nil || s != "payload" {
						t.Errorf("Str(1) = %q, %v", s, err)
					}
					if xs, err := p.FloatArray(2); err != nil || len(xs) != 3 || xs[2] != 3 {
						t.Errorf("FloatArray(2) = %v, %v", xs, err)
					}
					if b, err := p.Bytes(3); err != nil || !bytes.Equal(b, []byte{4, 5}) {
						t.Errorf("Bytes(3) = %v, %v", b, err)
					}
					if xs, err := p.IntArray(4); err != nil || len(xs) != 2 || xs[1] != 7 {
						t.Errorf("IntArray(4) = %v, %v", xs, err)
					} else {
						xs[1] = -1 // the copy is the caller's; nobody else may see this
					}
					if got := AppendFrame(nil, []*Packet{p.WithSrc(9)}); !bytes.Equal(got, want) {
						t.Error("a concurrent restamp framed different bytes")
					}
					if !bytes.Equal(p.Encode(), wire) {
						t.Error("Encode differs from the packet's wire bytes")
					}
					if g%2 == 1 {
						firsts[g] = &p.Values()[0]
					}
				}(g)
			}
			wg.Wait()
			for g := 1; g < goroutines; g++ {
				if firsts[g] != firsts[0] {
					t.Fatalf("goroutine %d got its own values slice; materialization must happen once", g)
				}
			}
		})
	}
}

// TestDecodeAllocs pins the receive path's allocation budget: Decode
// allocates the Packet and nothing else — no format string, no []any, no
// box per value — and the typed reads a filter makes allocate nothing.
func TestDecodeAllocs(t *testing.T) {
	for _, p := range []*Packet{
		MustNew(100, 1, 2, "%d", int64(7)),
		MustNew(100, 1, 2, "%d %ac", int64(7), make([]byte, 1024)),
	} {
		wire := p.Encode()
		if _, err := Decode(wire); err != nil { // intern the format
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			q, err := Decode(wire)
			if err != nil {
				t.Fatal(err)
			}
			benchSink = q // kept, as a receiver keeps it: a discarded one may live on the stack
		}); n > 1 {
			t.Errorf("Decode(%q) allocates %.0f objects per packet, want <= 1", p.Format(), n)
		}
	}
	p, err := Decode(MustNew(100, 1, 2, "%d %ac", int64(7), make([]byte, 1024)).Encode())
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if v, err := p.Int(0); err != nil || v != 7 {
			t.Fatalf("Int(0) = %d, %v", v, err)
		}
		if b, err := p.Bytes(1); err != nil || len(b) != 1024 {
			t.Fatalf("Bytes(1) = %d bytes, %v", len(b), err)
		}
	}); n != 0 {
		t.Errorf("Int + Bytes on a decoded packet allocate %.0f objects, want 0", n)
	}
}

// TestNewAllocs pins the origin path's allocation budget: New allocates one
// object for a small payload (the Packet and its bytes together), the
// Packet and a payload buffer for a large one, and nothing else — the
// variadic []any and the boxes in it stay on the caller's stack, which
// holds only while values does not escape New (go build -gcflags=-m says
// so; this is the pin).
func TestNewAllocs(t *testing.T) {
	n := int64(1000) // above the runtime's preallocated small-integer boxes
	kib := make([]byte, 1024)
	xs := make([]float64, 64)
	for _, c := range []struct {
		format string
		build  func() *Packet
		want   float64
	}{
		{"%d", func() *Packet { n++; return MustNew(100, 1, 2, "%d", n) }, 1},
		{"%d %f", func() *Packet { n++; return MustNew(100, 1, 2, "%d %f", n, 2.5) }, 1},
		{"%d %ac", func() *Packet { n++; return MustNew(100, 1, 2, "%d %ac", n, kib) }, 2},
		{"%af", func() *Packet { return MustNew(100, 1, 2, "%af", xs) }, 2},
	} {
		if got := testing.AllocsPerRun(100, func() { benchSink = c.build() }); got > c.want {
			t.Errorf("New(%q) allocates %.0f objects per packet, want <= %.0f", c.format, got, c.want)
		}
	}
}

// TestPacketDoesNotAliasItsMaker is the regression for packets that shared
// memory with whoever built or read them: New used to keep the caller's
// slices, and the array accessors used to return the packet's own. A packet
// is immutable in fact only if neither side can reach its bytes.
func TestPacketDoesNotAliasItsMaker(t *testing.T) {
	bs := []byte{1, 2, 3}
	is := []int64{4, 5, 6}
	fs := []float64{7, 8, 9}
	ss := []string{"ten", "eleven"}
	p := MustNew(100, 1, 2, "%ac %ad %af %as", bs, is, fs, ss)
	want := MustNew(100, 1, 2, "%ac %ad %af %as",
		[]byte{1, 2, 3}, []int64{4, 5, 6}, []float64{7, 8, 9}, []string{"ten", "eleven"}).Encode()

	bs[0], is[0], fs[0], ss[0] = 99, 99, 99, "mutated"
	check := func(when string) {
		t.Helper()
		if b, err := p.Bytes(0); err != nil || !bytes.Equal(b, []byte{1, 2, 3}) {
			t.Errorf("%s: Bytes = %v, %v", when, b, err)
		}
		if xs, err := p.IntArray(1); err != nil || !reflect.DeepEqual(xs, []int64{4, 5, 6}) {
			t.Errorf("%s: IntArray = %v, %v", when, xs, err)
		}
		if xs, err := p.FloatArray(2); err != nil || !reflect.DeepEqual(xs, []float64{7, 8, 9}) {
			t.Errorf("%s: FloatArray = %v, %v", when, xs, err)
		}
		if xs, err := p.StringArray(3); err != nil || !reflect.DeepEqual(xs, []string{"ten", "eleven"}) {
			t.Errorf("%s: StringArray = %v, %v", when, xs, err)
		}
		if !bytes.Equal(p.Encode(), want) {
			t.Errorf("%s: the packet encodes to different bytes", when)
		}
	}
	check("after the maker mutated its slices")

	// What an array accessor returns is the reader's: writing to it must not
	// reach the packet. (Bytes is the documented exception — a read-only
	// alias of the payload, which is what keeps a 1 KiB read free.)
	ia, _ := p.IntArray(1)
	fa, _ := p.FloatArray(2)
	sa, _ := p.StringArray(3)
	ia[1], fa[1], sa[1] = -1, -1, "overwritten"
	check("after a reader wrote to what the accessors returned")
	_ = p.Values()
	ia, _ = p.IntArray(1)
	ia[2] = -1
	check("after materialization and another write")
}
