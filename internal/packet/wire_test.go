package packet

import (
	"bytes"
	"encoding/hex"
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
// in former padding; a new field has to fit the same way.
func TestPacketSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 112 {
		t.Fatalf("Packet is %d bytes; it must stay within the 112-byte size class", n)
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

// TestDecodedPacketForwardsWithoutEncoding is TestRestampDropsCache and
// TestRestampSharesValues for a received packet: a restamp shares the wire
// payload (no copy, no decode), carries the new header and none of the old
// packet's cache or holds, and neither it nor the original costs a
// serialization pass or a cache body to put on the wire.
func TestDecodedPacketForwardsWithoutEncoding(t *testing.T) {
	wire := MustNew(100, 1, 2, "%d %af", int64(9), []float64{1, 2, 3}).Encode()
	p, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	p.RetainEncoded(1)
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
	if q.EncodedRefs() != 0 {
		t.Errorf("restamp inherited %d encoded-body holds; clones must start untracked", q.EncodedRefs())
	}

	frame := EncodeFrame([]*Packet{p, q})
	if p.wire.Load() != nil || q.wire.Load() != nil {
		t.Error("framing a decoded packet built a cache body; it must be written straight from header fields and payload")
	}
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
	if !p.ReleaseEncoded() {
		t.Error("final ReleaseEncoded returned false")
	}
}

// TestDecodedPacketConcurrentUse shares one decoded packet between many
// goroutines the way a multicast hop and a filter do — generic reads that
// materialize, typed reads that may run before, during or after that,
// restamps and framing — and every one must see the same payload. Run
// under -race: materialization is the one write to a shared packet.
func TestDecodedPacketConcurrentUse(t *testing.T) {
	wire := MustNew(100, 7, 3, "%d %s %af %ac", int64(42), "payload", []float64{1, 2, 3}, []byte{4, 5}).Encode()
	p, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
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
			if got := AppendFrame(nil, []*Packet{p.WithSrc(9)}); !bytes.Equal(got, want) {
				t.Error("a concurrent restamp framed different bytes")
			}
			if !bytes.Equal(p.EncodedBytes(), wire) {
				t.Error("EncodedBytes differs from the bytes the packet arrived as")
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
			if _, err := Decode(wire); err != nil {
				t.Fatal(err)
			}
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
