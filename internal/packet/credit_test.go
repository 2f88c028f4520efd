package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestCreditGrantRoundTrip: a grant survives the wire, keeps its count and
// cumulative ack, and costs exactly the minimal header — the compactness
// the reverse path depends on.
func TestCreditGrantRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		n   uint32
		cum uint64
	}{
		{1, 0},
		{7, 7},
		{1 << 20, 1 << 42},
		{^uint32(0), ^uint64(0)},
	} {
		g := NewCreditGrant(tc.n, tc.cum)
		if v, ok := CreditGrantValue(g); !ok || v != tc.n {
			t.Fatalf("CreditGrantValue(NewCreditGrant(%d, %d)) = %d, %v", tc.n, tc.cum, v, ok)
		}
		if a := CreditGrantAck(g); a != tc.cum {
			t.Fatalf("CreditGrantAck = %d, want %d", a, tc.cum)
		}
		enc := g.Encode()
		if len(enc) != minEncodedPacket {
			t.Errorf("grant encodes to %d bytes, want the minimal header %d", len(enc), minEncodedPacket)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("decoding grant: %v", err)
		}
		if v, ok := CreditGrantValue(dec); !ok || v != tc.n {
			t.Errorf("decoded grant carries %d, %v; want %d, true", v, ok, tc.n)
		}
		if a := CreditGrantAck(dec); a != tc.cum {
			t.Errorf("decoded grant ack = %d, want %d", a, tc.cum)
		}
		if !bytes.Equal(dec.Encode(), enc) {
			t.Error("grant encode not stable across a decode cycle")
		}
	}
}

// TestCreditGrantValueRejectsOthers: ordinary control and data packets are
// never mistaken for grants (the tag, not the shape, is the discriminator),
// and their ack accessor reads zero rather than misreading a data Seq.
func TestCreditGrantValueRejectsOthers(t *testing.T) {
	stamped := MustNew(TagFirstApplication, 3, 0, "%d", int64(1)).WithSeq(MakeSeq(3, 9))
	for _, p := range []*Packet{
		nil,
		MustNew(TagControl, 3, 0, "%d", int64(1)),
		stamped,
		MustNew(TagAck, 9, 0, ""),
	} {
		if v, ok := CreditGrantValue(p); ok {
			t.Errorf("CreditGrantValue(%v) = %d, true; want false", p, v)
		}
		if a := CreditGrantAck(p); a != 0 {
			t.Errorf("CreditGrantAck(%v) = %d, want 0 for non-grants", p, a)
		}
	}
}

// TestCreditGrantInFrame: grants batch into frames alongside data packets
// and come back intact — the reverse direction of a link is an ordinary
// frame stream.
func TestCreditGrantInFrame(t *testing.T) {
	ps := []*Packet{
		NewCreditGrant(16, 160),
		MustNew(TagFirstApplication, 2, 1, "%d", int64(42)),
		NewCreditGrant(3, 163),
	}
	dec, err := DecodeFrame(EncodeFrame(ps))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 3 {
		t.Fatalf("frame decoded to %d packets, want 3", len(dec))
	}
	if v, ok := CreditGrantValue(dec[0]); !ok || v != 16 {
		t.Errorf("first packet: grant %d, %v; want 16, true", v, ok)
	}
	if a := CreditGrantAck(dec[0]); a != 160 {
		t.Errorf("first packet ack %d, want 160", a)
	}
	if _, ok := CreditGrantValue(dec[1]); ok {
		t.Error("data packet mistaken for a grant")
	}
	if v, ok := CreditGrantValue(dec[2]); !ok || v != 3 {
		t.Errorf("third packet: grant %d, %v; want 3, true", v, ok)
	}
	if a := CreditGrantAck(dec[2]); a != 163 {
		t.Errorf("third packet ack %d, want 163", a)
	}
}

// TestSeqPackRoundTrip: MakeSeq/SeqOrigin/SeqCounter are exact inverses
// across the rank and counter ranges the overlay uses, and counter zero
// stays reserved for "unstamped".
func TestSeqPackRoundTrip(t *testing.T) {
	for _, origin := range []Rank{0, 1, 127, 1<<24 - 1} {
		for _, counter := range []uint64{1, 2, 1 << 20, 1<<40 - 1} {
			s := MakeSeq(origin, counter)
			if got := SeqOrigin(s); got != origin {
				t.Fatalf("SeqOrigin(MakeSeq(%d, %d)) = %d", origin, counter, got)
			}
			if got := SeqCounter(s); got != counter {
				t.Fatalf("SeqCounter(MakeSeq(%d, %d)) = %d", origin, counter, got)
			}
		}
	}
	if MakeSeq(0, 1) == 0 {
		t.Fatal("a stamped seq must never collide with the unstamped zero")
	}
}

// TestSeqSurvivesWireAndRestamp: the Seq header field round-trips the wire
// and is preserved by the forwarding restamps (WithStream/WithSrc/
// WithStreamSrc) — that survival is what makes receiver-side dedup of
// replayed packets possible across hops that re-stamp SrcRank.
func TestSeqSurvivesWireAndRestamp(t *testing.T) {
	p := MustNew(TagFirstApplication, 5, 2, "%s", "payload").WithSeq(MakeSeq(2, 77))
	dec, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Seq != p.Seq {
		t.Fatalf("Seq lost on the wire: %#x vs %#x", dec.Seq, p.Seq)
	}
	hop := p.WithStreamSrc(9, 4)
	if hop.Seq != p.Seq {
		t.Fatalf("WithStreamSrc dropped Seq: %#x vs %#x", hop.Seq, p.Seq)
	}
	if hop.StreamID != 9 || hop.SrcRank != 4 {
		t.Fatalf("restamp failed: %v", hop)
	}
	if q := p.WithSeq(p.Seq); q != p {
		t.Error("identical WithSeq should share the packet")
	}
	if q := p.WithStream(p.StreamID); q.Seq != p.Seq {
		t.Error("WithStream dropped Seq")
	}
	if q := p.WithSrc(11); q.Seq != p.Seq {
		t.Error("WithSrc dropped Seq")
	}
}

// TestGrantFrameWireCompatible: the frame a link writes from a grant's two
// fields is byte for byte the frame AppendFrame writes for the grant packet,
// length prefix included, and ParseGrantFrame reads the fields back — so
// either end may take either path.
func TestGrantFrameWireCompatible(t *testing.T) {
	for _, tc := range []struct {
		n   uint32
		cum uint64
	}{
		{1, 0},
		{16, 640},
		{^uint32(0), ^uint64(0)},
	} {
		g := NewCreditGrant(tc.n, tc.cum)
		want := binary.LittleEndian.AppendUint32(nil, uint32(EncodedFrameSize([]*Packet{g})))
		want = AppendFrame(want, []*Packet{g})
		got := AppendGrantFrame(nil, tc.n, tc.cum)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendGrantFrame(%d, %d) = %x, want %x", tc.n, tc.cum, got, want)
		}
		if len(got) != GrantFrameSize {
			t.Errorf("grant frame is %d bytes, want GrantFrameSize %d", len(got), GrantFrameSize)
		}
		n, cum, ok := ParseGrantFrame(got)
		if !ok || n != tc.n || cum != tc.cum {
			t.Errorf("ParseGrantFrame = (%d, %d, %v), want (%d, %d, true)", n, cum, ok, tc.n, tc.cum)
		}
	}
	data := AppendFrame(binary.LittleEndian.AppendUint32(nil, GrantFrameSize-4), []*Packet{MustNew(TagFirstApplication, 1, 0, "")})
	if _, _, ok := ParseGrantFrame(data); ok {
		t.Error("ParseGrantFrame accepted a data packet's frame")
	}
}
