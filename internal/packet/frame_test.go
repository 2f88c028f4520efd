package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func framePackets(t *testing.T) []*Packet {
	t.Helper()
	return []*Packet{
		MustNew(100, 1, 2, "%d", int64(7)),
		MustNew(101, 1, 3, "%f %s", 2.5, "x"),
		MustNew(102, 9, 4, "%ad %as", []int64{1, 2, 3}, []string{"a"}),
	}
}

// wireFrame returns ps as a link writes them: a uint32 body length, then
// the frame body.
func wireFrame(ps []*Packet) *bytes.Buffer {
	body := EncodeFrame(ps)
	return bytes.NewBuffer(append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...))
}

func TestFrameRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 3} {
		ps := framePackets(t)[:n]
		buf := wireFrame(ps)
		got, err := ReadFrame(buf)
		if err != nil {
			t.Fatalf("ReadFrame(%d packets): %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("round-trip count = %d, want %d", len(got), n)
		}
		for i, p := range ps {
			if !bytes.Equal(got[i].Encode(), p.Encode()) {
				t.Errorf("packet %d changed across frame round-trip", i)
			}
		}
		if buf.Len() != 0 {
			t.Errorf("ReadFrame left %d unread bytes", buf.Len())
		}
	}
}

func TestFrameSizeAccounting(t *testing.T) {
	ps := framePackets(t)
	body := EncodeFrame(ps)
	if len(body) != EncodedFrameSize(ps) {
		t.Fatalf("EncodeFrame produced %d bytes, EncodedFrameSize says %d", len(body), EncodedFrameSize(ps))
	}
}

func TestDecodeFrameMalformedCount(t *testing.T) {
	// A count claiming more packets than the body can possibly hold must
	// be rejected before any allocation is attempted.
	body := binary.LittleEndian.AppendUint32(nil, 1<<30)
	if _, err := DecodeFrame(body); !errors.Is(err, ErrWire) {
		t.Fatalf("huge count: err = %v, want ErrWire", err)
	}
	// Count beyond MaxFramePackets is rejected outright.
	body = binary.LittleEndian.AppendUint32(nil, MaxFramePackets+1)
	if _, err := DecodeFrame(body); !errors.Is(err, ErrWire) {
		t.Fatalf("count above MaxFramePackets: err = %v, want ErrWire", err)
	}
	// A count of 2 over a body holding 1 packet is truncated.
	one := EncodeFrame(framePackets(t)[:1])
	binary.LittleEndian.PutUint32(one, 2)
	if _, err := DecodeFrame(one); !errors.Is(err, ErrWire) {
		t.Fatalf("over-count: err = %v, want ErrWire", err)
	}
}

func TestDecodeFrameTruncated(t *testing.T) {
	body := EncodeFrame(framePackets(t))
	for cut := 0; cut < len(body); cut++ {
		if _, err := DecodeFrame(body[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(body))
		}
	}
	// Trailing garbage after the last packet is rejected too.
	if _, err := DecodeFrame(append(append([]byte{}, body...), 0xFF)); !errors.Is(err, ErrWire) {
		t.Fatal("trailing garbage accepted")
	}
}

func TestDecodeFrameOversize(t *testing.T) {
	// Mirror the MaxWireSize defence: an outer frame length beyond
	// MaxFrameBody (one maximal packet plus framing) fails before any body
	// read, and an inner packet length beyond the cap fails without
	// allocating.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrameBody+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrWire) {
		t.Fatalf("oversize frame length: err = %v, want ErrWire", err)
	}
	body := binary.LittleEndian.AppendUint32(nil, 1)
	body = binary.LittleEndian.AppendUint32(body, MaxWireSize+1)
	body = append(body, make([]byte, 64)...)
	if _, err := DecodeFrame(body); !errors.Is(err, ErrWire) {
		t.Fatalf("oversize packet length: err = %v, want ErrWire", err)
	}
}

func TestReadFrameShortBody(t *testing.T) {
	buf := wireFrame(framePackets(t)[:1])
	short := buf.Bytes()[:buf.Len()-1]
	if _, err := ReadFrame(bytes.NewReader(short)); err == nil {
		t.Fatal("short frame body accepted")
	}
	if _, err := ReadFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("empty reader: err = %v, want io.EOF", err)
	}
}

// TestFrameSiblingsIndependent holds the Packets of one received frame,
// which share an allocation, to being as independent as separately
// decoded ones: materializing one packet's values or restamping any of them
// changes no sibling's header, loaded flag or values.
func TestFrameSiblingsIndependent(t *testing.T) {
	ps, err := ReadFrame(wireFrame(framePackets(t)))
	if err != nil {
		t.Fatal(err)
	}
	type state struct {
		tag    int32
		stream uint32
		src    Rank
		seq    uint64
		loaded bool
		values []any
	}
	snap := func() []state {
		out := make([]state, len(ps))
		for i, p := range ps {
			out[i] = state{p.Tag, p.StreamID, p.SrcRank, p.Seq, p.loaded.Load(), p.values}
		}
		return out
	}
	before := snap()
	mid := ps[1].Values()
	if !ps[1].loaded.Load() || len(mid) != 2 {
		t.Fatalf("middle packet materialized %v (loaded %v), want its 2 values", mid, ps[1].loaded.Load())
	}
	for i, s := range snap() {
		if i == 1 {
			continue
		}
		if s.loaded || s.values != nil || s.tag != before[i].tag || s.stream != before[i].stream || s.src != before[i].src {
			t.Errorf("packet %d changed when its sibling materialized its values: %+v, was %+v", i, s, before[i])
		}
	}
	before = snap()
	for i, p := range ps {
		q := p.WithStreamSrc(p.StreamID+10, p.SrcRank+10)
		if q == p || q.StreamID != p.StreamID+10 || q.SrcRank != p.SrcRank+10 {
			t.Fatalf("packet %d: WithStreamSrc returned %v for %v", i, q, p)
		}
	}
	for i, s := range snap() {
		b := before[i]
		if s.tag != b.tag || s.stream != b.stream || s.src != b.src || s.seq != b.seq || s.loaded != b.loaded ||
			len(s.values) != len(b.values) || (len(s.values) > 0 && &s.values[0] != &b.values[0]) {
			t.Errorf("packet %d changed when the frame's packets were restamped: %+v, was %+v", i, s, b)
		}
	}
	for i, p := range ps {
		if !bytes.Equal(p.Encode(), framePackets(t)[i].Encode()) {
			t.Errorf("packet %d no longer encodes as sent", i)
		}
	}
}

// TestReadFrameAllocs pins the receive side's allocation budget per frame:
// a one-packet frame of up to 48 body bytes (a one-scalar command or reply)
// is one object — body, Packet and result slice together — a larger
// one-packet frame or a two-packet frame two, and any other frame three: the
// body, the Packets as one array and the slice pointing into it, however
// many packets it holds.
func TestReadFrameAllocs(t *testing.T) {
	batch := make([]*Packet, 32)
	for i := range batch {
		batch[i] = MustNew(100, 1, Rank(i), "%d", int64(i))
	}
	for _, c := range []struct {
		name string
		ps   []*Packet
		want float64
	}{
		{"one scalar", []*Packet{MustNew(100, 1, 2, "%d", int64(7))}, 1},
		{"one string", []*Packet{MustNew(100, 1, 2, "%s", "a reply of some sixty bytes, past the smallest class")}, 2},
		{"one KiB", []*Packet{MustNew(100, 1, 2, "%ac", make([]byte, 1024))}, 2},
		{"two scalars", batch[:2], 2},
		{"32 scalars", batch, 3},
	} {
		wire := wireFrame(c.ps).Bytes()
		r := bytes.NewReader(wire)
		if n := testing.AllocsPerRun(100, func() {
			r.Reset(wire)
			if ps, err := ReadFrame(r); err != nil || len(ps) != len(c.ps) {
				t.Fatalf("ReadFrame = %d packets, %v", len(ps), err)
			}
		}); n > c.want {
			t.Errorf("%s: ReadFrame allocates %.0f objects per frame, want <= %.0f", c.name, n, c.want)
		}
	}
}

// BenchmarkReadFrame is what receiving a one-scalar frame costs; CI holds
// it to 1 alloc/op (the body, the Packet and the result slice in one
// object).
func BenchmarkReadFrame(b *testing.B) {
	wire := wireFrame([]*Packet{MustNew(100, 1, 2, "%d", int64(7))}).Bytes()
	r := bytes.NewReader(wire)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(wire)
		if _, err := ReadFrame(r); err != nil {
			b.Fatal(err)
		}
	}
}
