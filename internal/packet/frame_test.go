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
