package packet

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"
)

// checkDecoded holds a packet Decode accepted from data to the eager
// decoder's semantics. ref is what decodeValues — the old value loop, which
// checks every bound itself — made of the same payload. Values read three
// ways (typed accessors before materialization, Values, ref) must
// each rebuild, through New and the value serializer, the exact bytes that
// came in (comparing bytes rather than values keeps NaNs comparable); so
// must the packet itself and a restamped copy, before and after
// materialization.
func checkDecoded(t *testing.T, p *Packet, data []byte, ref []any) {
	t.Helper()
	rebuild := func(what string, vals []any) {
		t.Helper()
		q, err := New(p.Tag, p.StreamID, p.SrcRank, p.Format(), append([]any(nil), vals...)...)
		if err != nil {
			t.Fatalf("%s: values do not fit the packet's own format: %v", what, err)
		}
		q.Seq = p.Seq
		if !bytes.Equal(q.Encode(), data) {
			t.Fatalf("%s: values re-serialize to different bytes", what)
		}
	}
	typed := func(q *Packet) []any {
		t.Helper()
		vals := make([]any, q.NumValues())
		for i, d := range q.Directives() {
			var err error
			switch d {
			case DirByte:
				vals[i], err = q.Byte(i)
			case DirInt:
				vals[i], err = q.Int(i)
			case DirFloat:
				vals[i], err = q.Float(i)
			case DirString:
				vals[i], err = q.Str(i)
			case DirByteArray:
				vals[i], err = q.Bytes(i)
			case DirIntArray:
				vals[i], err = q.IntArray(i)
			case DirFloatArray:
				vals[i], err = q.FloatArray(i)
			case DirStringArray:
				vals[i], err = q.StringArray(i)
			}
			if err != nil {
				t.Fatalf("typed accessor %d (%s) failed on an accepted packet: %v", i, d, err)
			}
		}
		return vals
	}
	if len(ref) != p.NumValues() {
		t.Fatalf("reference decoded %d values, packet has %d", len(ref), p.NumValues())
	}
	rebuild("reference", ref)
	rebuild("typed accessors", typed(p))
	hop := p.WithStreamSrc(p.StreamID+1, p.SrcRank+1)
	rebuild("typed accessors (restamped)", typed(hop.WithStreamSrc(p.StreamID, p.SrcRank)))
	if !bytes.Equal(p.Encode(), data) {
		t.Fatal("packet does not re-encode byte-identically")
	}
	if !bytes.Equal(hop.WithStreamSrc(p.StreamID, p.SrcRank).Encode(), data) {
		t.Fatal("restamped copy does not re-encode byte-identically")
	}
	rebuild("Values", p.Values())
	rebuild("typed accessors (materialized)", typed(p))
	rebuild("Values (restamped after materialization)", p.WithSeq(p.Seq+1).Values())
	if !bytes.Equal(p.Encode(), data) {
		t.Fatal("materialized packet does not re-encode byte-identically")
	}
}

// FuzzDecode hammers the wire decoder with arbitrary bytes. It must never
// panic; it must accept an input exactly when the header parses and the
// eager reference decoder materializes the whole payload — nothing that
// used to fail at Decode may now fail later, at first access; and whatever
// it accepts must read and re-encode as checkDecoded demands.
func FuzzDecode(f *testing.F) {
	seeds := []*Packet{
		MustNew(100, 0, 0, ""),
		MustNew(101, 7, 3, "%d %f %s", int64(-1), 2.5, "x"),
		MustNew(102, 7, 3, "%ad %af %as %ac",
			[]int64{1, 2}, []float64{3}, []string{"a", "b"}, []byte{9}),
		NewCreditGrant(32, 0),
		NewCreditGrant(^uint32(0), ^uint64(0)),
		// Extended grant encoding: credits in StreamID, cumulative ack in
		// the Seq header field (exactly-once recovery) — plus a seq-stamped
		// data packet, so mutations hit both uses of the field.
		NewCreditGrant(4, 1<<40|12345),
		MustNew(103, 9, 2, "%s", "id-7").WithSeq(MakeSeq(2, 7)),
		// Session control ops, mirroring core's opOpenSession (op,
		// namespace, tenant, priority, budget) and opCloseSession (op,
		// namespace) wire shapes — the decoder must survive mutations of
		// the tenant announcement flood.
		MustNew(TagControl, 0, 0, "%d %d %s %d %d",
			int64(5), int64(9), "tenant-a", int64(2), int64(8)),
		MustNew(TagControl, 0, 0, "%d %d %s %d %d",
			int64(5), int64(4095), "", int64(0), int64(0)),
		MustNew(TagControl, 0, 0, "%d %d", int64(6), int64(9)),
		// Five ints on the control tag, one of them 40 bits wide: an
		// unassigned op (8), so mutations exercise wide integers in
		// control payloads.
		MustNew(TagControl, 0, 3, "%d %d %d %d %d",
			int64(8), int64(3), int64(1<<40), int64(17), int64(0)),
	}
	for _, p := range seeds {
		f.Add(p.Encode())
	}
	f.Add([]byte{})
	f.Add([]byte{0x0E, 0x7B, 1})
	f.Add([]byte{0x0E, 0x7B, 2})
	// A version-1 header (no seq field): the decoder must reject the stale
	// version cleanly, not misparse the format length as seq bytes.
	f.Add([]byte{0x0E, 0x7B, 1, 100, 0, 0, 0, 7, 0, 0, 0, 3, 0, 0, 0, 0, 0})
	// A valid packet truncated mid-seq: rejected, never panics.
	trunc := MustNew(103, 9, 2, "").Encode()
	f.Add(trunc[:len(trunc)-10])
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref []any
		hdr := new(Packet)
		payload, refErr := decodeHeader(hdr, data)
		if refErr == nil {
			ref, refErr = decodeValues(hdr.Directives(), payload)
		}
		p, err := Decode(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Decode error %v, eager reference error %v: the accept/reject boundary moved", err, refErr)
		}
		if err != nil {
			return
		}
		if p.Tag != hdr.Tag || p.StreamID != hdr.StreamID || p.SrcRank != hdr.SrcRank || p.Seq != hdr.Seq || p.Format() != hdr.Format() {
			t.Fatalf("header fields differ from the header parse: %v vs %v", p, hdr)
		}
		checkDecoded(t, p, data, ref)
	})
}

// FuzzDecodeFrame hammers the multi-packet frame decoder with arbitrary
// bodies: it must never panic regardless of corrupt counts, truncated
// packets, or oversize lengths, and anything it accepts must re-encode to
// an identical frame (the decoder is exactly the inverse of EncodeFrame on
// valid inputs) — also after every packet took a forwarding hop's restamp —
// with every packet in it passing checkDecoded. The frame walk itself is
// unchanged; the per-packet accept/reject boundary is FuzzDecode's.
func FuzzDecodeFrame(f *testing.F) {
	single := MustNew(101, 7, 3, "%d %f %s", int64(-1), 2.5, "x")
	batch := []*Packet{
		MustNew(100, 0, 0, ""),
		single,
		MustNew(102, 7, 3, "%ad %af %as %ac",
			[]int64{1, 2}, []float64{3}, []string{"a", "b"}, []byte{9}),
		NewCreditGrant(64, 640),
	}
	f.Add(EncodeFrame(nil))
	f.Add(EncodeFrame(batch[:1]))
	f.Add(EncodeFrame(batch))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})               // count 1, no packet
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})   // absurd count
	f.Add(append([]byte{1, 0, 0, 0}, 0xFF)) // count 1, garbage length
	f.Add(append(EncodeFrame(batch), 0x00)) // trailing byte
	f.Add(EncodeFrame([]*Packet{NewCreditGrant(16, 1<<33)}))
	f.Add(EncodeFrame([]*Packet{MustNew(TagCredit, 16, 0, "%d", int64(1))})) // a grant with a payload
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := DecodeFrame(data)
		checkGrantFrame(t, data, ps, err)
		checkReadFrame(t, data, ps, err)
		if err != nil {
			return
		}
		re := EncodeFrame(ps)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted frame does not re-encode identically (%d vs %d bytes)", len(re), len(data))
		}
		hops := make([]*Packet, len(ps))
		for i, p := range ps {
			hops[i] = p.WithSrc(p.SrcRank + 1).WithSrc(p.SrcRank)
		}
		if !bytes.Equal(EncodeFrame(hops), data) {
			t.Fatal("restamped packets do not re-frame identically")
		}
		for i, p := range ps {
			wire := p.Encode()
			alone, err := Decode(wire)
			if err != nil {
				t.Fatalf("packet %d accepted in a frame, but Decode rejects its bytes: %v", i, err)
			}
			if !samePacket(p, alone) {
				t.Fatalf("packet %d decoded in a frame as %v, alone as %v", i, p, alone)
			}
			payload, err := decodeHeader(new(Packet), wire)
			if err != nil {
				t.Fatalf("packet %d: header of an accepted packet does not parse: %v", i, err)
			}
			ref, err := decodeValues(p.Directives(), payload)
			if err != nil {
				t.Fatalf("packet %d accepted, but the eager reference rejects it: %v", i, err)
			}
			checkDecoded(t, p, wire, ref)
		}
		qs, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if len(qs) != len(ps) {
			t.Fatalf("re-decode count %d, want %d", len(qs), len(ps))
		}
	})
}

// samePacket reports whether a and b carry the same header and the same
// payload bytes.
func samePacket(a, b *Packet) bool {
	return a.Tag == b.Tag && a.StreamID == b.StreamID && a.SrcRank == b.SrcRank &&
		a.Seq == b.Seq && a.Format() == b.Format() && bytes.Equal(a.payload, b.payload)
}

// checkReadFrame holds ReadFrame, which sizes the frame's one allocation
// from the length and count before it reads the body, to DecodeFrame's
// verdict on the frame body data and to the packets it decoded.
func checkReadFrame(t *testing.T, data []byte, ps []*Packet, err error) {
	t.Helper()
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(data)))
	rs, rerr := ReadFrame(bytes.NewReader(append(frame, data...)))
	if (rerr == nil) != (err == nil) {
		t.Fatalf("ReadFrame error %v, DecodeFrame error %v", rerr, err)
	}
	if len(rs) != len(ps) {
		t.Fatalf("ReadFrame read %d packets, DecodeFrame %d", len(rs), len(ps))
	}
	for i := range rs {
		if !samePacket(rs[i], ps[i]) {
			t.Fatalf("packet %d: ReadFrame read %v, DecodeFrame %v", i, rs[i], ps[i])
		}
	}
}

// checkGrantFrame holds ParseGrantFrame to DecodeFrame's verdict on the
// frame body data: the prefixed frame parses as a grant exactly when data
// decodes to one header-only TagCredit packet, with the same count and ack.
// The raw bytes, read as a whole frame, must not panic it either.
func checkGrantFrame(t *testing.T, data []byte, ps []*Packet, err error) {
	t.Helper()
	ParseGrantFrame(data)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(data)))
	frame = append(frame, data...)
	n, acked, ok := ParseGrantFrame(frame)
	grant := err == nil && len(ps) == 1 && ps[0].Tag == TagCredit && len(frame) == GrantFrameSize
	if ok != grant {
		t.Fatalf("ParseGrantFrame ok = %v, DecodeFrame says one header-only grant = %v (err %v)", ok, grant, err)
	}
	if ok && (n != ps[0].StreamID || acked != ps[0].Seq) {
		t.Fatalf("ParseGrantFrame = (%d, %d), DecodeFrame = (%d, %d)", n, acked, ps[0].StreamID, ps[0].Seq)
	}
}

// FuzzFormatRoundTrip fuzzes format strings through the parser: parsing
// must never panic, and a parse-accepted format must render back into
// directives consistently.
func FuzzFormatRoundTrip(f *testing.F) {
	for _, s := range []string{"", "%d", "%d %f %s", "%ad %af %as %ac %c", "%x", "nonsense"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, format string) {
		dirs, err := ParseFormat(format)
		if err != nil {
			return
		}
		for _, d := range dirs {
			if d == DirInvalid {
				t.Fatalf("ParseFormat(%q) accepted an invalid directive", format)
			}
			if re, ok := parseDirective(d.String()); !ok || re != d {
				t.Fatalf("directive %v does not round-trip through %q", d, d.String())
			}
		}
	})
}

// FuzzNewRoundTrip fuzzes the origin path. The input is a format and a
// payload in wire form; whenever the eager reference decoder makes values of
// them, New must turn those values back into exactly that payload —
// EncodedSize exact, Decode accepting the result, Values deep-equal (floats
// by bits, so NaNs compare), re-encode byte-identical — and what New built
// must read like what Decode returns.
func FuzzNewRoundTrip(f *testing.F) {
	golden, _ := hex.DecodeString(goldenPacket)
	goldenP, err := Decode(golden)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []*Packet{
		goldenP,
		MustNew(100, 0, 0, ""),
		MustNew(100, 1, 2, "%d", int64(7)),
		MustNew(101, 1, 3, "%d %ac", int64(1), []byte("payload")),
		MustNew(102, 7, 3, "%c %d %f %s", byte(255), int64(-1), math.NaN(), ""),
		MustNew(102, 7, 3, "%ac %ad %af %as", []byte{}, []int64{}, []float64{}, []string{}),
		MustNew(102, 7, 3, "%as %as", []string{"", "a", ""}, []string{"\x00"}),
	} {
		f.Add(p.Format(), p.payload)
	}
	f.Fuzz(func(t *testing.T, format string, payload []byte) {
		dirs, err := ParseFormat(format)
		if err != nil || len(format) > math.MaxUint16 {
			return
		}
		vals, err := decodeValues(dirs, payload)
		if err != nil {
			return
		}
		before := WireEncodes()
		p, err := New(104, 9, 2, format, append([]any(nil), vals...)...)
		if err != nil {
			t.Fatalf("New rejected values the decoder produced for %q: %v", format, err)
		}
		if d := WireEncodes() - before; len(dirs) > 0 && d < 1 {
			t.Fatalf("New counted %d serialization passes", d)
		}
		if !bytes.Equal(p.payload, payload) || (p.payload != nil) != (len(dirs) > 0) {
			t.Fatalf("New serialized %q to %x, want %x", format, p.payload, payload)
		}
		wire := p.Encode()
		if p.EncodedSize() != len(wire) {
			t.Fatalf("EncodedSize %d, Encode wrote %d bytes", p.EncodedSize(), len(wire))
		}
		q, err := Decode(wire)
		if err != nil {
			t.Fatalf("Decode rejected what New built: %v", err)
		}
		if !reflect.DeepEqual(floatBits(q.Values()), floatBits(vals)) {
			t.Fatalf("values came back as %v, want %v", q.Values(), vals)
		}
		if !reflect.DeepEqual(floatBits(p.Values()), floatBits(vals)) {
			t.Fatalf("the built packet's own Values are %v, want %v", p.Values(), vals)
		}
		if !bytes.Equal(q.Encode(), wire) {
			t.Fatal("decoded copy does not re-encode byte-identically")
		}
		checkDecoded(t, p, wire, vals)
	})
}

// floatBits replaces floats by their bit patterns so DeepEqual can compare
// values that hold NaNs.
func floatBits(vals []any) []any {
	out := make([]any, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			v = math.Float64bits(x)
		case []float64:
			bits := make([]uint64, len(x))
			for j, e := range x {
				bits[j] = math.Float64bits(e)
			}
			v = bits
		}
		out[i] = v
	}
	return out
}
